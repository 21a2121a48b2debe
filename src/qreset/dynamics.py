"""Stroboscopic evolution engines, without restart.

Two routes to the same bookkeeping:

* ``measured_evolution`` (projected dynamics: a unitary step, then the
  detector amplitude recorded and zeroed) and ``nh_survival_series``
  (a dissipative generator instead of the projection) share one
  stepper.  The state stays unnormalized, so its squared norm is the
  survival probability.  The stepper applies the single-step operator
  through its band, b the band half-width (14 to 30 sites for tau from
  0.05 to 1), and only on the active window of w blocks of b sites that
  the light cone has reached.  Each generator is the free chain plus a
  defect at the detector, so all block rows of the band but those near
  the detector and the chain ends are one shared ``(b, 3 b)`` bulk
  block: a step is one GEMM of the window against it, one dense slab
  product per run of those block rows the window has reached, and a
  norm over the window, O(w b^2) whatever L.  The window grows by one
  block per side and step, and a newly reached block whose norm is at
  or below eps^2 times the state's is dropped.  The free chain's rows
  are closed forms, the Bessel row J_{i-j}(2 tau) and its mirror images
  about the chain ends; only a model's rows near the detector come from
  a probe of the exponential on its segment (reaching 2B past them, B
  the probe half-width): no L x L matrix, no length-L array.  All
  generators have real hops and imaginary entries on even diagonals
  only, so in the gauge D = diag(i^x) band and state are real: float64,
  half the memory of complex, with the same norms.
* ``renewal_amplitudes`` computes first-detection amplitudes from the
  recursion that subtracts, from the free transition amplitude, every
  earlier first-arrival propagated back to the detector.  It is the
  independent cross-check for the projected route and keeps the dense
  cached step matrix (O(n_max L^2)).

No matrix powers are stored.  Measurements happen at t = tau, 2 tau,
...; there is no measurement at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundaryContaminationError
from .lattice import LatticeSpec, ModelKind, detector_defect, step_propagator

__all__ = [
    "DetectionSeries",
    "RenewalSeries",
    "measured_evolution",
    "renewal_amplitudes",
    "nh_survival_series",
]

#: Sites of slack between the ballistic front and the chain edge.
BULK_MARGIN = 5

#: Maximal group velocity of the cosine band, in sites per unit time.
FRONT_SPEED = 2.0

#: Entries of a dissipative step at or below this magnitude may lie outside its band.
BAND_CUTOFF = np.finfo(np.float64).eps ** 2


@dataclass
class DetectionSeries:
    """Per-measurement detection bookkeeping for one run.

    Index ``k`` of each array holds measurement ``n = k + 1``; the
    ``n = 0`` anchor ``P_0 = 1`` is implicit.  ``p`` is the probability
    of first detection at the n-th measurement, ``P`` the survival
    probability after it, and ``Pdet`` the integrated detection
    probability up to it.  The engines take ``P`` from the squared norm
    of the surviving state, so it stays accurate in relative terms down
    to underflow; ``P_n = P_{n-1} - p_n`` holds only up to rounding of
    the larger terms.  ``Pdet`` accumulates ``p`` directly where the
    engine provides exact per-step masses, so a detection probability of
    1e-20 stays representable instead of vanishing into ``1 - P``.
    """

    tau: float
    p: np.ndarray
    P: np.ndarray
    Pdet: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.p)

    @property
    def times(self) -> np.ndarray:
        """Measurement instants n * tau, n = 1..n_max."""
        return self.tau * np.arange(1, len(self.p) + 1)


@dataclass
class RenewalSeries:
    """First-detection amplitudes; |amplitudes[k]|^2 matches p_{k+1}."""

    tau: float
    amplitudes: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.amplitudes)


def _check_run_args(tau: float, n_max: int) -> None:
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")


def _check_bulk_window(spec: LatticeSpec, tau: float, n_max: int) -> None:
    # Front speed 2 from the middle; reflections off the edge contaminate
    # everything after that, so refuse horizons that reach it.  Sites are
    # 1-based, so the edges lie initial_index - 1 and L - initial_index hops away.
    horizon = FRONT_SPEED * n_max * tau
    limit = min(spec.initial_index - 1, spec.L - spec.initial_index) - BULK_MARGIN
    if not horizon < limit:
        raise BoundaryContaminationError(
            f"horizon {n_max}*tau reaches the chain edge "
            f"(front travels {horizon:.1f} sites, room for {limit}); "
            f"shorten the run or enlarge L"
        )


def measured_evolution(
    spec: LatticeSpec, tau: float, n_max: int, bulk_guard: bool = True
) -> DetectionSeries:
    """Projected dynamics: unitary step, record detector amplitude, zero it.

    Each step goes through the band of ``e^{-i tau H}`` (:func:`_band_series`)
    and ends by squaring the detector amplitude into ``p_n`` and zeroing
    it.  ``P_n`` is the squared norm of the unnormalized survivor.  The
    band and window drop entries of at most eps^2 times the state's norm,
    so ``p_n`` below about ``eps^4 P_n`` has no relative accuracy: it is
    exactly 0 until the window reaches the detector's block, and with the
    detector 50 sites away (tau = 0.25) ``p_3`` is 1.5e-144 where the
    Bessel renewal gives 3.4e-142.  ``bulk_guard=False`` permits runs
    whose ballistic front reaches the boundary (small chains, reflection
    studies).
    """
    return _band_series(spec, ModelKind.EXACT, tau, n_max, bulk_guard)


def renewal_amplitudes(spec: LatticeSpec, tau: float, n_max: int) -> RenewalSeries:
    """First-detection amplitudes from the renewal recursion.

    psi_n = <s|U(n tau)|psi_0> - sum_{m<n} <s|U((n-m) tau)|s> psi_m,

    with U(k tau) applied as the k-th power of the cached step matrix.
    Only the two scalar sequences (transition and return amplitudes) are
    kept; no propagator powers are stored.
    """
    _check_run_args(tau, n_max)
    u = step_propagator(spec, ModelKind.EXACT, tau)
    s0 = spec.detector_index - 1
    v = np.zeros(spec.L, dtype=np.complex128)
    v[spec.initial_index - 1] = 1.0
    w = np.zeros(spec.L, dtype=np.complex128)
    w[s0] = 1.0
    transition = np.empty(n_max, dtype=np.complex128)
    ret = np.empty(n_max, dtype=np.complex128)
    for k in range(n_max):
        v = u @ v
        w = u @ w
        transition[k] = v[s0]
        ret[k] = w[s0]
    psi = np.empty(n_max, dtype=np.complex128)
    for n in range(1, n_max + 1):
        acc = transition[n - 1]
        if n > 1:
            # ret[n-m-1] pairs with psi[m-1] for m = 1..n-1
            acc -= np.dot(ret[: n - 1][::-1], psi[: n - 1])
        psi[n - 1] = acc
    return RenewalSeries(tau=tau, amplitudes=psi)


def _order_below(y: float, n_min: float, floor: float) -> int:
    """Smallest ``n >= n_min`` with ``y^n / n! <= floor < 1``, for any finite ``y >= 0``.

    Each term, a product of ``y / n``, is carried as ``m 2^(1000 k)``: exact, never overflowing.
    """
    n, m, k = 0, 1.0, 0
    while n < n_min or k or m > floor:
        n += 1
        m *= y / n
        if m > 2.0**1000:
            m, k = m * 2.0**-1000, k + 1
        elif k and m < 1.0:
            m, k = m * 2.0**1000, k - 1
    return n


def _probe_half_width(a: dict[tuple[int, int], float], tau: float, L: int) -> int:
    """Distance B from which no entry of ``e^A`` can exceed ``BAND_CUTOFF``.

    ``A = D (-i tau H) D*`` (D = diag(i^x), H symmetric) is the free
    chain plus the real defect ``a``.  No diagonal entry of H has a
    positive imaginary part, so A's diagonal only contracts and
    ``|e^A| <= e^{|N|}`` entrywise, with N the off-diagonal part of A.
    Entry (i, j) of ``|N|^k`` is at most x^k, with x the largest row sum
    of |N|, and vanishes unless a walk of k hops joins j to i; the
    shortest one uses each bond at most once, so ``k >= |i-j| - S``,
    where S counts the sites that bonds longer than one skip.  Hence
    ``|[e^A]_ij| <= sum_{k >= |i-j| - S} x^k / k!``.
    """
    offsets = sorted({-1, 1} | {j - i for i, j in a})
    rows = {i for i, _ in a}
    # Every row sums as a row of the defect, a chain end or this free row.
    free = next((r for r in range(1, L - 1) if r not in rows), 0)
    x = 0.0
    for r in rows | {0, L - 1, free}:
        total = 0.0  # in offset order, as over whole diagonals
        for k in offsets:
            if k and 0 <= r + k < L:
                total += abs(a.get((r, r + k), tau if abs(k) == 1 else 0.0))
        x = max(x, total)
    skipped = sum(j - i - 1 for (i, j), v in a.items() if j - i > 1 and v)
    # Smallest h whose tail is at most 2 x^h / h! <= BAND_CUTOFF; the
    # factor 2 holds once successive terms shrink by half (h + 1 >= 2x).
    return _order_below(x, 2 * x - 1, BAND_CUTOFF / 2) + skipped


def _gauge_defect(spec: LatticeSpec, kind: ModelKind, tau: float) -> dict[tuple[int, int], float]:
    """The detector defect of ``A = D (-i tau H) D*``, D = diag(i^x), as real entries.

    Entry (i, j) of ``-i tau H`` picks up the phase ``(-i)^(j - i)``: the
    free hops become exactly ``-tau`` and ``tau``, and a defect entry that
    stays complex (an imaginary hop, say) raises.
    """
    a = {}
    for (i, j), h in detector_defect(spec, kind, tau).items():
        # (-i)^(j - i) from a table: a float power would round the zero parts.
        g = -1j * tau * h * (1, -1j, -1, 1j)[(j - i) % 4]
        if g.imag:
            raise ValueError(f"{kind.value}: diagonal {j - i} is not real in the gauge diag(i^x)")
        a[i, j] = g.real
    return a


def _probe_block(a: dict[tuple[int, int], float], tau: float, lo: int, n: int, P: int) -> np.ndarray:
    """``e^A`` applied to the n x P probe block: row i holds a 1 in column i mod P.

    A is the free chain on rows ``lo .. lo + n - 1`` with the defect ``a``
    written in.  Scaled Taylor stages; each term is one difference of the
    last term shifted up and down (the free hops), one scale, and one
    product of A's defect rows with the last term that overwrites those
    rows, so they are exactly A's, not free rows plus a correction.  Each
    block has a zero row past either end, and two buffers alternate.
    """
    r0, r1 = min(a)[0], max(a)[0] + 1
    c0 = max(lo, min(r0 - 1, *(j for _, j in a)))
    c1 = min(lo + n, max(r1 + 1, *(j + 1 for _, j in a)))
    o = np.arange(r0, r1)[:, None] - np.arange(c0, c1)
    d = np.where(np.abs(o) == 1, tau * o, 0.0)
    for (i, j), v in a.items():
        d[i - r0, j - c0] = v
    # The largest row sum of |A|: a free row's 2 tau or a defect row's.
    norm = max(2 * tau, *np.abs(d).sum(axis=1))
    # Stages of norm at most 4: at this tolerance fewer, longer stages cost
    # fewer terms, and the largest term, 4^4/4! ~ 11, costs one digit at most.
    stages = max(1, int(np.ceil(norm / 4)))
    d /= stages
    # Rows 1 .. n of each block are the probe rows, rows 0 and n + 1 stay zero.
    rows, cols = slice(r0 - lo + 1, r1 - lo + 1), slice(c0 - lo + 1, c1 - lo + 1)
    f = np.zeros((n + 2, P))
    f[np.arange(1, n + 1), np.arange(n) % P] = 1.0
    buffers = (np.zeros_like(f), np.zeros_like(f))
    tol = BAND_CUTOFF * np.finfo(np.float64).eps
    for _ in range(stages):
        term, m = f, 0
        # Term m is at most (norm / stages) / m times term m - 1: stop at a term at
        # most tol once that ratio is at most 1/2, so the dropped tail is too.
        while m + 1 < 2 * norm / stages or term.max() > tol or -term.min() > tol:
            m += 1
            nxt = buffers[m % 2]
            np.subtract(term[:-2], term[2:], out=nxt[1:-1])
            nxt *= tau / (stages * m)
            np.dot(d / m, term[cols], out=nxt[rows])
            f += nxt
            term = nxt
    return f[1:-1]


def _bessel_row(x: float) -> np.ndarray:
    """``J_0(x) .. J_b(x)``, b the largest order (at least 1) with ``|J_b(x)| > BAND_CUTOFF``.

    Miller's backward recurrence in ratio form, ``r_k = J_k / J_{k-1} = x /
    (2 k - x r_{k+1})``, from ``r_{n+1} = 0`` at the first order ``n >= x``
    with ``(x/2)^n / n! <= eps^3``, a bound on ``|J_n|``; the products ``J_k
    / J_0`` are normalised by ``J_0 + 2 sum_k J_2k = 1``.  Nothing overflows.
    """
    n = _order_below(x / 2, x, BAND_CUTOFF**1.5)
    r, q = [1.0] * (n + 1), 0.0
    for k in range(n, 0, -1):
        q = r[k] = x / (2 * k - x * q)
    c = np.cumprod(r)
    j = c / (c[0] + 2 * c[2::2].sum())
    return j[: max(1, np.flatnonzero(np.abs(j) > BAND_CUTOFF)[-1]) + 1]


def _step_band(spec: LatticeSpec, kind: ModelKind, tau: float) -> tuple:
    """Band of the step in float64: the shared bulk block and the slabs of the other block rows.

    The step is taken in the gauge D = diag(i^x), as ``e^A`` with A real,
    the free chain plus :func:`_gauge_defect`.  The half-width b is the largest
    ``|i - j|`` of an entry above ``BAND_CUTOFF``; every entry farther out
    is dropped.  With blocks of b sites, block row k holds rows ``k b ..
    k b + b - 1`` against columns ``(k - 1) b .. (k + 2) b - 1``, zero
    past the chain ends; against the state zero-padded by one block on
    each side, those columns are the window ``k b .. (k + 3) b - 1``.

    The infinite free chain's row is ``g(j - i) = J_{i-j}(2 tau)``
    (:func:`_bessel_row`, zero past its last order above the cutoff).
    The free open chain is the infinite one on states odd about the
    mirror sites -1 and L, so its row i is the image sum ``sum_m (-1)^m
    (g(j - i + m p) + (-1)^j g(m p - 2 - i - j))``, ``p = 2 L + 2`` (L is
    even): the bulk row unless i lies within b of an end.

    Only rows within B of the defect differ from the free open chain's,
    B from :func:`_probe_half_width`; the exact kind has none and probes
    nothing.  One probe runs on the rows within 2B of the defect, clipped
    to the chain: columns whose indices agree mod ``P = 2 B + 1`` share a
    probe vector, so one application of the exponential to a block of P
    probe columns gives every entry with ``|i - j| <= B`` of a row within
    B of the defect, whose cut ends lie at least B away.  The other
    columns of its probe lie more than B away, where the bound holds each
    entry below the cutoff, so they shift it by about eps^2 at most.  An
    entry above the cutoff at distance B means the bound failed, and raises.

    Returns ``(bulk, runs)``: ``bulk`` the ``(b, 3 b)`` block of every
    block row with no row near the defect or within b of an end, and
    the other block rows in runs of consecutive ones, each run ``k0 ..
    k1 - 1`` as ``(k0, slab)`` with ``slab`` the dense ``((k1 - k0) b,
    (k1 - k0 + 2) b)`` rows of the run against the padded state's sites
    ``k0 b .. (k1 + 2) b - 1``.  Probe, bulk block and slabs cost
    O(B^2); nothing has the length of the chain.
    """
    L = spec.L
    a = _gauge_defect(spec, kind, tau)
    # g(o) = J_{-o}(2 tau) = line[o + mid], zero for |o| past the row's reach.
    row = _bessel_row(2 * tau)
    mid = len(row)
    line = np.zeros(2 * mid + 1)
    line[1:mid], line[mid:-1] = row[:0:-1], row * (1 - 2 * (np.arange(mid) % 2))
    # Rows near the defect: none for the exact kind.
    b, near = mid - 1, (0, 0)
    if a:
        B = _probe_half_width(a, tau, L)
        P = 2 * B + 1
        first, last = min(a)[0], max(a)[0]
        lo, hi = max(0, first - 2 * B), min(L, last + 2 * B + 1)
        f = _probe_block(a, tau, lo, hi - lo, P)
        # Column c of the probe holds, on row i, the entry of the column
        # j = c mod P with |i - j| <= B.
        near = (max(0, first - B), min(L, last + B + 1))
        rows = np.arange(*near)
        offset = (np.arange(P) - rows[:, None] + lo + B) % P - B
        col = rows[:, None] + offset
        above = (col >= 0) & (col < L) & (np.abs(f[rows - lo]) > BAND_CUTOFF)
        reach = int(np.max(np.abs(offset[above]), initial=0))
        if reach >= B:
            raise RuntimeError(
                f"{kind.value} step at L={L}, tau={tau}: an entry above the cutoff "
                f"lies {reach} sites off the diagonal, at the probe half-width {B}"
            )
        b = max(b, reach)
    b = min(b, L - 1)
    # The images m p that can bring an offset within the row's reach.
    p = 2 * L + 2
    m = np.arange(-(mid // p) - 1, mid // p + 2)[:, None, None]

    def slab(k0, k1):
        rows = np.arange(k0 * b, k1 * b)[:, None]
        cols = np.arange((k0 - 1) * b, (k1 + 1) * b)[None, :]
        o = cols - rows
        # The free open chain's rows: the bulk row, and on a run that
        # touches an end its image sum; then the rows near the defect from
        # the probe.
        if k0 == 0 or k1 * b > L - b:
            mirror = (1 - 2 * (cols % 2)) * line.take(m * p - 2 - rows - cols + mid, mode="clip")
            terms = line.take(o + m * p + mid, mode="clip") + mirror
            entries = ((1 - 2 * (m % 2)) * terms).sum(axis=0)
        else:
            entries = line.take(o + mid, mode="clip")
        if a:
            i = slice(max(near[0] - k0 * b, 0), max(min(near[1], k1 * b) - k0 * b, 0))
            mine = rows[i] - lo
            entries[i] = f[mine, (mine + o[i]) % P]
        keep = (rows < L) & (cols >= 0) & (cols < L) & (np.abs(o) <= b)
        return k0, np.where(keep, entries, 0.0)

    # Runs of consecutive block rows that hold a row near the defect or
    # within b of an end.
    ranges = (near, (0, b), (L - b, L))
    held = sorted({k for r0, r1 in ranges for k in range(r0 // b, (r1 - 1) // b + 1)})
    spans = np.split(held, np.flatnonzero(np.diff(held) > 1) + 1)
    o = np.arange(3 * b) - np.arange(b)[:, None] - b
    bulk = np.where(np.abs(o) <= b, line.take(o + mid, mode="clip"), 0.0)
    return bulk, [slab(int(s[0]), int(s[-1]) + 1) for s in spans]


def nh_survival_series(
    spec: LatticeSpec,
    kind: ModelKind,
    tau: float,
    n_max: int,
    bulk_guard: bool = True,
) -> DetectionSeries:
    """Survival under a dissipative generator, read off the decaying norm.

    P_n is the squared norm after n applications of the single-step
    contraction, stepped through its band (:func:`_band_series`); p_n and
    Pdet_n follow from the same bookkeeping as the projected engine.
    """
    if kind is ModelKind.EXACT:
        raise ValueError("kind must be one of the dissipative models")
    return _band_series(spec, kind, tau, n_max, bulk_guard)


def _band_series(
    spec: LatticeSpec, kind: ModelKind, tau: float, n_max: int, bulk_guard: bool
) -> DetectionSeries:
    """Step the initial state ``n_max`` times through the band of ``kind``'s step.

    The band (:func:`_step_band`) and the initial state are real in the
    gauge D = diag(i^x), which changes no norm.  The band's dropped
    entries are each at most ``BAND_CUTOFF`` = eps^2, far
    below the rounding error of a step.  Besides the state, memory holds
    the bulk block and the slabs, O(B^2) at any chain length.
    For the exact kind each step ends with the projection: the detector
    amplitude is squared into ``p_n`` and zeroed.

    Only the block rows of the light cone are stepped.  The state lives
    on a contiguous range of w blocks, starting at the initial site's
    block.  The band reaches at most b sites, so a step can only reach
    one more block on each side (clipped to the chain); such a block
    joins the range unless its norm is at or below ``BAND_CUTOFF *
    sqrt(P_{n-1})``, the band's own eps^2 rule applied to the state, in
    which case it is dropped and stays zero.  The step is a contraction,
    so the dropped amplitudes shift P_n by at most about
    ``4 n eps^2 sqrt(P_n)`` (8e-28 after 4000 steps).

    A step is one ``(w, 3 b) @ (3 b, b)`` GEMM of the range's windows of
    the padded state against the bulk block, which treats every block
    row as a bulk row; each run of slab rows the range reaches then rewrites
    its rows with one product of its slab.  P_n is the squared norm of
    the range alone, the only blocks that can be nonzero.  A step costs
    O(w b^2), and no work or subnormal arithmetic is spent on the blocks
    the front has not reached.

    The range changes only when a block joins it (71 times in 4000 steps
    at L = 1000, tau = 0.05), so the loop is set up once per range: the
    bound GEMM and its output, the slab runs it reaches with the state
    each reads and the rows each writes, the projection test, the two
    blocks that may join (None at a chain end) and the state views.  It
    then steps until a block joins.  A step is the GEMM, one product per reached slab, at most two
    edge norms, the copy and the norm, with no slicing: 9-15 µs at that
    point (b = 14, w up to 72 blocks, band build included) on a 2-vCPU
    box, against 14-17 µs when each step set itself up.
    """
    _check_run_args(tau, n_max)
    if bulk_guard:
        _check_bulk_window(spec, tau, n_max)
    bulk, runs = _step_band(spec, kind, tau)
    b = len(bulk)
    n_blocks = -(-spec.L // b)
    # The state zero-padded by one block on each side; window k is what
    # block row k multiplies, and state block k sits at padded[(k + 1) b:].
    padded = np.zeros((n_blocks + 2) * b)
    padded[b + spec.initial_index - 1] = 1.0
    windows = sliding_window_view(padded, 3 * b)[::b]
    bulk_t = bulk.T
    phi = np.empty((n_blocks, b))
    flat = phi.ravel()
    project = kind is ModelKind.EXACT
    detector = spec.detector_index - 1
    lo = (spec.initial_index - 1) // b
    hi = lo + 1
    p = np.zeros(n_max)
    surv = np.empty(n_max)
    prev = 1.0
    k = 0
    # ndarray.dot rather than np.dot: the same product without the
    # per-call dispatch, which costs as much as a small product here.
    while k < n_max:
        # Set up the stepped blocks start .. stop - 1 once per range: they
        # change only when a block joins it.
        start, stop = max(lo - 1, 0), min(hi + 1, n_blocks)
        gemm, out = windows[start:stop].dot, phi[start:stop]
        # The slab runs the range reaches, the state they read, the rows they write.
        reached = [
            (slab.dot, padded[k0 * b :][: len(slab) + 2 * b], flat[k0 * b :][: len(slab)])
            for k0, slab in runs
            if k0 < stop and start < k0 + len(slab) // b
        ]
        # Outside the stepped blocks phi is stale and the amplitude zero.
        detect = project and start * b <= detector < stop * b
        # The blocks that may join: None at a chain end or inside the range.
        left = phi[start] if start < lo else None
        right = phi[stop - 1] if stop > hi else None
        state, source = padded[(lo + 1) * b : (hi + 1) * b], flat[lo * b : hi * b]
        grown = False
        while not grown and k < n_max:
            # Every block row of the range as a bulk row, in one GEMM; then
            # the slab runs the range reaches overwrite theirs.
            gemm(bulk_t, out=out)
            for dot, cols, rows in reached:
                dot(cols, out=rows)
            if detect:
                p[k] = flat[detector] ** 2
                flat[detector] = 0.0
            # A block the step has just reached joins the range unless its
            # mass is at most eps^4 P_{n-1}; if not, padded still holds zeros
            # there.
            floor = BAND_CUTOFF**2 * prev
            if left is not None and left.dot(left) > floor:
                lo, grown = start, True
            if right is not None and right.dot(right) > floor:
                hi, grown = stop, True
            if grown:
                state, source = padded[(lo + 1) * b : (hi + 1) * b], flat[lo * b : hi * b]
            state[:] = source
            prev = surv[k] = state.dot(state)
            k += 1
    if project:
        return DetectionSeries(tau=tau, p=p, P=surv, Pdet=np.cumsum(p))
    p = np.append(1.0, surv[:-1]) - surv
    return DetectionSeries(tau=tau, p=p, P=surv, Pdet=1.0 - surv)
