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
  or below eps^2 times the state's is dropped.  Long runs take k
  measurements per GEMM (a super-step) through the band of the k-step
  operator, and read what the k - 1 inner measurements need off the
  pre-step amplitudes near the detector: the exact kind's detector
  amplitudes, from a local renewal that then corrects the state, or a
  model's losses, from a factor of its local ``1 - S^T S``.  The free
  chain's rows are closed forms, the Bessel row J_{i-j}(2 t) and its
  mirror images about the chain ends; only a model's rows near the
  detector come from a probe of the exponential on its segment (reaching
  2B past them, B the probe half-width): no L x L matrix, no length-L
  array.  All generators have real hops and imaginary entries on even
  diagonals only, so in the gauge D = diag(i^x) band and state are real:
  float64, half the memory of complex, with the same norms.
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
    of the surviving state where a super-step of k measurements ends
    (every measurement at k = 1), and inside a super-step from that norm
    plus the later measurements' losses, sums of non-negative terms; so
    it stays accurate in relative terms down to underflow, and ``P_n =
    P_{n-1} - p_n`` holds only up to rounding of the larger terms.
    ``Pdet`` accumulates ``p`` directly where the engine provides exact
    per-step masses, so a detection probability of 1e-20 stays
    representable instead of vanishing into ``1 - P``.
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
    it; a super-step of k steps reads the first k - 1 amplitudes off the
    state near the detector and takes the k-th as a step does.  ``P_n``
    is the squared norm of the unnormalized survivor (at a super-step's
    end; inside it, that norm plus the later ``p``).  The band and window
    drop entries of at most eps^2 times the state's norm, so ``p_n`` below
    about ``eps^4 P_n`` has no relative accuracy: it is exactly 0 until
    the stepped window (the state's blocks and one more block a side)
    reaches the detector, and with the
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


def _free_line(t: float) -> np.ndarray:
    """The infinite free chain's row after time t: ``g(o) = J_{-o}(2 t) = line[o + mid]``.

    ``mid = len(line) // 2``; the line ends in a zero on each side, so
    ``take(..., mode="clip")`` reads zero past the row's reach.
    """
    row = _bessel_row(2 * t)
    mid = len(row)
    line = np.zeros(2 * mid + 1)
    line[1:mid], line[mid:-1] = row[:0:-1], row * (1 - 2 * (np.arange(mid) % 2))
    return line


def _free_entries(line: np.ndarray, L: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries ``(rows, cols)`` (2-d, broadcast) of the free open chain whose bulk row is ``line``.

    The open chain is the infinite one on states odd about the mirror
    sites -1 and L, so its row i is the image sum ``sum_m (-1)^m (g(j - i
    + m p) + (-1)^j g(m p - 2 - i - j))``, ``p = 2 L + 2`` (L is even): the
    bulk row unless i lies within the row's reach of an end.
    """
    mid = len(line) // 2
    p = 2 * L + 2
    # The images m p that can bring an offset within the row's reach.
    m = np.arange(-(mid // p) - 1, mid // p + 2)[:, None, None]
    mirror = (1 - 2 * (cols % 2)) * line.take(m * p - 2 - rows - cols + mid, mode="clip")
    terms = line.take(cols - rows + m * p + mid, mode="clip") + mirror
    return ((1 - 2 * (m % 2)) * terms).sum(axis=0)


def _step_band(spec: LatticeSpec, kind: ModelKind, tau: float, k: int = 1) -> tuple:
    """Band of k steps in float64: the shared bulk block and the slabs of the other block rows.

    The k-th power of the step is taken in the gauge D = diag(i^x), as
    ``e^{k A}`` with A real, the free chain plus :func:`_gauge_defect` at
    ``tau``: the defect and the free hops are both scaled by k, while the
    generator stays the one of the step ``tau`` (a model's defect depends
    on it).  The half-width b is the largest ``|i - j|`` of an entry above
    ``BAND_CUTOFF``; every entry farther out is dropped.  With blocks of b
    sites, block row q holds rows ``q b .. q b + b - 1`` against columns
    ``(q - 1) b .. (q + 2) b - 1``, zero past the chain ends; against the
    state zero-padded by one block on each side, those columns are the
    window ``q b .. (q + 3) b - 1``.

    The infinite free chain's row after ``t = k tau`` is ``g(j - i) =
    J_{i-j}(2 t)`` (:func:`_free_line`, zero past its last order above the
    cutoff), and the free open chain's rows are its image sums
    (:func:`_free_entries`): the bulk row unless i lies within b of an end.

    Only rows within B of the defect differ from the free open chain's,
    B from :func:`_probe_half_width`; the exact kind has none and probes
    nothing.  One probe runs on the n rows within 2B of the defect,
    clipped to the chain: columns whose indices agree mod ``P = min(2 B +
    1, n)`` share a probe vector, so one application of the exponential
    to a block of P probe columns gives every entry with ``|i - j| <= B``
    of a row within B of the defect, whose cut ends lie at least B away.
    The other columns of its probe lie more than B away, where the bound
    holds each entry below the cutoff, so they shift it by about eps^2 at
    most; with P = n every column has a probe vector of its own.  An entry
    above the cutoff at distance B means the bound failed, and raises.

    Returns ``(bulk, runs)``: ``bulk`` the ``(b, 3 b)`` block of every
    block row with no row near the defect or within b of an end, and
    the other block rows in runs of consecutive ones, each run ``k0 ..
    k1 - 1`` as ``(k0, slab)`` with ``slab`` the dense ``((k1 - k0) b,
    (k1 - k0 + 2) b)`` rows of the run against the padded state's sites
    ``k0 b .. (k1 + 2) b - 1``.  Probe, bulk block and slabs cost
    O(B^2); nothing has the length of the chain.
    """
    L = spec.L
    a = {ij: k * v for ij, v in _gauge_defect(spec, kind, tau).items()}
    t = k * tau
    # g(o) = line[o + mid], zero for |o| past the row's reach.
    line = _free_line(t)
    mid = len(line) // 2
    # Rows near the defect: none for the exact kind.
    b, near = mid - 1, (0, 0)
    if a:
        B = _probe_half_width(a, t, L)
        first, last = min(a)[0], max(a)[0]
        lo, hi = max(0, first - 2 * B), min(L, last + 2 * B + 1)
        P = min(2 * B + 1, hi - lo)
        f = _probe_block(a, t, lo, hi - lo, P)
        # Column c of the probe holds, on row i, the entry of the column
        # j = lo + c; with P = 2B + 1, that of the j = lo + c mod P with |i - j| <= B.
        near = (max(0, first - B), min(L, last + B + 1))
        rows = np.arange(*near)
        offset = np.arange(P) + lo - rows[:, None]
        if P == 2 * B + 1:
            offset = (offset + B) % P - B
        col = rows[:, None] + offset
        above = (col >= 0) & (col < L) & (np.abs(f[rows - lo]) > BAND_CUTOFF)
        reach = int(np.max(np.abs(offset[above]), initial=0))
        if reach >= B:
            raise RuntimeError(
                f"{kind.value} step at L={L}, tau={tau}, k={k}: an entry above the cutoff "
                f"lies {reach} sites off the diagonal, at the probe half-width {B}"
            )
        b = max(b, reach)
    b = min(b, L - 1)

    def slab(k0, k1):
        rows = np.arange(k0 * b, k1 * b)[:, None]
        cols = np.arange((k0 - 1) * b, (k1 + 1) * b)[None, :]
        o = cols - rows
        # The free open chain's rows: the bulk row, and on a run that
        # touches an end its image sum; then the rows near the defect from
        # the probe.
        if k0 == 0 or k1 * b > L - b:
            entries = _free_entries(line, L, rows, cols)
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
    held = sorted({j for r0, r1 in ranges for j in range(r0 // b, (r1 - 1) // b + 1)})
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


def _detector_rows(L: int, s: int, tau: float, k: int) -> tuple:
    """The exact kind's projections inside a super-step of k measurements, as a local renewal.

    With V the step and ``Pi = 1 - e_s e_s^T`` the projection, the first
    k - 1 detector amplitudes from the pre-step state psi are
    ``a_i = e_s^T V (Pi V)^(i-1) psi = R_i psi - sum_{j<i} r_(i-j) a_j``,
    R_i the detector row of V^i and ``r_m = (V^m)_ss`` the return
    amplitudes, so ``a = M psi`` with ``M = T^-1 R``, T the unit
    lower-triangular Toeplitz matrix of the r_m.  After ``V^k psi`` the
    projections enter as ``- C a``, column i of C the column ``V^(k-i)
    e_s``, and the detector site then holds ``a_k``.  Every row and
    column is the free open chain's closed form (:func:`_free_entries`),
    and reaches at most V^(k-1)'s half-width h from the detector.

    Returns ``(c0, M, C)``: M is ``(k - 1, w)`` and C ``(w, k - 1)``, on the
    sites ``c0 .. c0 + w - 1`` within h of the detector.
    """
    lines = [_free_line(m * tau) for m in range(1, k)]
    h = max(len(line) for line in lines) // 2 - 1
    c0 = max(s - h, 0)
    cols, site = np.arange(c0, min(s + h + 1, L))[None, :], np.array([[s]])
    rows = np.concatenate([_free_entries(line, L, site, cols) for line in lines])
    ret, M = rows[:, s - c0], rows.copy()
    for i in range(1, k - 1):
        M[i] -= ret[:i][::-1] @ M[:i]
    C = np.concatenate([_free_entries(line, L, cols.T, site) for line in lines[::-1]], axis=1)
    return c0, M, C


def _loss_rows(band: tuple, L: int, s: int, k: int) -> tuple:
    """A model's losses in steps 2 .. k of a super-step, as rows on the pre-step state.

    A step S takes ``phi^T (1 - S^T S) phi`` from the squared norm.  Up to
    the band's cutoff, ``1 - S^T S`` vanishes outside the columns X of the
    detector's run of slab rows and one block on each side (every other
    column of S is the free open chain's, orthonormal to the rest).  On X
    it is factored as ``W^T W``, W the eigenvectors of its local block
    scaled by the square roots of the eigenvalues above eps times the
    largest and above the most negative one's magnitude, the block's
    rounding level (the block is positive semidefinite): r = 4 for either
    model at tau = 0.05, 5 and 7 at tau = 0.25.  Row block m of the result
    is ``W S^m``, m = 1 .. k - 1, so the loss of step m + 1 from the
    pre-step state psi is ``|W S^m psi|^2``: a sum of squares, never
    negative.  S^m reaches m blocks past X, so the dense band on X and
    k - 1 blocks on each side gives these rows exactly.

    Returns ``(c0, F)``: F is ``((k - 1) r, w)``, r the rank kept, on the
    sites ``c0 .. c0 + w - 1``.
    """
    bulk, runs = band
    b = len(bulk)
    n_blocks = -(-L // b)
    # The run of slab rows that holds the detector.
    r0, r1 = next((q, q + len(slab) // b) for q, slab in runs if q * b <= s < q * b + len(slab))
    x0, x1 = max(r0 - 1, 0), min(r1 + 1, n_blocks)
    y0, y1 = max(x0 - k + 1, 0), min(x1 + k - 1, n_blocks)
    # The band's block rows y0 .. y1 - 1, each against its three column
    # blocks, in a square padded by one block on each side.
    square = np.zeros(((y1 - y0 + 2) * b, (y1 - y0 + 2) * b))
    for j in range(y0, y1):
        block = bulk
        for k0, slab in runs:
            if k0 <= j < k0 + len(slab) // b:
                block = slab[(j - k0) * b :][:b, (j - k0) * b :][:, : 3 * b]
        square[(j - y0 + 1) * b :][:b, (j - y0) * b :][:, : 3 * b] = block
    n = min(y1 * b, L) - y0 * b
    step = square[b : b + n, b : b + n]
    x = slice((x0 - y0) * b, min(x1 * b, L) - y0 * b)
    lam, u = np.linalg.eigh(np.eye(x.stop - x.start) - step[:, x].T @ step[:, x])
    kept = lam > max(np.finfo(np.float64).eps * lam[-1], -lam[0])
    w = np.zeros((np.count_nonzero(kept), n))
    w[:, x] = np.sqrt(lam[kept])[:, None] * u[:, kept].T
    rows = []
    for _ in range(k - 1):
        w = w @ step
        rows.append(w)
    F = np.concatenate(rows)
    used = np.flatnonzero(F.any(axis=0))
    if not len(used):
        return 0, F[:, :0]
    return y0 * b + used[0], F[:, used[0] : used[-1] + 1]


def _steps_per_gemm(L: int, kind: ModelKind, tau: float, n_max: int) -> int:
    """Measurements per super-step: 1 for a short run, else the largest k that pays.

    A run of fewer than 400 measurements (exact kind) or 2000 (a model,
    whose probe of k steps and loss rows cost more) keeps k = 1: the setup
    would cost about as much as the GEMMs it saves.  A longer run takes
    the largest k of 2, 4, 8 and, for the exact kind, 16 with at least
    100 k measurements whose band is at most twice as wide as the step's,
    ``b_k <= 2 b``, both the free chain's half-widths capped at L - 1.
    Past that width the setup, which grows with b_k, outweighs the GEMMs
    saved; a model's probe of 16 steps was slower than of 8 wherever
    measured.  k only sets the speed: the series agrees with the
    single-step loop to a few n eps at any k.
    """
    if n_max < (400 if kind is ModelKind.EXACT else 2000):
        return 1

    def half_width(k):
        return min(len(_bessel_row(2 * k * tau)), L) - 1

    top, k = min(16 if kind is ModelKind.EXACT else 8, n_max // 100), 1
    while 2 * k <= top and half_width(2 * k) <= 2 * half_width(1):
        k *= 2
    return k


def _band_series(
    spec: LatticeSpec, kind: ModelKind, tau: float, n_max: int, bulk_guard: bool
) -> DetectionSeries:
    """Step the initial state ``n_max`` times through the band of ``kind``'s step.

    The band (:func:`_step_band`) and the initial state are real in the
    gauge D = diag(i^x), which changes no norm.  The band's dropped
    entries are each at most ``BAND_CUTOFF`` = eps^2, far below the
    rounding error of a step.  Besides the state, memory holds the bulk
    block and the slabs, O(B^2) at any chain length.

    A run is ``ceil(n_max / k)`` super-steps of k measurements from the
    initial site, each one GEMM through the band of the k-step operator
    S^k, b its half-width; k comes from the run's length and the
    half-widths (:func:`_steps_per_gemm`), and is 1 for runs too short to
    pay for the setup.  At tau = 0.05, b is 14 for one step and 19, 22
    and 27 for k = 4, 8 and 16: one GEMM of half-width b_k replaces k of
    half-width b.  The last super-step may run up to k - 1 measurements
    past ``n_max``; those are dropped.  At k = 1 the loop does exactly the
    single-step arithmetic: the step, the exact kind's amplitude read
    after it and zeroed, P the window's squared norm.  At k > 1 what a
    super-step needs besides S^k's band is read off the pre-step
    amplitudes near the detector, from rows built once per run:

    * the exact kind: the detector amplitudes of the first k - 1
      measurements, from the local renewal of :func:`_detector_rows`,
      whose projections then enter as a correction ``- C a`` after the
      GEMM; the k-th is the detector amplitude the super-step ends with,
      squared into ``p_n`` and zeroed as at k = 1.  ``Pdet = cumsum(p)``.
    * a model: the losses of measurements 2 .. k, from the factored loss
      rows of :func:`_loss_rows` on the band of one step.  ``p = P_{n-1}
      - P_n`` and ``Pdet = 1 - P``, as at k = 1.

    P is the squared norm of the window at each super-step's end and,
    inside it, that norm plus the later losses: sums of non-negative
    terms, so P keeps its relative accuracy, never rises inside a
    super-step, and a model's p is never negative there.  In the last
    super-step P at ``n_max`` is its end's norm plus the losses after
    ``n_max``, the norm at ``n_max`` whether or not the overrun reaches a
    chain end.

    Only the block rows of the light cone are stepped.  The state lives
    on a contiguous range of w blocks, starting at the initial site's
    block.  The band reaches at most b sites, so a super-step can only
    reach one more block on each side (clipped to the chain); such a
    block joins the range unless its norm is at or below ``BAND_CUTOFF *
    sqrt(P)``, the band's own eps^2 rule applied to the state, in which
    case it is dropped and stays zero.  The steps are contractions, so
    the dropped amplitudes shift P_n by at most about ``4 n eps^2
    sqrt(P_n)`` (8e-28 after 4000 steps).  The exact kind's correction
    writes only the stepped rows: the rest lie farther than b from the
    state, where the projected steps leave amplitudes below the cutoff
    too.

    A super-step is one ``(w, 3 b) @ (3 b, b)`` GEMM of the range's
    windows of the padded state against the bulk block, which treats
    every block row as a bulk row; each run of slab rows the range
    reaches then rewrites its rows with one product of its slab.  P is
    the squared norm of the range alone, the only blocks that can be
    nonzero.  A super-step costs O(w b^2), and no work or subnormal
    arithmetic is spent on the blocks the front has not reached.

    The range changes only when a block joins it (71 times in 4000 steps
    at L = 1000, tau = 0.05, k = 1), so the loop is set up once per range:
    the bound GEMM and its output, the slab runs it reaches with the state
    each reads and the rows each writes, the projection test, the readout
    and correction, the two blocks that may join (None at a chain end)
    and the state views.  It then steps until a block joins.  A
    super-step is the GEMM, one product per reached slab, the readout
    (and the exact kind's correction) once the range reaches the
    detector, at most two edge norms, the copy and the norm, with no
    slicing; the loss sums of every super-step follow in whole-array
    operations after the loop.
    """
    _check_run_args(tau, n_max)
    if bulk_guard:
        _check_bulk_window(spec, tau, n_max)
    k = _steps_per_gemm(spec.L, kind, tau, n_max)
    bulk, runs = _step_band(spec, kind, tau, k)
    b = len(bulk)
    n_blocks = -(-spec.L // b)
    project = kind is ModelKind.EXACT
    detector = spec.detector_index - 1
    # ceil(n_max / k) super-steps; those past n_max in the last are dropped at the end.
    count, last = -(-n_max // k), k - 1
    p = np.zeros(count * k)
    surv = np.empty(count * k)
    # The measurements that end a super-step: each takes a step's arithmetic.
    p_end, surv_end = p[last::k], surv[last::k]
    # The state zero-padded by one block on each side; window q is what
    # block row q multiplies, and state block q sits at padded[(q + 1) b:].
    padded = np.zeros((n_blocks + 2) * b)
    padded[b + spec.initial_index - 1] = 1.0
    windows = sliding_window_view(padded, 3 * b)[::b]
    bulk_t = bulk.T
    phi = np.empty((n_blocks, b))
    flat = phi.ravel()
    # The state's blocks lo .. hi - 1 and P, at the initial site.
    lo = (spec.initial_index - 1) // b
    hi, prev = lo + 1, 1.0
    if k > 1:
        if project:
            c0, F, C = _detector_rows(spec.L, detector, tau, k)
        else:
            c0, F = _loss_rows(_step_band(spec, kind, tau), spec.L, detector, k)
        c1 = c0 + F.shape[1]
        read, near = F.dot, padded[b + c0 : b + c1]
        amps = np.zeros((count, len(F)))
    j = 0
    # ndarray.dot rather than np.dot: the same product without the
    # per-call dispatch, which costs as much as a small product here.
    while j < count:
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
        # The readout's sites hold amplitude only once the range reaches
        # them; the exact kind's correction writes the stepped rows among its own.
        reading = k > 1 and c0 < hi * b and lo * b < c1
        correcting = reading and project
        if correcting:
            f0, f1 = max(c0, start * b), min(c1, stop * b)
            fix, fixed = C[f0 - c0 : f1 - c0].dot, flat[f0:f1]
        # The blocks that may join: None at a chain end or inside the range.
        left = phi[start] if start < lo else None
        right = phi[stop - 1] if stop > hi else None
        state, source = padded[(lo + 1) * b : (hi + 1) * b], flat[lo * b : hi * b]
        grown = False
        while not grown and j < count:
            if reading:
                read(near, out=amps[j])
            # Every block row of the range as a bulk row, in one GEMM; then
            # the slab runs the range reaches overwrite theirs.
            gemm(bulk_t, out=out)
            for dot, cols, rows in reached:
                dot(cols, out=rows)
            if correcting:
                fixed -= fix(amps[j])
            if detect:
                p_end[j] = flat[detector] ** 2
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
            prev = surv_end[j] = state.dot(state)
            j += 1
    if k > 1:
        # Inside a super-step P is its end's squared norm plus the later losses.
        rounds = surv.reshape(count, k)
        if project:
            p.reshape(count, k)[:, :last] = amps**2
            loss = p.reshape(count, k)[:, 1:]
        else:
            loss = (amps**2).reshape(count, last, len(F) // last).sum(axis=2)
        rounds[:, :last] = rounds[:, last:] + np.cumsum(loss[:, ::-1], axis=1)[:, ::-1]
    p, surv = p[:n_max], surv[:n_max]
    if project:
        return DetectionSeries(tau=tau, p=p, P=surv, Pdet=np.cumsum(p))
    p = np.append(1.0, surv[:-1]) - surv
    return DetectionSeries(tau=tau, p=p, P=surv, Pdet=1.0 - surv)
