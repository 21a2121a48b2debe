"""Stroboscopic evolution engines, without restart.

Three routes to the same bookkeeping:

* ``measured_evolution`` runs the projected dynamics: a unitary step of
  length ``tau`` followed by recording and zeroing the amplitude at the
  detector site.  The state stays unnormalized, so its squared norm is
  the survival probability.  It runs in the closed-form eigenbasis of
  the open chain, where a step is one phase per mode and the projection
  a rank-one update: O(L) per step, no matrix.
* ``renewal_amplitudes`` computes first-detection amplitudes from the
  recursion that subtracts, from the free transition amplitude, every
  earlier first-arrival propagated back to the detector.  It is the
  independent cross-check for the projected route and keeps the dense
  cached step matrix (O(n_max L^2)).
* ``nh_survival_series`` replaces projection by a dissipative generator
  and reads survival off the decaying norm.  It applies the single-step
  contraction through its band, b the band half-width (14 to 30 sites
  for tau from 0.05 to 1), and only on the active window of w blocks of
  b sites that the light cone has reached: O(w b) per step, plus one
  O(L) dot product for the norm.  The window grows by one block per
  side and step, and a newly reached block whose norm is at or below
  eps^2 times the state's is dropped.  The band is built once per run
  straight from the generator's diagonals, by applying the exponential
  to a block of probe vectors: no L x L matrix and no dense exponential.
  The generators differ from the free chain only at the detector, so
  the probes run on feature segments alone (each chain end and the
  detector, reaching 2B past it, B the probe half-width) plus one free
  segment whose centre row is the bulk row; every block row away from
  the features is that one bulk block.  The probes cost O(B^2) work
  instead of O(L B), and memory stays O(L b), the band itself.  Both
  models have real hops and imaginary entries on even diagonals only,
  so in the gauge D = diag(i^x) band and state are real: float64, half
  the memory of complex, with the same norms.

No matrix powers are stored.  Measurements happen at t = tau, 2 tau,
...; there is no measurement at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundaryContaminationError
from .lattice import (
    LatticeSpec,
    ModelKind,
    hamiltonian_diagonals,
    initial_state,
    step_propagator,
)

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
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
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


def _mode_row(L: int, site: int) -> np.ndarray:
    """Amplitudes sqrt(2/(L+1)) sin(pi site k/(L+1)) of open-chain modes k = 1..L on ``site``."""
    k = np.arange(1, L + 1)
    # Reduce site * k mod 2(L+1) in integers, so the sine argument stays below 2 pi.
    return np.sqrt(2.0 / (L + 1)) * np.sin(np.pi * ((site * k) % (2 * (L + 1))) / (L + 1))


def measured_evolution(
    spec: LatticeSpec, tau: float, n_max: int, bulk_guard: bool = True
) -> DetectionSeries:
    """Projected dynamics: unitary step, record detector amplitude, zero it.

    The state is held in the eigenbasis of the open chain, whose modes k
    have energies ``2 cos(pi k/(L+1))``.  A step multiplies mode k by
    ``exp(-i tau E_k)``; the detector amplitude is the dot product with
    the detector's mode row ``v``, and zeroing it subtracts ``amp v``.
    The detection probability of step ``n`` is ``|amp|^2``; the survival
    is the squared norm of the unnormalized survivor.  ``bulk_guard=False``
    permits runs whose ballistic front reaches the boundary (small
    chains, reflection studies).
    """
    _check_run_args(tau, n_max)
    if bulk_guard:
        _check_bulk_window(spec, tau, n_max)
    L = spec.L
    phases = np.exp(-2j * tau * np.cos(np.pi * np.arange(1, L + 1) / (L + 1)))
    v = _mode_row(L, spec.detector_index).astype(np.complex128)
    phi = _mode_row(L, spec.initial_index).astype(np.complex128)
    p = np.empty(n_max)
    surv = np.empty(n_max)
    for k in range(n_max):
        phi *= phases
        amp = v @ phi
        p[k] = amp.real**2 + amp.imag**2
        phi -= amp * v
        surv[k] = np.vdot(phi, phi).real
    return DetectionSeries(tau=tau, p=p, P=surv, Pdet=np.cumsum(p))


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
    v = initial_state(spec)
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


def _abs_row_sums(diagonals: dict[int, np.ndarray], L: int) -> np.ndarray:
    """Row sums of |M| for the matrix M with the given diagonals."""
    sums = np.zeros(L)
    for k, d in diagonals.items():
        sums[max(0, -k) : L - max(0, k)] += np.abs(d)
    return sums


def _probe_half_width(a: dict[int, np.ndarray], L: int) -> int:
    """Distance B from which no entry of ``e^A`` can exceed ``BAND_CUTOFF``.

    ``A = D (-i tau H) D*`` (D = diag(i^x)) is given by its real diagonals,
    H symmetric.  No diagonal entry of H has a positive imaginary part, so
    A's diagonal only contracts and ``|e^A| <= e^{|N|}`` entrywise, with N
    the off-diagonal part of A.  Entry (i, j) of ``|N|^k`` is at most x^k,
    with x the largest row sum of |N|, and vanishes unless a walk of k hops
    joins j to i; the shortest one uses each bond at most once, so
    ``k >= |i-j| - S``, where S counts the sites that bonds longer than
    one skip.  Hence ``|[e^A]_ij| <= sum_{k >= |i-j| - S} x^k / k!``.
    """
    x = _abs_row_sums({k: d for k, d in a.items() if k}, L).max()
    skipped = sum((k - 1) * np.count_nonzero(d) for k, d in a.items() if k > 1)
    # Smallest h whose tail is at most 2 x^h / h! <= BAND_CUTOFF; the
    # factor 2 holds once successive terms shrink by half (h + 1 >= 2x).
    h, term = 0, 1.0
    while h + 1 < 2 * x or 2 * term > BAND_CUTOFF:
        h += 1
        term *= x / h
    return h + skipped


def _gauge_diagonals(spec: LatticeSpec, kind: ModelKind, tau: float) -> dict[int, np.ndarray]:
    """Diagonals of ``A = D (-i tau H) D*``, D = diag(i^x), as float64 arrays.

    Diagonal k of ``-i tau H`` picks up the phase ``(-i)^k``; an entry
    that stays complex (an imaginary hop, say) raises.
    """
    a = {}
    for k, d in hamiltonian_diagonals(spec, kind, tau).items():
        # (-i)^k from a table: a float power would round the zero parts.
        g = -1j * tau * d * (1, -1j, -1, 1j)[k % 4]
        if np.any(g.imag):
            raise ValueError(f"{kind.value}: diagonal {k} is not real in the gauge diag(i^x)")
        # A copy: the view g.real would keep the complex array alive.
        a[k] = g.real.copy()
    return a


def _probe_block(a: dict[int, np.ndarray], L: int, P: int) -> np.ndarray:
    """``e^A`` applied to the L x P probe block: row i holds a 1 in column i mod P.

    Scaled Taylor stages on the diagonals of A, O(L P) work per term.
    """
    norm = _abs_row_sums(a, L).max()
    # Stages of norm at most 4: at this tolerance fewer, longer stages cost
    # fewer terms in all, and the largest term, 4^4/4! ~ 11, costs at most
    # one digit to cancellation.
    stages = max(1, int(np.ceil(norm / 4)))
    # Each diagonal as (rows, cols, entries) over the span of its nonzero
    # entries: the model-specific diagonals hold one or two.
    slabs = []
    for k, d in a.items():
        nz = np.flatnonzero(d)
        if len(nz):
            lo, hi, r0, c0 = nz[0], nz[-1] + 1, max(0, -k), max(0, k)
            rows, cols = slice(r0 + lo, r0 + hi), slice(c0 + lo, c0 + hi)
            slabs.append((rows, cols, d[lo:hi, None] / stages))
    site = np.arange(L)
    f = np.zeros((L, P))
    f[site, site % P] = 1.0
    tol = BAND_CUTOFF * np.finfo(np.float64).eps
    for _ in range(stages):
        term, n = f, 0
        # Term n has its largest entry at most (norm / stages) / n times
        # that of term n - 1.  Stop at a term below tol once that ratio is
        # at most 1/2, so the dropped tail stays below tol as well.
        while n + 1 < 2 * norm / stages or np.abs(term).max() > tol:
            n += 1
            nxt = np.zeros_like(term)
            for rows, cols, d in slabs:
                nxt[rows] += (d / n) * term[cols]
            term = nxt
            f += term
    return f


def _feature_chain(
    spec: LatticeSpec, tau: float, a: dict[int, np.ndarray], B: int
) -> tuple[list[int], list[tuple[int, int]], dict[int, np.ndarray]] | None:
    """Features, segments and diagonals of the reduced chain, or None if it is no shorter.

    A feature is a chain end or a row where A differs from the free
    chain's.  Each feature's segment reaches 2B past it, clipped to the
    chain; overlapping or touching segments merge.  The reduced chain
    is the segments end to end, then a free segment of 2B + 3 sites,
    with zero couplings at the joins.
    """
    L = spec.L
    free = _gauge_diagonals(spec, ModelKind.EXACT, tau)
    features = {0, L - 1}
    for k in a.keys() | free.keys():
        features.update((np.flatnonzero(a.get(k, 0.0) != free.get(k, 0.0)) + max(0, -k)).tolist())
    features = sorted(features)
    segments = []
    for x in features:
        lo, hi = max(0, x - 2 * B), min(L, x + 2 * B + 1)
        if segments and lo <= segments[-1][1]:
            segments[-1] = (segments[-1][0], hi)
        else:
            segments.append((lo, hi))
    if sum(hi - lo for lo, hi in segments) + 2 * B + 3 >= L:
        return None
    pieces = [(a, lo, hi) for lo, hi in segments] + [(free, 0, 2 * B + 3)]
    chain = {}
    for k in a:
        parts = []
        for src, lo, hi in pieces:
            d = src.get(k)
            parts.append(d[lo : hi - abs(k)] if d is not None else np.zeros(hi - lo - abs(k)))
            parts.append(np.zeros(abs(k)))
        chain[k] = np.concatenate(parts[:-1])
    return features, segments, chain


def _step_band(spec: LatticeSpec, kind: ModelKind, tau: float) -> np.ndarray:
    """Band of the step, as the block rows of a block-tridiagonal matrix, in float64.

    The step is taken in the gauge D = diag(i^x), as ``e^A`` with A real
    (:func:`_gauge_diagonals`).  The half-width b is the largest
    ``|i - j|`` of an entry above ``BAND_CUTOFF``; every entry farther out
    is dropped.  With blocks of b sites, block row k holds rows ``k b ..
    k b + b - 1`` against columns ``(k - 1) b .. (k + 2) b - 1``, zero
    past the chain ends, so the product with a state zero-padded by one
    block on each side is one stacked ``(n_blocks, b, 3 b) @ (n_blocks,
    3 b, 1)`` matmul.

    The entries come from probing: columns whose indices agree mod
    ``P = 2 B + 1`` share a probe vector, with B from
    :func:`_probe_half_width`, so one application of the exponential to
    a block of P probe columns gives every entry with ``|i - j| <= B``.
    The other columns of its probe lie more than B away, where the bound
    holds each entry below the cutoff, so they shift it by about eps^2 at
    most.  (A chain with ``L <= 2 B + 1`` gives each column its own
    probe.)  An entry above the cutoff at distance B means the bound
    failed, and raises.

    Only rows within B of a feature (a chain end, or a row where A
    differs from the free chain's) can differ from the bulk row, so the
    probes run on a reduced chain (:func:`_feature_chain`): each
    feature's segment reaching 2B past it, and one free segment of
    2B + 3 sites whose centre row is the bulk row, about 10 B rows
    instead of L.  A row within B of a feature is read from its segment,
    whose cut ends lie at least B away; every other row is the bulk row,
    and a block row holding only such rows is one shared block.  The
    probes cost O(B^2) work instead of O(L B).  When the reduced chain
    would be no shorter, the chain itself is probed.
    """
    L = spec.L
    a = _gauge_diagonals(spec, kind, tau)
    B = _probe_half_width(a, L)
    P = min(2 * B + 1, L)
    # The reduced chain holds two end segments and the free one: 6B + 5 rows at least.
    reduced = _feature_chain(spec, tau, a, B) if L > 6 * B + 5 else None
    if reduced is None:
        # Every row is read in place from the probed chain itself.
        f = _probe_block(a, L, P)
        near, centre = np.ones(L, dtype=bool), None
        distinct = np.arange(L)

        def to_chain(r):
            return r

    else:
        features, segments, chain = reduced
        n = sum(hi - lo for lo, hi in segments) + 2 * B + 3
        f = _probe_block(chain, n, P)
        near = np.zeros(L, dtype=bool)
        for x in features:
            near[max(0, x - B) : x + B + 1] = True
        starts = np.array([lo for lo, _ in segments])
        # Row r of segment s is row r + shifts[s] of the reduced chain.
        shifts = np.cumsum([0] + [hi - lo for lo, hi in segments[:-1]]) - starts
        centre = n - (B + 2)

        def to_chain(r):
            seg = np.searchsorted(starts, r, side="right") - 1
            return np.where(near[r], r + shifts[seg], centre)

        # The distinct band rows: those near a feature and one bulk row, here
        # the first row past the first segment, 2B or more from every feature.
        distinct = np.append(np.flatnonzero(near), segments[0][1])
    mapped = to_chain(distinct)
    # Column c of the probed block holds, on row i, the entry of the
    # column j = c mod P with |i - j| <= B: offset j - i = (c - i + B) mod P - B.
    c = np.arange(P)[None, :]
    offset = (c - mapped[:, None] + B) % P - B if P < L else c - mapped[:, None]
    j = distinct[:, None] + offset
    above = (j >= 0) & (j < L) & (np.abs(f[mapped]) > BAND_CUTOFF)
    b = max(1, int(np.max(np.abs(offset[above]), initial=0)))
    if P < L and b >= B:
        raise RuntimeError(
            f"{kind.value} step at L={L}, tau={tau}: an entry above the cutoff "
            f"lies {b} sites off the diagonal, at the probe half-width {B}"
        )
    n_blocks = -(-L // b)
    # Offsets col - row across one block row.
    o = np.arange(3 * b)[None, :] - b - np.arange(b)[:, None]
    band = np.empty((n_blocks, b, 3 * b))
    if centre is not None:
        band[:] = np.where(np.abs(o) <= b, f[centre, (centre + o) % P], 0.0)
    # Block rows holding a row near a feature are gathered row by row.
    gathered = np.flatnonzero(np.logical_or.reduceat(near, np.arange(0, L, b)))
    rows = gathered[:, None, None] * b + np.arange(b)[:, None]
    cols = rows + o
    keep = (rows < L) & (cols >= 0) & (cols < L) & (np.abs(o) <= b)
    r = to_chain(np.minimum(rows, L - 1))
    band[gathered] = np.where(keep, f[r, (r + o) % P], 0.0)
    return band


def nh_survival_series(
    spec: LatticeSpec,
    kind: ModelKind,
    tau: float,
    n_max: int,
    bulk_guard: bool = True,
) -> DetectionSeries:
    """Survival under a dissipative generator, read off the decaying norm.

    P_n is the squared norm after n applications of the single-step
    contraction; p_n and Pdet_n follow from the same bookkeeping as the
    projected engine.  Each application goes through the band of the
    step (:func:`_step_band`, built once per run from the generator's
    diagonals), in the gauge where it and the initial state are real; a
    diagonal unitary changes no norm.  The entries beyond the band are
    each at most ``BAND_CUTOFF`` = eps^2, far below the rounding error of
    a step.  No dense step matrix is built, so memory stays O(L b) at any
    chain length.

    Only the block rows of the light cone are stepped.  The state lives
    on a contiguous range of w blocks, starting at the initial site's
    block.  The band reaches at most b sites, so a step can only reach
    one more block on each side (clipped to the chain); such a block
    joins the range unless its norm is at or below ``BAND_CUTOFF *
    sqrt(P_{n-1})``, the band's own eps^2 rule applied to the state, in
    which case it is dropped and stays zero.  The step is a contraction,
    so the dropped amplitudes shift P_n by at most about
    ``4 n eps^2 sqrt(P_n)`` (8e-28 after 4000 steps).  A step costs
    O(w b), plus one dot product over all L sites for the norm, and no
    work or subnormal arithmetic is spent on the blocks the front has
    not reached.
    """
    if kind is ModelKind.EXACT:
        raise ValueError("kind must be one of the dissipative models")
    _check_run_args(tau, n_max)
    if bulk_guard:
        _check_bulk_window(spec, tau, n_max)
    blocks = _step_band(spec, kind, tau)
    n_blocks, b, _ = blocks.shape
    # The state zero-padded by one block on each side; window k is what
    # block row k multiplies, and state block k sits at padded[(k + 1) b:].
    padded = np.zeros((n_blocks + 2) * b)
    padded[b + spec.initial_index - 1] = 1.0
    windows = sliding_window_view(padded, 3 * b)[::b, :, None]
    # The norm is summed over the whole chain, zeros included, so its
    # rounding does not depend on where the window stands.
    state = padded[b:-b]
    phi = np.empty((n_blocks, b, 1))
    lo = (spec.initial_index - 1) // b
    hi = lo + 1
    p = np.empty(n_max)
    surv = np.empty(n_max)
    prev = 1.0
    for k in range(n_max):
        start, stop = max(lo - 1, 0), min(hi + 1, n_blocks)
        np.matmul(blocks[start:stop], windows[start:stop], out=phi[start:stop])
        # A block the step has just reached joins the range unless its mass
        # is at most eps^4 P_{n-1}; if not, padded still holds zeros there.
        floor = BAND_CUTOFF**2 * prev
        if start < lo and np.dot(phi[start, :, 0], phi[start, :, 0]) > floor:
            lo = start
        if stop > hi and np.dot(phi[stop - 1, :, 0], phi[stop - 1, :, 0]) > floor:
            hi = stop
        padded[(lo + 1) * b : (hi + 1) * b] = phi[lo:hi].ravel()
        pk = np.dot(state, state)
        surv[k] = pk
        p[k] = prev - pk
        prev = pk
    return DetectionSeries(tau=tau, p=p, P=surv, Pdet=1.0 - surv)
