"""Shared test oracles, and the routines that no CLI recipe runs.

The Taylor-series exponential here is deliberately naive: it is the
independent check for the production propagators, so it must not share
any code path with them.  ``band_blocks`` cuts a dense step matrix to
the block layout of the engines' band, the reference for the band they
build without one; ``block_rows`` expands the engine's bulk block and
every slab to that layout, and ``full_chain_band`` builds it by
probing every row of the chain, the reference the engine's build, a
probe of the defect's segment and closed-form rows elsewhere, must
match to rounding.
The restart oracles ``restart_pmf``, ``mfdt_direct`` and
``build_reset_heff`` (moved here from ``qreset.restart``, which no
longer exports them) give the restarted PMF index by index, check the
closed-form mean detection time against a truncated sum, and the scalar
window factorization against its operator-level form.  ``dense_step``
keeps every dense step matrix a test builds for the whole session;
``real_dense_step`` is any kind's step in the real gauge,
which ``dense_step`` conjugates back for a dissipative kind.  ``initial_state`` is the unit
vector on the initial site, and ``series_from_pmf`` builds a detection
series from a bare PMF.
``fit_exponential`` and ``optimal_tr_exact`` (moved here from
``qreset.analysis``) fit a survival timescale and scan restart periods
for the least exact mean detection time, as the acceptance criteria do;
the ``mfdt-sweep`` recipe is the CLI's route to the same scan.
``bessel_renewal`` gives the first-detection amplitudes of the infinite
chain from closed-form Bessel amplitudes, accurate in relative terms
before the front arrives, where the renewal recursion's dense step has
an absolute floor.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from qreset import (
    DetectionSeries,
    LatticeSpec,
    ModelKind,
    NeverDetectedError,
    OptimalTr,
    dynamics,
    lattice,
    mfdt,
)
from qreset.dynamics import BAND_CUTOFF
from qreset.restart import _check_window


# The library's step cache keeps one matrix per model kind, so tests that
# share a geometry but interleave with others would rebuild it; this one
# keeps each (spec, kind, tau) it sees.  The matrices are read-only, so
# every test can be handed the same one.
@functools.cache
def dense_step(spec: LatticeSpec, kind: ModelKind, tau: float) -> np.ndarray:
    """Dense single-step propagator ``e^{-i tau H}``, read-only.

    ``EXACT`` goes through the library's spectral route.  A dissipative
    kind is exponentiated in the gauge D = diag(i^x), where
    ``A = D (-i tau H) D*`` is real: the Pade route on the float64 matrix
    costs about a third of the complex one, and ``D* e^A D`` is the same
    step to rounding.
    """
    if kind is ModelKind.EXACT:
        return lattice.step_propagator.__wrapped__(spec, kind, tau)
    gauge = _gauge(spec.L)
    u = gauge.conj()[:, None] * real_dense_step(spec, kind, tau) * gauge
    u.flags.writeable = False
    return u


def _gauge(L: int) -> np.ndarray:
    """The diagonal of D = diag(i^x), exact phases from a table."""
    return np.array([1, 1j, -1, -1j])[np.arange(L) % 4]


def real_dense_step(spec: LatticeSpec, kind: ModelKind, tau: float) -> np.ndarray:
    """The real step ``e^A``, ``A = D (-i tau H) D*``, of any kind.

    D is diagonal with unit phases, so it changes no norm: a loop of real
    unit vectors under ``e^A`` gives the survival of the complex step.
    """
    gauge = _gauge(spec.L)
    # The phases i^(x - y) cancel the imaginary parts to exactly 0.
    a = gauge[:, None] * (-1j * tau * lattice.build_hamiltonian(spec, kind, tau)) * gauge.conj()
    assert not np.any(a.imag)
    return lattice._expm(a.real)


def initial_state(spec: LatticeSpec) -> np.ndarray:
    """Unit amplitude on the initial site, zero elsewhere."""
    psi = np.zeros(spec.L, dtype=np.complex128)
    psi[spec.initial_index - 1] = 1.0
    return psi


def series_from_pmf(tau: float, p: np.ndarray) -> DetectionSeries:
    """A detection series from a bare first-detection PMF."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a non-empty 1-d array")
    if np.any(p < 0):
        raise ValueError("detection probabilities must be non-negative")
    pdet = np.cumsum(p)
    if pdet[-1] > 1 + 1e-10:
        raise ValueError(f"PMF sums to {pdet[-1]}, above 1")
    return DetectionSeries(tau=tau, p=p, P=1.0 - pdet, Pdet=pdet)


def taylor_expm(matrix: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """e^{-i*matrix*t} summed term by term: sum_k (-i*matrix*t)^k / k!."""
    a = -1j * t * np.asarray(matrix, dtype=np.complex128)
    result = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ a / k
        result = result + term
    return result


def band_blocks(a: np.ndarray) -> np.ndarray:
    """``a`` restricted to its band, as the block rows of a block-tridiagonal matrix.

    The half-width b is the largest ``|i - j|`` of an entry above
    ``BAND_CUTOFF``; every entry farther out is dropped.  With blocks of b
    sites, block row k holds rows ``k b .. k b + b - 1`` against columns
    ``(k - 1) b .. (k + 2) b - 1``, zero past the chain ends.
    """
    L = a.shape[0]
    i, j = np.nonzero(np.abs(a) > BAND_CUTOFF)
    b = max(1, int(np.max(np.abs(i - j), initial=0)))
    n_blocks = -(-L // b)
    rows = np.arange(n_blocks)[:, None, None] * b + np.arange(b)[None, :, None]
    cols = (np.arange(n_blocks)[:, None, None] - 1) * b + np.arange(3 * b)[None, None, :]
    inside = (rows < L) & (cols >= 0) & (cols < L) & (np.abs(rows - cols) <= b)
    entries = a[np.minimum(rows, L - 1), np.clip(cols, 0, L - 1)]
    return np.where(inside, entries, 0.0)


def block_rows(bulk: np.ndarray, runs: list, L: int) -> np.ndarray:
    """``dynamics._step_band``'s bulk block and slabs in the layout of ``band_blocks``.

    Every block row is the bulk block except those of a run, which are
    cut from its slab.  Raises if a slab holds an entry outside the
    windows of its block rows, which the expansion would drop.
    """
    b = len(bulk)
    blocks = np.repeat(bulk[None], -(-L // b), axis=0)
    for k0, slab in runs:
        m = len(slab) // b
        assert slab.shape == (m * b, (m + 2) * b)
        outside = slab.copy()
        for i in range(m):
            blocks[k0 + i] = slab[i * b : (i + 1) * b, i * b : (i + 3) * b]
            outside[i * b : (i + 1) * b, i * b : (i + 3) * b] = 0.0
        assert not outside.any()
    return blocks


def _abs_row_sums(diagonals: dict[int, np.ndarray], L: int) -> np.ndarray:
    """Row sums of |M| for the matrix M with the given diagonals."""
    sums = np.zeros(L)
    for k, d in diagonals.items():
        sums[max(0, -k) : L - max(0, k)] += np.abs(d)
    return sums


def _full_chain_half_width(a: dict[int, np.ndarray], L: int) -> int:
    """The probe half-width B of ``dynamics._probe_half_width``, from whole diagonals.

    x is the largest row sum of the off-diagonal part of |A|, S the
    sites that bonds longer than one skip, and B the smallest h past
    which the bound ``sum_{k >= h} x^k / k!`` stays below the cutoff, plus S.
    """
    x = _abs_row_sums({k: d for k, d in a.items() if k}, L).max()
    skipped = sum((k - 1) * np.count_nonzero(d) for k, d in a.items() if k > 1)
    h, term = 0, 1.0
    while h + 1 < 2 * x or 2 * term > BAND_CUTOFF:
        h += 1
        term *= x / h
    return h + skipped


def full_chain_band(spec: lattice.LatticeSpec, kind: lattice.ModelKind, tau: float) -> np.ndarray:
    """The dissipative step's band, probed over all L rows of the chain.

    The independent reference for ``dynamics._step_band``: the same
    probe columns (indices that agree mod 2B + 1 share one), applied to
    the whole L x (2B+1) probe block by scaled Taylor stages written
    diagonal by diagonal, each diagonal a slab over its nonzero span
    scaled and added into the next term.  The library instead takes the
    free hops as one difference and overwrites the defect's rows, on its
    segment only, so the two agree to rounding, not bit for bit.  The
    generator's diagonals are the unit-hop chain's with the detector
    defect written in, each taken whole to the gauge D = diag(i^x); B
    comes from them and must be the library's.
    """
    L = spec.L
    defect = lattice.detector_defect(spec, kind, tau)
    a = {}
    for k in sorted({-1, 1} | {j - i for i, j in defect}):
        d = np.full(L - abs(k), 1.0 if abs(k) == 1 else 0.0, dtype=np.complex128)
        for (i, j), h in defect.items():
            if j - i == k:
                d[min(i, j)] = h
        g = -1j * tau * d * (1, -1j, -1, 1j)[k % 4]
        assert not np.any(g.imag)
        a[k] = g.real
    site = np.arange(L)
    B = _full_chain_half_width(a, L)
    assert B == dynamics._probe_half_width(dynamics._gauge_defect(spec, kind, tau), tau, L)
    P = min(2 * B + 1, L)
    if P < L:
        offset = (np.arange(P)[None, :] - site[:, None] + B) % P - B
    else:
        offset = site[None, :] - site[:, None]
    norm = _abs_row_sums(a, L).max()
    stages = max(1, int(np.ceil(norm / 4)))
    slabs = []
    for k, d in a.items():
        nz = np.flatnonzero(d)
        if len(nz):
            lo, hi, r0, c0 = nz[0], nz[-1] + 1, max(0, -k), max(0, k)
            rows, cols = slice(r0 + lo, r0 + hi), slice(c0 + lo, c0 + hi)
            slabs.append((rows, cols, d[lo:hi, None] / stages))
    f = np.zeros((L, P))
    f[site, site % P] = 1.0
    tol = BAND_CUTOFF * np.finfo(np.float64).eps
    for _ in range(stages):
        term, n = f, 0
        while n + 1 < 2 * norm / stages or np.abs(term).max() > tol:
            n += 1
            nxt = np.zeros_like(term)
            for rows, cols, d in slabs:
                nxt[rows] += (d / n) * term[cols]
            term = nxt
            f += term
    j = site[:, None] + offset
    above = (j >= 0) & (j < L) & (np.abs(f) > BAND_CUTOFF)
    b = max(1, int(np.max(np.abs(offset[above]), initial=0)))
    assert P == L or b < B
    n_blocks = -(-L // b)
    rows = np.arange(n_blocks)[:, None, None] * b + np.arange(b)[None, :, None]
    cols = (np.arange(n_blocks)[:, None, None] - 1) * b + np.arange(3 * b)[None, None, :]
    keep = (rows < L) & (cols >= 0) & (cols < L) & (np.abs(rows - cols) <= b)
    entries = f[np.minimum(rows, L - 1), np.clip(cols, 0, L - 1) % P]
    return np.where(keep, entries, 0.0)


def restart_pmf(base: DetectionSeries, r: int, n_max: int) -> np.ndarray:
    """Restarted first-detection PMF ``p_n^(r) = q^R p_ntilde``, n = 1..n_max.

    Written index by index, with ``R = (n-1) // r``, ``ntilde = 1 +
    (n-1) % r`` and ``q = P_r``, so it shares no code with the window
    synthesis of ``qreset.restart.reset_survival``.
    """
    _check_window(base, r)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    n = np.arange(1, n_max + 1)
    R, ntilde = (n - 1) // r, 1 + (n - 1) % r
    return base.P[r - 1] ** R * base.p[ntilde - 1]


def mfdt_direct(base: DetectionSeries, r: int, tau: float, k_windows: int) -> float:
    """Mean first-detection time as a truncated sum plus its geometric tail.

    Sums n tau p_n^(r) over the first ``k_windows`` windows explicitly and
    adds the analytically summed remainder.  Exists as an independent
    check of the closed form in :func:`mfdt`.
    """
    _check_window(base, r)
    if k_windows < 1:
        raise ValueError(f"k_windows must be at least 1, got {k_windows}")
    pdet_r = base.Pdet[r - 1]
    if pdet_r <= 0:
        raise NeverDetectedError(
            f"no detection probability in a window of r={r} measurements"
        )
    q = base.P[r - 1]
    n_head = k_windows * r
    pmf = restart_pmf(base, r, n_head)
    head = tau * np.dot(np.arange(1, n_head + 1), pmf)
    # Windows R >= k_windows: sum_R q^R [ r R tau Pdet(r) + sum_n ntilde tau p ]
    in_window = tau * np.dot(np.arange(1, r + 1), base.p[:r])
    tail = q**k_windows * (tau * r * (k_windows + q / pdet_r) + in_window / pdet_r)
    return head + tail


def build_reset_heff(
    h0: np.ndarray, alpha: float, R: int, t: float
) -> np.ndarray:
    """Generator whose evolution folds ``R`` completed windows into one step.

    Shifts the dissipative generator by ``-i R alpha / (2 t)`` times the
    identity (the total particle number acts as the identity on
    one-particle amplitudes), so that propagating for ``t`` multiplies
    the survival by ``e^{-alpha R}``.  Provided so the operator-level
    formulation can be validated directly; production code uses the
    scalar factorization.
    """
    h0 = np.asarray(h0)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValueError(f"generator must be square, got shape {h0.shape}")
    if t <= 0:
        raise ValueError(f"window time must be positive, got {t}")
    if R < 0:
        raise ValueError(f"completed-window count must be non-negative, got {R}")
    shift = -1j * R * alpha / (2.0 * t)
    return h0.astype(np.complex128) + shift * np.eye(h0.shape[0])


def optimal_tr_exact(base: DetectionSeries, r_grid: Sequence[int]) -> OptimalTr:
    """Restart period minimizing the projective mean detection time.

    Evaluates the closed-form mean for each candidate on one projective
    run ``base``, which must reach the largest period in the grid.
    Periods with no detection probability at all get an infinite mean.
    """
    r_values = [int(r) for r in r_grid]
    if not r_values:
        raise ValueError("restart-period grid is empty")
    grid_arr = np.asarray([r * base.tau for r in r_values], dtype=np.float64)
    objective = np.empty(grid_arr.size)
    for i, r in enumerate(r_values):
        try:
            objective[i] = mfdt(base, r)
        except NeverDetectedError:
            objective[i] = np.inf
    if np.all(np.isinf(objective)):
        raise NeverDetectedError("no restart period in the grid ever detects")
    best = float(np.min(objective))
    t_star = float(grid_arr[np.nonzero(objective == best)[0][0]])
    return OptimalTr(grid=grid_arr, objective=objective, t_star=t_star)


class FitResult(NamedTuple):
    T_s_fit: float
    residual: float


def fit_exponential(
    trajectory: np.ndarray, times: np.ndarray, window: tuple[float, float]
) -> FitResult:
    """Least-squares exponential timescale of a survival trajectory.

    Fits ``ln P = a - T / T_s`` over the samples whose times fall in the
    closed window.  Needs at least five samples there, all positive; the
    residual is the RMS misfit of the log curve.
    """
    trajectory = np.asarray(trajectory, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if trajectory.shape != times.shape:
        raise ValueError(
            f"trajectory and times disagree in shape: {trajectory.shape} vs {times.shape}"
        )
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"fit window is empty: [{lo}, {hi}]")
    mask = (times >= lo) & (times <= hi)
    if int(mask.sum()) < 5:
        raise ValueError(
            f"fit window [{lo}, {hi}] holds {int(mask.sum())} samples, need at least 5"
        )
    t_w = times[mask]
    p_w = trajectory[mask]
    if np.any(p_w <= 0):
        raise ValueError("survival must stay positive inside the fit window")
    log_p = np.log(p_w)
    slope, intercept = np.polyfit(t_w, log_p, 1)
    if slope >= 0:
        raise ValueError(f"survival does not decay over the window (slope {slope})")
    resid = float(np.sqrt(np.mean((intercept + slope * t_w - log_p) ** 2)))
    return FitResult(T_s_fit=-1.0 / slope, residual=resid)


def bessel_j(d: int, x: np.ndarray) -> np.ndarray:
    """J_0(x)..J_d(x), one row per order, by Miller's backward recurrence.

    The recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts from an even
    order well above d and x and runs down to 0; the result is normalised
    by J_0 + 2 sum_k J_2k = 1.  Cells about to overflow are rescaled.
    """
    x = np.asarray(x, dtype=np.float64)
    top = 2 * (int(max(d, x.max()) + 8 * np.sqrt(x.max()) + 40) // 2)
    j = np.zeros((d + 1, len(x)))
    above, current, norm = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for k in range(top, 0, -1):
        if k % 2 == 0:
            norm += 2 * current
        if k <= d:
            j[k] = current
        above, current = current, 2 * k / x * current - above
        big = np.abs(current) > 1e250
        if big.any():
            scale = np.where(big, 1e-250, 1.0)
            above, current, norm, j = above * scale, current * scale, norm * scale, j * scale
    j[0] = current
    return j / (norm + current)


def bessel_renewal(d: int, tau: float, n: int) -> np.ndarray:
    """First-detection amplitudes phi_1..phi_n on the infinite chain.

    The detector sits d sites from the start.  Renewal recursion of
    Friedman, Kessler & Barkai, PRE 95, 032141 (2017):
    phi_n = T_n - sum_{m<n} R_{n-m} phi_m, with the free amplitudes
    T_n = (-i)^d J_d(2 n tau) and R_k = J_0(2 k tau).  Inside the bulk
    guard a finite chain agrees with it far below rounding.
    """
    j = bessel_j(d, 2 * tau * np.arange(1, n + 1))
    transition, ret = (-1j) ** d * j[d], j[0]
    phi = np.empty(n, dtype=np.complex128)
    for i in range(n):
        phi[i] = transition[i] - np.dot(ret[:i][::-1], phi[:i])
    return phi


# One verdict line per acceptance criterion, echoed at the end of the
# run so they are visible whether or not the individual tests pass.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
