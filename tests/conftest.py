"""Shared test oracles.

The Taylor-series exponential here is deliberately naive: it is the
independent check for the production propagators, so it must not share
any code path with them.  ``band_blocks`` cuts a dense step matrix to
the block layout of the dissipative engine's band, the reference for
the band the engine builds without one; ``block_rows`` expands the
engine's bulk block and feature slabs to that layout, and
``full_chain_band`` builds it by probing every row of the chain, the
reference the engine's feature-segment build must match bit for bit.
The restart oracles ``mfdt_direct`` and ``build_reset_heff`` (moved
here from ``qreset.restart``, which no longer exports them) check the
closed-form mean detection time against a truncated sum, and the scalar
window factorization against its operator-level form.  ``dense_step`` keeps
every dense step matrix a test builds for the whole session, and
``series_from_pmf`` builds a detection series from a bare PMF.
``bessel_renewal`` gives the first-detection amplitudes of the infinite
chain from closed-form Bessel amplitudes, accurate in relative terms
where the engines have an absolute floor.
"""

from __future__ import annotations

import functools

import numpy as np

from qreset import DetectionSeries, NeverDetectedError, lattice, restart_pmf
from qreset.dynamics import BAND_CUTOFF, _abs_row_sums, _probe_half_width
from qreset.restart import _check_window


# The library's step cache keeps one matrix per model kind, so tests that
# share a geometry but interleave with others would rebuild it; this one
# keeps each (spec, kind, tau) it sees.  The matrices are read-only, so
# every test can be handed the same one.
dense_step = functools.cache(lattice.step_propagator.__wrapped__)


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


def block_rows(bulk: np.ndarray, runs: list[tuple[int, np.ndarray]], L: int) -> np.ndarray:
    """``dynamics._step_band``'s bulk block and feature slabs in the layout of ``band_blocks``.

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


def full_chain_band(spec: lattice.LatticeSpec, kind: lattice.ModelKind, tau: float) -> np.ndarray:
    """The dissipative step's band, probed over all L rows of the chain.

    The same probes and Taylor stages as ``dynamics._step_band``, in the
    same floating-point order, applied to the whole L x (2B+1) probe
    block instead of the feature segments and one bulk row.
    """
    L = spec.L
    a = {}
    for k, d in lattice.hamiltonian_diagonals(spec, kind, tau).items():
        g = -1j * tau * d * (1, -1j, -1, 1j)[k % 4]
        assert not np.any(g.imag)
        a[k] = g.real
    site = np.arange(L)
    B = _probe_half_width(a, L)
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
