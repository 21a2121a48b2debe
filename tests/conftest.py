"""Shared test oracles.

The Taylor-series exponential here is deliberately naive: it is the
independent check for the production propagators, so it must not share
any code path with them.  ``band_blocks`` cuts a dense step matrix to
the band layout the dissipative engine steps with, the reference for
the band the engine builds without one.
"""

from __future__ import annotations

import numpy as np

from qreset.dynamics import BAND_CUTOFF


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
