"""Survival timescales and the restart-period objective of the dissipative descriptions.

The dissipative descriptions compress a restart window of ``t_r = r tau``
into a single decay weight ``alpha = -ln P_r``, read off the surviving
norm of a stepped dissipative series.  The restarted survival then falls
as ``e^{-alpha R}`` across windows, one number per window.  Like the
routines of ``qreset.restart``, every statistic here reads a
``DetectionSeries`` an engine has already made, and a count ``r``, and
runs no engine: ``alpha`` extracts the decay weight, and
``optimal_tr_nh`` evaluates ``-alpha / t_r`` over restart periods of one
series, the objective the ``optimal-tr`` recipe minimizes.  The exact
counterpart of the scan is the ``mfdt-sweep`` recipe, which evaluates
``qreset.restart.mfdt`` on one projective run; the per-window gap
between a dissipative engine's restarted curve and the projective one
is taken by the ``delta-pr`` recipe.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dynamics import DetectionSeries
from .errors import InstantAbsorptionError, QresetError
from .restart import _check_window

# Unused here, but perfbench/tracing.py:137-140 wraps these four names on
# this module: propagator, build_hamiltonian, measured_evolution and mfdt.
from .dynamics import measured_evolution  # noqa: F401
from .lattice import build_hamiltonian, propagator  # noqa: F401
from .restart import mfdt  # noqa: F401

__all__ = [
    "alpha",
    "survival_prediction",
    "optimal_tr_nh",
]


def alpha(base: DetectionSeries, r: int) -> float:
    """Decay weight ``-ln P_r`` of a restart window of ``r`` measurements.

    ``P_r`` is entry ``r`` of ``base``, the window survival over ``t_r =
    r tau``; the survival timescale is ``t_r / alpha``.  A survival above
    one signals a numerically broken propagation; one at or below zero
    means the window absorbs everything, where the log diverges and the
    restart protocol degenerates.
    """
    _check_window(base, r)
    survival, t_r = float(base.P[r - 1]), r * base.tau
    if survival > 1.0 + 1e-10:
        raise QresetError(f"propagation produced norm {survival} > 1 at t_r={t_r}")
    if survival <= 0.0:
        raise InstantAbsorptionError(
            f"window survival vanished at t_r={t_r}; decay weight diverges"
        )
    return -math.log(survival)


def survival_prediction(alpha_value: float, t_r: float, times: np.ndarray) -> np.ndarray:
    """Predicted restarted survival ``e^{-alpha T / t_r}`` at the given times."""
    if t_r <= 0:
        raise ValueError(f"restart time must be positive, got {t_r}")
    times = np.asarray(times, dtype=np.float64)
    return np.exp(-alpha_value * times / t_r)


def optimal_tr_nh(base: DetectionSeries, r_grid: Sequence[int]) -> np.ndarray:
    """The objective ``-alpha / t_r`` at each restart period of a grid.

    Minimizing ``-alpha / t_r`` maximizes the decay per unit time, the
    dissipative stand-in for minimizing the mean detection time.  Every
    period is read off the one series ``base``, which must reach the
    longest; ``t_r = r tau`` is the window length, the restart time over
    which the ``mfdt-sweep`` recipe evaluates the exact mean with
    :func:`qreset.restart.mfdt`.  Periods whose window absorbs everything
    keep a NaN objective (their mean detection time is not improved by
    information the model no longer carries); a grid of only such
    periods raises.
    """
    r_values = [int(r) for r in r_grid]
    if not r_values:
        raise ValueError("restart-period grid is empty")
    objective = np.full(len(r_values), np.nan)
    for i, r in enumerate(r_values):
        try:
            objective[i] = -alpha(base, r) / (r * base.tau)
        except InstantAbsorptionError:
            continue
    if np.all(np.isnan(objective)):
        raise InstantAbsorptionError(
            "every grid point fully absorbs within one window"
        )
    return objective
