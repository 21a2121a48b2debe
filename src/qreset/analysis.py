"""Survival timescales, optimal restart periods, and engine comparisons.

The dissipative descriptions compress a restart window of ``t_r = r tau``
into a single decay weight ``alpha = -ln P_r``, read off the surviving
norm of a stepped dissipative series.  The restarted survival then falls
as ``e^{-alpha R}`` across windows, one number per window.  Like the
routines of ``qreset.restart``, every statistic here reads a
``DetectionSeries`` an engine has already made, and a count ``r``, and
runs no engine: ``alpha`` extracts the decay weight, ``optimal_tr_nh``
scans restart periods of one series for the one minimizing the mean
detection time (equivalently maximizing ``alpha / t_r``), and
``delta_p_r`` quantifies how far a dissipative engine's restarted curve
drifts from the projective one.  The exact counterpart of the scan is
the ``mfdt-sweep`` recipe, which evaluates ``qreset.restart.mfdt`` on
one projective run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "OptimalTr",
    "alpha",
    "survival_prediction",
    "optimal_tr_nh",
    "delta_p_r",
]


@dataclass(frozen=True)
class OptimalTr:
    """Objective values over a grid of restart times and the minimizer."""

    grid: np.ndarray
    objective: np.ndarray
    t_star: float


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


def optimal_tr_nh(base: DetectionSeries, r_grid: Sequence[int]) -> OptimalTr:
    """Restart period minimizing ``-alpha / t_r`` over a grid of periods.

    Minimizing ``-alpha / t_r`` maximizes the decay per unit time, the
    dissipative stand-in for minimizing the mean detection time.  Every
    period is read off the one series ``base``, which must reach the
    longest.  The result's ``grid`` and ``t_star`` are window lengths
    ``r tau``, the restart times over which the ``mfdt-sweep`` recipe
    evaluates the exact mean with :func:`qreset.restart.mfdt`.  Periods
    whose window absorbs everything keep a NaN objective (their mean
    detection time is not improved by information the model no longer
    carries).  Ties resolve toward the first period of the grid.
    """
    r_values = [int(r) for r in r_grid]
    if not r_values:
        raise ValueError("restart-period grid is empty")
    grid = np.asarray([r * base.tau for r in r_values], dtype=np.float64)
    objective = np.full(grid.size, np.nan)
    for i, r in enumerate(r_values):
        try:
            objective[i] = -alpha(base, r) / grid[i]
        except InstantAbsorptionError:
            continue
    if np.all(np.isnan(objective)):
        raise InstantAbsorptionError(
            "every grid point fully absorbs within one window"
        )
    best = float(np.nanmin(objective))
    t_star = float(grid[np.nonzero(objective == best)[0][0]])
    return OptimalTr(grid=grid, objective=objective, t_star=t_star)


def delta_p_r(
    exact_pdet_reset: np.ndarray,
    eff_pdet_reset: np.ndarray,
    r: int,
    R_max: int,
) -> np.ndarray:
    """Mean absolute detection-probability gap, window by window.

    Both inputs are integrated detection probabilities under the same
    restart protocol, sampled at every measurement.  Window ``R`` covers
    measurements ``rR + 1 .. r(R+1)``; entry ``R - 1`` of the result is
    the mean of the absolute pointwise differences inside it.
    """
    if r < 1:
        raise ValueError(f"restart period must be at least 1, got {r}")
    if R_max < 1:
        raise ValueError(f"window count must be at least 1, got {R_max}")
    exact_arr = np.asarray(exact_pdet_reset, dtype=np.float64)
    eff_arr = np.asarray(eff_pdet_reset, dtype=np.float64)
    if exact_arr.shape != eff_arr.shape:
        raise ValueError(
            f"curves disagree in shape: {exact_arr.shape} vs {eff_arr.shape}"
        )
    needed = r * R_max
    if exact_arr.size < needed:
        raise ValueError(
            f"need {needed} samples for {R_max} windows of {r}, got {exact_arr.size}"
        )
    gaps = np.abs(exact_arr[:needed] - eff_arr[:needed])
    return gaps.reshape(R_max, r).mean(axis=1)
