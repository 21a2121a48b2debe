"""Sharp-restart statistics built on top of a no-restart detection series.

The protocol resets the system to its initial state every ``r``
measurements, conditional on non-detection.  Writing a measurement index
as ``n = r R + ntilde`` with ``R = (n-1) // r`` completed windows and
``ntilde = 1 + (n-1) % r`` inside the current one, everything factorizes
over windows:

* first-detection PMF   ``p_n^(r) = q^R p_ntilde``  with ``q = P_r``,
* survival trajectory   ``P(n tau) = P_ntilde * P_r^R``.

The measurement at ``ntilde = r`` happens first and counts toward
detection; only the undetected remainder is then reset.  The window
survival is applied as a scalar factor rather than by propagating
subnormalized states, which avoids underflow at large ``R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DetectionSeries
from .errors import NeverDetectedError

__all__ = [
    "RestartSpec",
    "RestartResult",
    "restart_pmf",
    "mfdt",
    "mfdt_direct",
    "reset_survival",
    "reset_pdet",
    "build_reset_heff",
    "run_restart",
]


@dataclass(frozen=True)
class RestartSpec:
    """Restart period: ``r`` measurements of length ``tau`` each."""

    r: int
    tau: float

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"restart period must be at least 1, got r={self.r}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @classmethod
    def from_time(cls, t_r: float, tau: float) -> "RestartSpec":
        """Period whose window lasts ``t_r``, which must sit on the tau grid."""
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        ratio = t_r / tau
        r = round(ratio) if math.isfinite(ratio) else 0
        if r < 1 or abs(ratio - r) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"t_r={t_r:g} is not a positive integer multiple of tau={tau:g}"
            )
        return cls(r=r, tau=tau)

    @property
    def t_r(self) -> float:
        return self.r * self.tau


@dataclass
class RestartResult:
    """Everything a restarted run produces for one (base series, r) pair."""

    spec: RestartSpec
    pmf: np.ndarray
    mfdt: float
    pdet_window: float
    survival_trajectory: np.ndarray


def _window_split(n_max: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, index of ntilde) for n = 1..n_max."""
    n = np.arange(n_max)
    return n // r, n % r


def _check_window(base: DetectionSeries, r: int) -> None:
    if r < 1:
        raise ValueError(f"restart period must be at least 1, got r={r}")
    if r > base.n_max:
        raise ValueError(
            f"restart period r={r} exceeds the base series length {base.n_max}"
        )


def restart_pmf(base: DetectionSeries, r: int, n_max: int) -> np.ndarray:
    """Restarted first-detection PMF from the first ``r`` entries of ``base``."""
    _check_window(base, r)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    # q = P_r, the probability the whole window passes undetected
    q = base.P[r - 1]
    windows, offsets = _window_split(n_max, r)
    return q**windows.astype(np.float64) * base.p[offsets]


def mfdt(base: DetectionSeries, r: int, tau: float) -> float:
    """Mean first-detection time under restart every ``r`` measurements.

    Closed form, no truncation:

        r tau (1 - Pdet(r)) / Pdet(r) + sum_ntilde ntilde tau p_ntilde / Pdet(r).

    The window survival is taken from ``P_r`` directly.  Every engine
    computes ``P_r`` as a squared state norm, so it keeps its relative
    accuracy at tiny survival, where ``1 - Pdet(r)`` would cancel to
    rounding noise.
    """
    _check_window(base, r)
    pdet_r = base.Pdet[r - 1]
    if pdet_r <= 0:
        raise NeverDetectedError(
            f"no detection probability in a window of r={r} measurements"
        )
    q = base.P[r - 1]
    in_window = tau * np.dot(np.arange(1, r + 1), base.p[:r])
    return r * tau * q / pdet_r + in_window / pdet_r


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


def reset_survival(base: DetectionSeries, r: int, n_max: int) -> np.ndarray:
    """Survival probability at t = n tau, n = 1..n_max, under restart."""
    _check_window(base, r)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    q = base.P[r - 1]
    windows, offsets = _window_split(n_max, r)
    return base.P[offsets] * q**windows.astype(np.float64)


def reset_pdet(base: DetectionSeries, r: int, n_max: int) -> np.ndarray:
    """Integrated detection probability under restart, 1 - reset survival."""
    return 1.0 - reset_survival(base, r, n_max)


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


def run_restart(base: DetectionSeries, r: int, n_max: int) -> RestartResult:
    """Bundle PMF, MFDT, window detection and trajectory for one period."""
    spec = RestartSpec(r=r, tau=base.tau)
    return RestartResult(
        spec=spec,
        pmf=restart_pmf(base, r, n_max),
        mfdt=mfdt(base, r, base.tau),
        pdet_window=float(base.Pdet[r - 1]),
        survival_trajectory=reset_survival(base, r, n_max),
    )
