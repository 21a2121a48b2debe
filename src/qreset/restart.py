"""Sharp-restart statistics built on top of a no-restart detection series.

The protocol resets the system to its initial state every ``r``
measurements, conditional on non-detection, so a window lasts
``t_r = r tau``.  Every routine here, like the decay weight and the
period scan of ``qreset.analysis``, reads a series an engine has already
made (``tau`` included) and the count ``r``, and runs no engine; only the
CLI reads restart times, and turns each into a count before calling in.
Writing a measurement index as ``n = r R + ntilde`` with
``R = (n-1) // r`` completed windows and ``ntilde = 1 + (n-1) % r``
inside the current one, everything factorizes over windows:

* first-detection PMF   ``p_n^(r) = q^R p_ntilde``  with ``q = P_r``,
* survival trajectory   ``P(n tau) = P_ntilde * P_r^R``.

The measurement at ``ntilde = r`` happens first and counts toward
detection; only the undetected remainder is then reset.  The window
survival is applied as a scalar factor rather than by propagating
subnormalized states, which avoids underflow at large ``R``.

The library synthesizes the survival (``reset_survival``, and
``reset_pdet`` from it) and the closed-form mean (``mfdt``).  The
independent checks are in tests/conftest.py: ``restart_pmf`` (the PMF
factorization, written index by index), ``mfdt_direct`` (a truncated
sum plus its tail) and ``build_reset_heff`` (the operator-level form).
"""

from __future__ import annotations

import numpy as np

from .dynamics import DetectionSeries
from .errors import NeverDetectedError

__all__ = [
    "mfdt",
    "reset_survival",
    "reset_pdet",
]


def _check_window(base: DetectionSeries, r: int) -> None:
    if r < 1:
        raise ValueError(f"restart period must be at least 1, got r={r}")
    if r > base.n_max:
        raise ValueError(
            f"restart period r={r} exceeds the base series length {base.n_max}"
        )


def mfdt(base: DetectionSeries, r: int) -> float:
    """Mean first-detection time under restart every ``r`` measurements.

    Closed form, no truncation:

        r tau (1 - Pdet(r)) / Pdet(r) + sum_ntilde ntilde tau p_ntilde / Pdet(r).

    The window survival is taken from ``P_r`` directly.  Every engine
    computes ``P_r`` as a squared state norm, or inside a super-step of
    several measurements as one plus the later losses, non-negative
    terms; so it keeps its relative accuracy at tiny survival, where ``1 -
    Pdet(r)`` would cancel to rounding noise.  ``tau`` is the series' own.
    """
    _check_window(base, r)
    tau = base.tau
    pdet_r = base.Pdet[r - 1]
    if pdet_r <= 0:
        raise NeverDetectedError(
            f"no detection probability in a window of r={r} measurements"
        )
    q = base.P[r - 1]
    in_window = tau * np.dot(np.arange(1, r + 1), base.p[:r])
    return r * tau * q / pdet_r + in_window / pdet_r


def reset_survival(base: DetectionSeries, r: int, n_max: int) -> np.ndarray:
    """Survival probability at t = n tau, n = 1..n_max, under restart."""
    _check_window(base, r)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    # P_r^R P_ntilde: one row of P[:r] per window, scaled by q^R = P_r^R.
    decay = base.P[r - 1] ** np.arange(-(-n_max // r))
    return np.multiply.outer(decay, base.P[:r]).ravel()[:n_max]


def reset_pdet(base: DetectionSeries, r: int, n_max: int) -> np.ndarray:
    """Integrated detection probability under restart, 1 - reset survival."""
    return 1.0 - reset_survival(base, r, n_max)
