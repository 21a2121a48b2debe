"""First-detection statistics of a monitored tight-binding chain under sharp restart.

A particle hops on an open 1-D chain and a detector site is probed
projectively every ``tau``.  The package computes the first-detection
PMF three ways (projective dynamics, and two dissipative surrogates
that replace the measurement backaction with complex generators),
layers a sharp-restart protocol on top, and extracts the derived
quantities those descriptions are judged by: window decay weights,
survival timescales, optimal restart times, and per-window accuracy
gaps.  The ``qreset`` CLI drives the standard experiments into CSV;
its config parser, artifact writer and sweep runner stay in
``qreset.cli``.
"""

from .analysis import alpha, optimal_tr_nh, survival_prediction
from .cli import main
from .dynamics import (
    DetectionSeries,
    RenewalSeries,
    measured_evolution,
    nh_survival_series,
    renewal_amplitudes,
)
from .errors import (
    BoundaryContaminationError,
    ConfigError,
    ExpmScalingError,
    InstantAbsorptionError,
    NeverDetectedError,
    QresetError,
)
from .lattice import (
    LatticeSpec,
    ModelKind,
    build_hamiltonian,
    propagator,
    step_propagator,
)
from .restart import mfdt, reset_pdet, reset_survival

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "ModelKind",
    "LatticeSpec",
    "build_hamiltonian",
    "propagator",
    "step_propagator",
    # dynamics
    "DetectionSeries",
    "RenewalSeries",
    "measured_evolution",
    "renewal_amplitudes",
    "nh_survival_series",
    # restart
    "mfdt",
    "reset_survival",
    "reset_pdet",
    # analysis
    "alpha",
    "survival_prediction",
    "optimal_tr_nh",
    # cli
    "main",
    # errors
    "QresetError",
    "ConfigError",
    "BoundaryContaminationError",
    "NeverDetectedError",
    "InstantAbsorptionError",
    "ExpmScalingError",
]
