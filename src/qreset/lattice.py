"""Tight-binding chain operators and their dense propagators.

Single-particle sector throughout: operators act on site amplitudes.
Each generator is the unit-hop chain plus its detector defect
(``detector_defect``); ``build_hamiltonian``, the one dense builder,
assembles the two.  The public interface labels sites 1..L; the arrays
underneath are 0-based.  The hopping amplitude is fixed at 1 and hbar =
1, so energies are in hopping units and times in inverse hopping units.

Three generators are provided:

* the Hermitian open-chain Hamiltonian ``H`` with bonds (j, j+1) for
  j = 1..L-1 and no wrap-around bond,
* a dissipative variant ("model 1") obtained by deleting the two bonds
  that touch the detector site ``s`` and coupling its neighbours through
  an anti-Hermitian bridge proportional to the measurement step ``tau``,
* a dissipative variant ("model 2") that keeps the full hopping and adds
  an imaginary on-site potential ``-2i/tau`` at ``s``.

Dense propagators ``e^{-iMt}`` use a spectral decomposition when the
generator is Hermitian and scaling-and-squaring with a degree-13 Pade
approximant otherwise; the dissipative generators are non-normal, so
their eigenbasis is not a safe route.  Both return the bare read-only
matrix.  The engines in ``dynamics`` build no L x L matrix: each builds
the band of its step from the free hops and the defect.  The dense
matrices here are the reference the engines are tested against, and the
renewal oracle's step; no recipe uses them, and they stay in the library
because the benchmark harness (``perfbench/``) binds them by name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ExpmScalingError

__all__ = [
    "ModelKind",
    "LatticeSpec",
    "build_hamiltonian",
    "propagator",
    "step_propagator",
]

#: Max-norm tolerance below which a matrix counts as Hermitian.
HERMITIAN_TOL = 1e-12

# Degree-13 Pade coefficients and the matching 1-norm threshold
# (Higham's scaling-and-squaring constants).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152
_MAX_SQUARINGS = 64


class ModelKind(enum.Enum):
    """Which generator drives a run: the Hermitian chain or a dissipative stand-in."""

    EXACT = "exact"
    MODEL1 = "model1"
    MODEL2 = "model2"


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of a run: chain length, detector site, and initial site.

    Site indices are 1-based.  ``L`` must be even, which keeps the middle
    site ``L/2`` well defined for the default initial condition.
    """

    L: int
    detector_index: int
    initial_index: int

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError(f"chain length must be at least 2, got L={self.L}")
        if self.L % 2 != 0:
            raise ValueError(f"chain length must be even, got L={self.L}")
        if not 1 <= self.detector_index <= self.L:
            raise ValueError(
                f"detector_index {self.detector_index} outside 1..{self.L}"
            )
        if not 1 <= self.initial_index <= self.L:
            raise ValueError(
                f"initial_index {self.initial_index} outside 1..{self.L}"
            )


def detector_defect(
    spec: LatticeSpec, kind: ModelKind, tau: float | None = None
) -> dict[tuple[int, int], complex]:
    """The entries ``{(i, j): H[i, j]}`` (0-based) where ``kind`` differs from the unit-hop chain.

    This is the one definition of each model.  Every generator is
    symmetric, its entries lie within two sites of the diagonal, and no
    diagonal entry has a positive imaginary part, so the dissipative part
    only contracts.

    ``EXACT`` has none and ignores ``tau``.  ``MODEL1`` sets the four
    entries of the bonds (s-1, s) and (s, s+1) to 0 and gives the
    neighbours the anti-Hermitian block
    ``-(i tau/2) (|s-1><s+1| + |s+1><s-1| + |s-1><s-1| + |s+1><s+1|)``,
    which grows with the step; it needs 2 <= s <= L-1.  ``MODEL2`` keeps
    the hopping and adds ``-2i/tau`` at the detector: the strength is
    tied to ``tau``, not a separate argument.
    """
    if kind is ModelKind.EXACT:
        return {}
    if tau is None:
        raise ValueError(f"{kind.value} requires the measurement step tau")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    s = spec.detector_index - 1
    if kind is ModelKind.MODEL2:
        return {(s, s): -2.0j / tau}
    if kind is not ModelKind.MODEL1:
        raise ValueError(f"unknown model kind: {kind!r}")
    if not 1 <= s <= spec.L - 2:
        raise ValueError(
            f"detector_index {s + 1} is at the chain edge; both neighbours are needed"
        )
    bridge = {(i, j): -0.5j * tau for i in (s - 1, s + 1) for j in (s - 1, s + 1)}
    return {(s - 1, s): 0.0, (s, s - 1): 0.0, (s, s + 1): 0.0, (s + 1, s): 0.0, **bridge}


def build_hamiltonian(
    spec: LatticeSpec, kind: ModelKind, tau: float | None = None
) -> np.ndarray:
    """Dense generator for ``kind``, the unit-hop chain plus its defect; models need ``tau``."""
    defect = detector_defect(spec, kind, tau)
    h = np.zeros((spec.L, spec.L), dtype=np.complex128 if defect else np.float64)
    i = np.arange(spec.L - 1)
    h[i, i + 1] = h[i + 1, i] = 1.0  # the unit hops
    for ij, value in defect.items():
        h[ij] = value
    return h


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling-and-squaring with the degree-13 Pade approximant."""
    norm1 = np.linalg.norm(a, 1)
    squarings = 0
    if norm1 > _THETA13:
        squarings = int(np.ceil(np.log2(norm1 / _THETA13)))
        if squarings > _MAX_SQUARINGS:
            raise ExpmScalingError(
                f"matrix 1-norm {norm1:.3e} needs {squarings} squarings "
                f"(cap {_MAX_SQUARINGS}); generator looks pathological"
            )
        a = a / (2.0**squarings)
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    f = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        f = f @ f
    return f


def propagator(matrix: np.ndarray, t: float, hermitian: bool) -> np.ndarray:
    """Dense propagator ``e^{-i M t}`` for the generator ``matrix``, read-only.

    With ``hermitian=True`` the exponential goes through the spectral
    decomposition of ``M`` and the result is unitary; the input is
    checked and rejected if it is not Hermitian to within
    ``HERMITIAN_TOL``.  Otherwise the Pade route is used.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"generator must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("generator has non-finite entries")
    if t <= 0:
        raise ValueError(f"propagation time must be positive, got {t}")
    if hermitian:
        defect = np.max(np.abs(m - m.conj().T))
        if defect > HERMITIAN_TOL:
            raise ValueError(
                f"Hermitian path requested but max |M - M^dag| = {defect:.3e}"
            )
        w, q = np.linalg.eigh(m)
        u = (q * np.exp(-1j * w * t)) @ q.conj().T
    else:
        u = _expm(-1j * t * np.asarray(m, dtype=np.complex128))
    u.flags.writeable = False
    return u


@lru_cache(maxsize=len(ModelKind))
def step_propagator(spec: LatticeSpec, kind: ModelKind, tau: float) -> np.ndarray:
    """Dense single-measurement-step propagator, cached per (spec, kind, tau).

    No engine steps with this matrix: each builds the band of its step
    straight from the free hops and the detector defect.  It serves the
    renewal oracle (exact kind) and the tests, which hold the engines to it.
    The cache holds one entry per model kind: enough for a grid point to
    reuse each kind's matrix, few enough that a tau sweep stays bounded.
    """
    h = build_hamiltonian(spec, kind, tau)
    return propagator(h, tau, hermitian=(kind is ModelKind.EXACT))
