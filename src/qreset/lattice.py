"""Tight-binding chain operators and their dense propagators.

Single-particle sector throughout: operators act on site amplitudes.
Each generator is defined once, by its at most five nonzero diagonals
(``hamiltonian_diagonals``); ``build_hamiltonian``, the one dense
builder, assembles the L x L matrix of any kind from them.  The public interface labels sites 1..L; the
arrays underneath are 0-based.  The hopping amplitude is fixed at 1 and
hbar = 1, so energies are in hopping units and times in inverse hopping
units.

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
the band of its step from the diagonals.  The dense matrices here are
the reference the engines are tested against, and the renewal oracle's
step; no recipe uses them, and they stay in the library because the
benchmark harness (``perfbench/``) binds them by name.
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


def hamiltonian_diagonals(
    spec: LatticeSpec, kind: ModelKind, tau: float | None = None
) -> dict[int, np.ndarray]:
    """The generator for ``kind`` by its nonzero diagonals: offset k maps to ``H[i, i + k]``.

    This is the one definition of each model; ``build_hamiltonian``
    assembles it, and the dissipative engine exponentiates it as it
    stands.  Every generator is symmetric (``H^T = H``, diagonals k and
    -k equal), offsets stay within -2..2, and no diagonal entry has a
    positive imaginary part, so the dissipative part only contracts.

    ``EXACT`` ignores ``tau``.  ``MODEL1`` drops the bonds (s-1, s) and
    (s, s+1) and gives the neighbours the anti-Hermitian block
    ``-(i tau/2) (|s-1><s+1| + |s+1><s-1| + |s-1><s-1| + |s+1><s+1|)``,
    which grows with the step; it needs 2 <= s <= L-1.  ``MODEL2`` keeps
    the hopping and adds ``-2i/tau`` at the detector: the strength is
    tied to ``tau``, not a separate argument.
    """
    L = spec.L
    hop = np.ones(L - 1)
    if kind is ModelKind.EXACT:
        return {-1: hop, 1: hop}
    if tau is None:
        raise ValueError(f"{kind.value} requires the measurement step tau")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    s0 = spec.detector_index - 1
    if kind is ModelKind.MODEL2:
        diag = np.zeros(L, dtype=np.complex128)
        diag[s0] = -2.0j / tau
        return {-1: hop, 0: diag, 1: hop}
    if kind is not ModelKind.MODEL1:
        raise ValueError(f"unknown model kind: {kind!r}")
    if not 1 <= s0 <= L - 2:
        raise ValueError(
            f"detector_index {s0 + 1} is at the chain edge; both neighbours are needed"
        )
    g = -0.5j * tau
    hop = hop.astype(np.complex128)
    hop[[s0 - 1, s0]] = 0.0  # the bonds (s-1, s) and (s, s+1)
    diag = np.zeros(L, dtype=np.complex128)
    diag[[s0 - 1, s0 + 1]] = g
    bridge = np.zeros(L - 2, dtype=np.complex128)
    bridge[s0 - 1] = g
    return {-2: bridge, -1: hop, 0: diag, 1: hop, 2: bridge}


def _assemble(diagonals: dict[int, np.ndarray]) -> np.ndarray:
    """Dense L x L matrix with the given diagonals."""
    L = len(diagonals[1]) + 1
    h = np.zeros((L, L), dtype=np.result_type(*diagonals.values()))
    for k, d in diagonals.items():
        i = np.arange(len(d))
        h[i + max(0, -k), i + max(0, k)] = d
    return h


def build_hamiltonian(
    spec: LatticeSpec, kind: ModelKind, tau: float | None = None
) -> np.ndarray:
    """Dense generator for ``kind``; dissipative kinds need ``tau``."""
    return _assemble(hamiltonian_diagonals(spec, kind, tau))


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
    straight from the generator's diagonals.  It serves the renewal
    oracle (exact kind) and the tests, which hold the engines to it.
    The cache holds one entry per model kind: enough for a grid point to
    reuse each kind's matrix, few enough that a tau sweep stays bounded.
    """
    h = build_hamiltonian(spec, kind, tau)
    return propagator(h, tau, hermitian=(kind is ModelKind.EXACT))
