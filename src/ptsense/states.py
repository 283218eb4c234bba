"""State containers with validated invariants, and probe-state constructors.

Density matrices are validated on construction (Hermiticity, trace,
positivity), so any value of these types is a legal state.  Operations
return these types for one time and plain stacked ndarrays for a row of
times (as_state), and plain ndarrays for operators and propagators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBranch, InvalidMatrix
from .linalg import dagger, vector_norm

__all__ = [
    "plus_y",
    "minus_y",
    "bloch_probe",
    "PureState2",
    "PureState4",
    "DensityMatrix2",
    "DensityMatrix3",
    "DensityMatrix4",
    "UnnormalizedMatrix2",
    "pure_density",
]

HERM_TOL = 1e-12
EIG_TOL = 1e-10


def plus_y() -> np.ndarray:
    """Default probe |+>_y = (|1> + i|2>)/sqrt(2)."""
    return np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)


def minus_y() -> np.ndarray:
    """|->_y = (|1> - i|2>)/sqrt(2)."""
    return np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)


def bloch_probe(theta: float, phi: float) -> np.ndarray:
    """cos(theta/2)|1> + e^{i phi} sin(theta/2)|2>."""
    return np.array(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)],
        dtype=complex,
    )


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def as_state(cls, t, *args):
    """cls(*args), validated, for one time t; for a row of times (t a 1-D array),
    the stack args[0] as it is."""
    return args[0] if getattr(t, "ndim", 0) else cls(*args)


def _check_vector(v, dim: int, norm_factor: float) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.shape != (dim,):
        raise InvalidMatrix(f"state vector must have dimension {dim}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("state vector has non-finite entries")
    dev = abs(vector_norm(a) - 1.0)
    if dev > HERM_TOL:
        raise InvalidMatrix(f"state vector not normalized: |norm - 1| = {dev:.2e}")
    if not 0.0 < norm_factor < math.inf:
        raise InvalidMatrix("norm factor must be positive and finite")
    return _freeze(a)


def _check_density(m, dim: int, trace_tol: float = HERM_TOL) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (dim, dim):
        raise InvalidMatrix(f"density matrix must be {dim}x{dim}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("density matrix has non-finite entries")
    if np.abs(a - dagger(a)).max() > HERM_TOL:
        raise InvalidMatrix("density matrix not Hermitian to 1e-12")
    tr = a.trace()
    if abs(tr.real - 1.0) > trace_tol or abs(tr.imag) > trace_tol:
        raise InvalidMatrix(f"density matrix trace != 1 (got {tr:.15g})")
    if np.linalg.eigvalsh(a).min() < -EIG_TOL:
        raise InvalidMatrix("density matrix has an eigenvalue below -1e-10")
    return _freeze(a)


@dataclass(frozen=True)
class PureState2:
    """Normalized two-level state with its accumulated norm factor c_n."""

    amplitudes: np.ndarray
    norm_factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _check_vector(self.amplitudes, 2, self.norm_factor))

    @property
    def population(self) -> float:
        """|a_t|^2, the level-1 population."""
        return float(abs(self.amplitudes[0]) ** 2)

    def density(self) -> "DensityMatrix2":
        return DensityMatrix2(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class PureState4:
    """Normalized enlarged-system state with its norm factor C_n."""

    amplitudes: np.ndarray
    norm_factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _check_vector(self.amplitudes, 4, self.norm_factor))

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def density(self) -> "DensityMatrix4":
        return DensityMatrix4(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix2:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, 2))

    @property
    def population(self) -> float:
        return float(self.matrix[0, 0].real)


@dataclass(frozen=True)
class DensityMatrix3:
    """Three-level state; trace tolerance is looser (1e-10) since it is
    typically produced by an integrator rather than construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, 3, trace_tol=1e-10))

    @property
    def populations(self) -> np.ndarray:
        return np.diagonal(self.matrix).real.copy()


@dataclass(frozen=True)
class DensityMatrix4:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, 4, trace_tol=1e-10))

    @property
    def populations(self) -> np.ndarray:
        return np.diagonal(self.matrix).real.copy()


@dataclass(frozen=True)
class UnnormalizedMatrix2:
    """Hermitian positive-semidefinite 2x2 with non-negative trace.

    Holds the non-normalized dissipative state, whose trace is exactly zero
    once its decay underflows (deep decay), and its artificially amplified
    variant, whose trace can exceed one; so neither bound is enforced here.
    normalized() raises EmptyBranch on a zero or subnormal trace.
    """

    matrix: np.ndarray
    trace: float = field(init=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=complex)
        if a.shape != (2, 2) or not np.isfinite(a).all():
            raise InvalidMatrix("expected a finite 2x2 matrix")
        if np.abs(a - dagger(a)).max() > HERM_TOL:
            raise InvalidMatrix("matrix not Hermitian to 1e-12")
        if np.linalg.eigvalsh(a).min() < -EIG_TOL:
            raise InvalidMatrix("matrix not positive semidefinite to 1e-10")
        if a.trace().real < 0.0:
            raise InvalidMatrix("trace must be non-negative")
        object.__setattr__(self, "matrix", _freeze(a))
        object.__setattr__(self, "trace", float(np.trace(a).real))

    def normalized(self) -> DensityMatrix2:
        if not self.trace >= np.finfo(float).tiny:  # zero or subnormal: nothing left to normalize
            raise EmptyBranch("state has vanishing trace; normalized state undefined")
        return DensityMatrix2(self.matrix / self.trace)


def pure_density(psi) -> DensityMatrix2:
    """|psi><psi| for a normalized two-component vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return DensityMatrix2(np.outer(v, v.conj()))
