"""State containers, probe-state constructors, and the entry rule for inputs.

A probe or initial state vector is checked as PureState2 checks it (_vector),
an initial density matrix as its class checks it (_density_of); an instance
passes as it is.  A closed-form result is valid by construction: it is only
checked for being finite and is built without its class's checks (_result),
which run on direct construction and on the integrators' results.  They read
the entries once, as Python numbers; a 2x2's lowest eigenvalue is taken in
closed form, (p + q)/2 - hypot((p - q)/2, |c|), a 3x3's or 4x4's by eigvalsh.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBranch, InvalidMatrix
from .linalg import _freeze

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


def _check_vector(v, dim: int, norm_factor: float) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.shape != (dim,):
        raise InvalidMatrix(f"state vector must have dimension {dim}")
    entries = a.tolist()
    if not all(map(cmath.isfinite, entries)):
        raise InvalidMatrix("state vector has non-finite entries")
    dev = abs(math.hypot(*map(abs, entries)) - 1.0)
    if dev > HERM_TOL:
        raise InvalidMatrix(f"state vector not normalized: |norm - 1| = {dev:.2e}")
    if not 0.0 < norm_factor < math.inf:
        raise InvalidMatrix("norm factor must be positive and finite")
    return _freeze(a)


def _entries(a: np.ndarray):
    """The rows of a square matrix as lists of Python complexes; None if an entry is not finite."""
    rows = a.tolist()
    return rows if all(cmath.isfinite(z) for row in rows for z in row) else None


def _hermitian(rows) -> bool:
    """max |a - a^dag| <= HERM_TOL, entry by entry as np.abs(a - dagger(a)).max() reads it."""
    n = len(rows)
    return max(abs(rows[i][j] - rows[j][i].conjugate()) for i in range(n) for j in range(i, n)) <= HERM_TOL


def _trace(rows) -> complex:
    """The trace of a 2x2, 3x3 or 4x4, bit for bit as a.trace() sums it: four entries in pairs,
    fewer in order, and a zero sum as +0."""
    d = [rows[i][i] for i in range(len(rows))]
    return 0.0 + ((d[0] + d[1]) + (d[2] + d[3]) if len(d) == 4 else sum(d[1:], d[0]))


def _lowest_eigenvalue(a: np.ndarray, rows) -> float:
    """Lowest eigenvalue of a Hermitian matrix.  A 2x2 [[p, c*], [c, q]] in closed form from the
    lower triangle, which eigvalsh reads: (p + q)/2 - hypot((p - q)/2, |c|), halved before the sums
    so that no sum of finite entries overflows; eigvalsh for a larger matrix."""
    if len(rows) != 2:
        return np.linalg.eigvalsh(a).min()
    p, q = 0.5 * rows[0][0].real, 0.5 * rows[1][1].real
    return (p + q) - math.hypot(p - q, abs(rows[1][0]))


def _check_density(m, dim: int) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    trace_tol = HERM_TOL if dim == 2 else 1e-10  # a larger state comes from an integrator
    if a.shape != (dim, dim):
        raise InvalidMatrix(f"density matrix must be {dim}x{dim}")
    rows = _entries(a)
    if rows is None:
        raise InvalidMatrix("density matrix has non-finite entries")
    if not _hermitian(rows):
        raise InvalidMatrix("density matrix not Hermitian to 1e-12")
    tr = _trace(rows)
    if abs(tr.real - 1.0) > trace_tol or abs(tr.imag) > trace_tol:
        raise InvalidMatrix(f"density matrix trace != 1 (got {tr:.15g})")
    if _lowest_eigenvalue(a, rows) < -EIG_TOL:
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
        return pure_density(self)


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


@dataclass(frozen=True)
class _Density:
    """A density matrix of dimension dim (a class attribute of each subclass), checked on construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, self.dim))

    @property
    def populations(self) -> np.ndarray:
        return np.diagonal(self.matrix).real.copy()


class DensityMatrix2(_Density):
    dim = 2

    @property
    def population(self) -> float:
        return float(self.matrix[0, 0].real)


class DensityMatrix3(_Density):
    """Three-level state; trace tolerance is looser (1e-10) since it is
    typically produced by an integrator rather than construction."""

    dim = 3


class DensityMatrix4(_Density):
    dim = 4


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
        rows = _entries(a) if a.shape == (2, 2) else None
        if rows is None:
            raise InvalidMatrix("expected a finite 2x2 matrix")
        if not _hermitian(rows):
            raise InvalidMatrix("matrix not Hermitian to 1e-12")
        if _lowest_eigenvalue(a, rows) < -EIG_TOL:
            raise InvalidMatrix("matrix not positive semidefinite to 1e-10")
        trace = _trace(rows).real
        if trace < 0.0:
            raise InvalidMatrix("trace must be non-negative")
        object.__setattr__(self, "matrix", _freeze(a))
        object.__setattr__(self, "trace", trace)

    def normalized(self) -> DensityMatrix2:
        if not self.trace >= np.finfo(float).tiny:  # zero or subnormal: nothing left to normalize
            raise EmptyBranch("state has vanishing trace; normalized state undefined")
        return _result(DensityMatrix2, None, self.matrix / self.trace)


def pure_density(psi) -> DensityMatrix2:
    """|psi><psi| for a normalized two-component vector (or a PureState2)."""
    v = _vector(psi)
    return _result(DensityMatrix2, None, np.outer(v, v.conj()))


def _vector(psi) -> np.ndarray:
    """A probe or initial state vector's amplitudes: a PureState2's as they are, else checked as it checks them."""
    return psi.amplitudes if isinstance(psi, PureState2) else _check_vector(psi, 2, 1.0)


def _density_of(rho, cls) -> np.ndarray:
    """An initial state's matrix: a cls's as it is, else checked as cls checks it (a stack, each matrix)."""
    if isinstance(rho, cls):
        return rho.matrix
    a = np.asarray(rho, dtype=complex)
    for m in a if a.ndim == 3 else (a,):
        _check_density(m, cls.dim)
    return a


def _finite(x, what: str):
    """x as it is; InvalidMatrix unless every entry of x is finite."""
    finite = np.isfinite(x)
    if np.count_nonzero(finite) < finite.size:  # cheaper than finite.all() on a few entries
        raise InvalidMatrix(f"{what} is not finite")
    return x


def _result(cls, t, data, *fields):
    """A closed-form result: InvalidMatrix unless data is finite (an overflow, a NaN time); then, read-only,
    cls(data, *fields) built without cls's checks for one time t, or data itself for a row of times."""
    data = _freeze(_finite(data, "state"))
    if getattr(t, "ndim", 0):
        return data
    state = object.__new__(cls)
    vars(state).update(zip(cls.__dataclass_fields__, (data, *fields)))
    return state
