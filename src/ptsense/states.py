"""State containers with validated invariants, and probe-state constructors.

Density matrices are validated on construction (Hermiticity, trace,
positivity), so any value of these types is a legal state; operations return
plain ndarrays only for operators and propagators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBranch, InvalidMatrix, PtsenseError
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
    "PointErrors",
    "RAISE",
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


class _Raise:
    """One-point evaluation: the first failed check raises, and a checked state
    is returned as its validated class."""

    def flag(self, bad, error: type, message) -> None:
        if bad:
            raise error(message if isinstance(message, str) else message(()))

    def points(self, mask):
        return [()] if mask else []

    def guard(self, x, bad):
        return x  # a bad point has raised already

    def state(self, cls, *args):
        return cls(*args)


RAISE = _Raise()


class PointErrors:
    """The first typed error of each point of a stacked (row) evaluation.

    Passed as `errors=` to a layer function, it turns the function into its
    row form: the time argument is a 1-D array, results are stacked along a
    leading axis, and a failed check is recorded for the points it fails
    instead of raising.  A point keeps its first error, which is the one the
    same function raises when called on that point alone (errors=RAISE, the
    default).
    """

    def __init__(self, n: int) -> None:
        self.errors: list[Exception | None] = [None] * n

    @property
    def ok(self) -> np.ndarray:
        """True where no check has failed yet."""
        return np.array([e is None for e in self.errors], dtype=bool)

    def copy(self) -> "PointErrors":
        out = PointErrors(0)
        out.errors = list(self.errors)
        return out

    def run(self, fn, *args, **kwargs):
        """fn(*args, errors=self, **kwargs), or None if it raised.

        A PtsenseError that fn raises for the whole row, from a check that
        does not depend on the point, becomes the error of every point that
        has none yet, as it is for each point evaluated alone.
        """
        try:
            return fn(*args, errors=self, **kwargs)
        except PtsenseError as exc:
            self.flag(True, exc.with_traceback(None))  # its frames would hold the row's arrays
            return None

    def flag(self, bad, error, message=None) -> None:
        """Record error(message(i)) at every point i of `bad` that has none yet.

        `error` is an exception class, or an instance to record as it is;
        `message` is a string or a function of the point index.
        """
        for i in np.flatnonzero(np.broadcast_to(bad, len(self.errors))):
            if self.errors[i] is None:
                if isinstance(error, Exception):
                    self.errors[i] = error
                else:
                    self.errors[i] = error(message if isinstance(message, str) else message(i))

    def points(self, mask) -> np.ndarray:
        """Indices of the points in `mask` that have no error yet."""
        return np.flatnonzero(mask & self.ok)

    def guard(self, x: np.ndarray, bad) -> np.ndarray:
        """x with 1.0 at the points `bad` flagged, so dividing by it stays quiet there."""
        return np.where(bad, 1.0, x)

    def state(self, cls, *args):
        """Run the checks of `cls` on the stacked state `args[0]` and return it."""
        for bad, message in cls.checks(*args):
            self.flag(bad, InvalidMatrix, message)
        return args[0]


def _finite(a: np.ndarray, axes) -> np.ndarray:
    return np.isfinite(a).all(axis=axes)


def _vector_checks(a: np.ndarray, norm_factor=1.0):
    """(bad, message) of each invariant of a state vector, or a stack of them, in order."""
    finite = _finite(a, -1)
    yield ~finite, "state vector has non-finite entries"
    if not finite.all():
        a = np.where(finite[..., None], a, 1.0 / math.sqrt(a.shape[-1]))
    dev = abs(vector_norm(a) - 1.0)
    yield dev > HERM_TOL, lambda i: f"state vector not normalized: |norm - 1| = {dev[i]:.2e}"
    yield ((norm_factor <= 0.0) | (norm_factor >= math.inf) | (norm_factor != norm_factor),  # NaN
           "norm factor must be positive and finite")


def _density_checks(a: np.ndarray, trace_tol: float = HERM_TOL):
    """(bad, message) of each invariant of a density matrix, or a stack of them, in order."""
    finite = _finite(a, (-2, -1))
    yield ~finite, "density matrix has non-finite entries"
    if not finite.all():
        a = np.where(finite[..., None, None], a, 0.0)
    yield np.abs(a - dagger(a)).max(axis=(-2, -1)) > HERM_TOL, "density matrix not Hermitian to 1e-12"
    tr = a.trace(axis1=-2, axis2=-1)
    yield ((abs(tr.real - 1.0) > trace_tol) | (abs(tr.imag) > trace_tol),
           lambda i: f"density matrix trace != 1 (got {tr[i]:.15g})")
    yield np.linalg.eigvalsh(a).min(axis=-1) < -EIG_TOL, "density matrix has an eigenvalue below -1e-10"


def _unnormalized_checks(a: np.ndarray):
    """(bad, message) of each invariant of an UnnormalizedMatrix2, or a stack of them, in order."""
    finite = _finite(a, (-2, -1))
    yield ~finite, "expected a finite 2x2 matrix"
    if not finite.all():
        a = np.where(finite[..., None, None], a, 0.0)
    yield np.abs(a - dagger(a)).max(axis=(-2, -1)) > HERM_TOL, "matrix not Hermitian to 1e-12"
    yield np.linalg.eigvalsh(a).min(axis=-1) < -EIG_TOL, "matrix not positive semidefinite to 1e-10"
    yield a.trace(axis1=-2, axis2=-1).real < 0.0, "trace must be non-negative"


def _raise_first(checks) -> None:
    for bad, message in checks:
        RAISE.flag(bad, InvalidMatrix, message)


def _check_vector(v, dim: int, norm_factor: float) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.shape != (dim,):
        raise InvalidMatrix(f"state vector must have dimension {dim}")
    _raise_first(_vector_checks(a, norm_factor))
    return _freeze(a)


def _check_density(m, dim: int, trace_tol: float = HERM_TOL) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (dim, dim):
        raise InvalidMatrix(f"density matrix must be {dim}x{dim}")
    _raise_first(_density_checks(a, trace_tol))
    return _freeze(a)


# Each state class validates on construction; its `checks` yields the same
# checks for a stack of states, which PointErrors.state runs.


@dataclass(frozen=True)
class PureState2:
    """Normalized two-level state with its accumulated norm factor c_n."""

    amplitudes: np.ndarray
    norm_factor: float = 1.0
    checks = staticmethod(_vector_checks)

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
    checks = staticmethod(_vector_checks)

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
    checks = staticmethod(_density_checks)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, 2))

    @property
    def population(self) -> float:
        return float(self.matrix[0, 0].real)


def _loose_density_checks(a: np.ndarray):
    return _density_checks(a, trace_tol=1e-10)


@dataclass(frozen=True)
class DensityMatrix3:
    """Three-level state; trace tolerance is looser (1e-10) since it is
    typically produced by an integrator rather than construction."""

    matrix: np.ndarray
    checks = staticmethod(_loose_density_checks)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, 3, trace_tol=1e-10))

    @property
    def populations(self) -> np.ndarray:
        return np.diagonal(self.matrix).real.copy()


@dataclass(frozen=True)
class DensityMatrix4:
    matrix: np.ndarray
    checks = staticmethod(_loose_density_checks)

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
    checks = staticmethod(_unnormalized_checks)

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=complex)
        if a.shape != (2, 2):
            raise InvalidMatrix("expected a finite 2x2 matrix")
        _raise_first(_unnormalized_checks(a))
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
