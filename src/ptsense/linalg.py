"""Complex small-matrix algebra for 2x2, 3x3 and 4x4 systems.

Everything here is dimension-agnostic in principle but deliberately restricted
to the sizes this toolkit uses; there is no sparse or large-N path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, InvalidMatrix, NotSu2Like

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "EigenDecomposition",
    "dagger",
    "vector_norm",
    "per_element",
    "per_point",
    "expm",
    "expm_su2_analytic",
    "su2_like_propagator",
    "su2_like_pair",
    "sinc_slope",
    "eig",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SUPPORTED_DIMS = (2, 3, 4)


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in _SUPPORTED_DIMS:
        raise InvalidMatrix(f"{name} must be square with dim in {_SUPPORTED_DIMS}, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidMatrix(f"{name} has non-finite entries")
    return a


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def vector_norm(v) -> np.ndarray:
    """2-norm of a vector, or of each vector of a stack (last axis).

    Rounds exactly as np.linalg.norm rounds one complex vector, which sums the
    squares of the real parts and of the imaginary parts separately.
    """
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _abs2(x) -> np.ndarray:
    """|x_i|^2 of each entry of a complex array, as (x * conj x).real."""
    return (x * x.conj()).real


def per_element(fn, x):
    """fn(x) for a scalar x; for an array, fn of each element as a Python float.

    Keeps a row's values bitwise equal to one-point values where numpy's
    array loops round differently from the scalar call: np.exp against
    math.exp, and x ** 2 (x * x) against a float's ** 2 (C pow).
    """
    if not getattr(x, "ndim", 0):
        return fn(x)
    return np.array([fn(v) for v in x.tolist()])


def per_point(x, trailing: int):
    """A scalar as it is; one value per point of a row shaped to broadcast
    over the row's vectors (trailing=1) or matrices (trailing=2)."""
    return x[(...,) + (None,) * trailing] if getattr(x, "ndim", 0) else x


def expm(m, scale: complex = 1.0) -> np.ndarray:
    """exp(scale*M) by scaling-and-squaring of a degree-16 Taylor polynomial.

    Accurate to better than 1e-12 relative error for ||scale*M|| <= 10; the
    argument is halved until its 1-norm is below 0.5, so the Taylor tail is
    ~0.5^17/17! and the squaring chain stays short.
    """
    a = _as_square(m) * scale
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidMatrix("scale*M has non-finite entries")
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 17):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def su2_like_propagator(h, c_squared: float, t) -> np.ndarray:
    """exp(-i*H*t) for H with H^2 = c^2 * I (c real, c >= 0).

    Evaluates cos(c t) I - i t sinc(c t) H, which is regular at c = 0 and is
    the exact exponential whenever the involutory condition holds.  For a 1-D
    array of times the propagators are stacked along a leading axis.
    """
    a = np.asarray(h, dtype=complex)
    c = float(np.sqrt(c_squared))
    phase = c * t
    cos, sinc = np.cos(phase), np.sinc(phase / np.pi)
    if getattr(t, "ndim", 0):
        cos, sinc, t = cos[:, None, None], sinc[:, None, None], t[:, None, None]
    return cos * np.eye(a.shape[0], dtype=complex) - 1j * t * sinc * a


def sinc_slope(x: float) -> float:
    """g(x) = (cos x - sinc x)/x^2 = sinc'(x)/x, by its series -1/3 + x^2/30 - x^4/840 near 0."""
    if abs(x) < 1e-2:
        x2 = x * x
        return -1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0
    return 0.0 if math.isinf(x) else (math.cos(x) - math.sin(x) / x) / (x * x)  # math.cos(inf) raises


def su2_like_pair(h, dh, c_squared: float, dc_squared: float, t):
    """(U, dU): U = su2_like_propagator(h, c_squared, t), bit for bit, and dU = dU/d(omega) at
    fixed t, for H(omega) with dH = dh and c^2(omega) with derivative dc_squared.

    With x = c t, S = sinc and g(x) = (cos x - S(x))/x^2 (so dx/d(omega) = t dc^2/(2c)),
    dU = -(t^2/2) dc^2 [S(x) I + i t g(x) H] - i t S(x) dH, which is regular at c = 0
    (Najfeld & Havel 1995).  Stacked like su2_like_propagator for an array of times; g is
    evaluated per element, so a row equals its one-point calls bit for bit.
    """
    a, da = np.asarray(h, dtype=complex), np.asarray(dh, dtype=complex)
    phase = float(np.sqrt(c_squared)) * t
    cos, sinc, slope = np.cos(phase), np.sinc(phase / np.pi), per_element(sinc_slope, phase)
    if getattr(t, "ndim", 0):
        cos, sinc, slope, t = cos[:, None, None], sinc[:, None, None], slope[:, None, None], t[:, None, None]
    eye = np.eye(a.shape[0], dtype=complex)
    u = cos * eye - 1j * t * sinc * a
    return u, -0.5 * t * t * dc_squared * (sinc * eye + 1j * t * slope * a) - 1j * t * sinc * da


def expm_su2_analytic(h, t: float) -> np.ndarray:
    """Analytic propagator exp(-i*H*t) for a 2x2 H whose square is scalar.

    Raises NotSu2Like unless ||H^2 - c I|| <= 1e-12 ||H||^2 with
    c = tr(H^2)/2.  For the PT Hamiltonian c = (kappa/2)^2, so this is the
    cos/sin closed form, with the exceptional-point limit built in through
    sinc.
    """
    a = _as_square(h, "H")
    if a.shape[0] != 2:
        raise NotSu2Like("analytic propagator is defined for 2x2 matrices")
    h2 = a @ a
    c = complex(np.trace(h2)) / 2.0
    scale = max(np.linalg.norm(a) ** 2, 1e-300)
    if np.linalg.norm(h2 - c * np.eye(2)) > 1e-12 * scale:
        raise NotSu2Like("H^2 is not proportional to the identity")
    if abs(c.imag) > 1e-12 * scale or c.real < -1e-12 * scale:
        raise NotSu2Like("H^2 = c*I with c not real non-negative (broken phase)")
    return su2_like_propagator(a, max(c.real, 0.0), t)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and unit-norm eigenvectors of a general complex matrix.

    Vectors are normalized to unit Dirac norm with the first component of
    magnitude above 1e-12*max made real and positive, so decompositions are
    deterministic test fixtures.
    """

    values: np.ndarray
    vectors: np.ndarray  # column i pairs with values[i]

    def reconstruct(self) -> np.ndarray:
        """V diag(values) V^{-1}; only meaningful for diagonalizable input."""
        return self.vectors @ np.diag(self.values) @ np.linalg.inv(self.vectors)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    big = np.abs(v) > 1e-12 * np.max(np.abs(v))
    lead = v[np.argmax(big)]
    return v * (abs(lead) / lead)


def eig(m) -> EigenDecomposition:
    """Full eigendecomposition of a general (non-Hermitian) complex matrix."""
    a = _as_square(m)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at dim<=4
        raise EigFailure(str(exc)) from exc
    cols = [_fix_phase(vectors[:, i]) for i in range(a.shape[0])]
    vectors = np.column_stack(cols)
    scale = max(np.linalg.norm(a), 1e-300)
    for lam, v in zip(values, vectors.T):
        if np.linalg.norm(a @ v - lam * v) > 1e-10 * scale:
            raise EigFailure("eigenpair residual exceeds 1e-10 * ||M||")
    return EigenDecomposition(values=values, vectors=vectors)

