"""Small-matrix algebra for the 2x2 and 4x4 generators of this toolkit.

The Pauli matrices, the conjugate transpose and vector norms of stacks, the
per-point helpers of row evaluation, and the closed-form propagator
exp(-i H t) = cos(c t) I - i t sinc(c t) H of a generator with H^2 = c^2 I,
with its omega-derivative.  Both generators of the toolkit, H_pt and H_4d,
square to (kappa/2)^2 I, so no general exponential or eigensolver is needed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "dagger",
    "vector_norm",
    "per_element",
    "per_point",
    "su2_like_propagator",
    "su2_like_pair",
    "sinc_slope",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
    array loops round differently from the scalar call, as np.exp does
    against math.exp.
    """
    if not getattr(x, "ndim", 0):
        return fn(x)
    return np.array([fn(v) for v in x.tolist()])


def per_point(x, trailing: int):
    """A scalar as it is; one value per point of a row shaped to broadcast
    over the row's vectors (trailing=1) or matrices (trailing=2)."""
    return x[(...,) + (None,) * trailing] if getattr(x, "ndim", 0) else x


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
