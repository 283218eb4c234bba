"""Small-matrix algebra for the 2x2 and 4x4 generators of this toolkit.

The Pauli matrices, the conjugate transpose and vector norms of stacks, the
per-point helpers of row evaluation, and the closed-form propagator
exp(-i H t) = cos(c t) I - i t sinc(c t) H of a generator with H^2 = c^2 I,
with its omega-derivative.  Both generators of the toolkit, H_pt and H_4d,
square to (kappa/2)^2 I, so no general exponential or eigensolver is needed.

cos and sinc of the phase come from _cos_sinc, which repeats np.sinc's own
arithmetic without its Python wrapper.  It keeps np.sinc's round trip
pi * (phase / pi), which does not always give back the phase: every dataset
holds the sinc of the round-tripped value, so dropping it would move them.
The 2x2 and 4x4 identities are read-only module constants (_EYE).
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


def _freeze(a: np.ndarray) -> np.ndarray:
    """a as a contiguous read-only array."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


#: The identity of each dimension the generators have, built once.
_EYE = {n: _freeze(np.eye(n, dtype=complex)) for n in (2, 4)}
_EPS = float(np.finfo(float).eps)  # np.sinc's stand-in for a zero argument


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


def _cos_sinc(phase):
    """(np.cos(phase), np.sinc(phase / np.pi)), bit for bit, for a scalar or an array.

    Repeats np.sinc's steps on the argument phase / np.pi: x = pi * (phase / pi), then
    y = x with a zero replaced by the machine epsilon, then sin(y) / y.  The round trip through
    / np.pi is kept because it does not always give back phase, and every dataset holds the sinc
    of the round-tripped value.
    """
    x = np.pi * (phase / np.pi)
    y = np.where(x, x, _EPS) if getattr(x, "ndim", 0) else (x if x else _EPS)
    return np.cos(phase), np.sin(y) / y


def su2_like_propagator(h, c_squared, t) -> np.ndarray:
    """exp(-i*H*t) for H with H^2 = c^2 * I (c real, c >= 0).

    Evaluates cos(c t) I - i t sinc(c t) H, which is regular at c = 0 and is
    the exact exponential whenever the involutory condition holds.  For a 1-D
    array of times the propagators are stacked along a leading axis, and h and
    c_squared may hold one generator and one value per time.
    """
    a = np.asarray(h, dtype=complex)
    c = np.sqrt(c_squared) if getattr(c_squared, "ndim", 0) else math.sqrt(c_squared)  # both correctly rounded
    cos, sinc = _cos_sinc(c * t)
    if getattr(t, "ndim", 0):
        cos, sinc, t = cos[:, None, None], sinc[:, None, None], t[:, None, None]
    return cos * _EYE[a.shape[-1]] - 1j * t * sinc * a


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
    return _su2_pair(h, dh, dc_squared, t, _phase_terms(math.sqrt(c_squared) * t))


def _phase_terms(phase):
    """(cos x, sinc x, g(x)) at the phase x = c t: _cos_sinc's pair and sinc_slope per element."""
    return (*_cos_sinc(phase), per_element(sinc_slope, phase))


def _su2_pair(h, dh, dc_squared: float, t, terms):
    """su2_like_pair from the _phase_terms of its phase, which pt_system's norm growth reads too; h, dh and
    dc_squared may hold one value per time of a row."""
    a, da = np.asarray(h, dtype=complex), np.asarray(dh, dtype=complex)
    cos, sinc, slope = terms
    if getattr(t, "ndim", 0):
        cos, sinc, slope, t, dc_squared = (per_point(x, 2) for x in (cos, sinc, slope, t, dc_squared))
    eye = _EYE[a.shape[-1]]
    u = cos * eye - 1j * t * sinc * a
    return u, -0.5 * t * t * dc_squared * (sinc * eye + 1j * t * slope * a) - 1j * t * sinc * da
