"""The bare PT-symmetric two-level system.

States come from the analytic propagator (evolve_state / evolve_density),
regular on the whole unbroken phase including the exceptional point.  The
closed-form density-matrix elements of the standard probes, which carry a
1/(omega -+ gamma*cos) factor, are the independent oracle of the tests
(tests/conftest.py).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStep, NormUnderflow
from .linalg import PAULI_X, PAULI_Z, _phase_terms, _su2_pair, dagger, per_point, su2_like_propagator, vector_norm
from .params import PtParams, per_entry
from .states import DensityMatrix2, PureState2, _density_of, _finite, _result, _vector

__all__ = [
    "hamiltonian_pt",
    "propagator_pt",
    "propagator_pt_pair",
    "norm_growth",
    "evolve_state",
    "evolve_density",
    "integrate_nh_master",
]


def hamiltonian_pt(p: PtParams) -> np.ndarray:
    """(omega/2) sigma_x + i (gamma/2) sigma_z; the (n, 2, 2) stack for per-point parameters."""
    return per_point(0.5 * p.omega, 2) * PAULI_X + per_point(0.5j * p.gamma, 2) * PAULI_Z


def propagator_pt(p: PtParams, t: float) -> np.ndarray:
    """exp(-i H t); non-unitary in the Dirac sense whenever gamma > 0.

    kappa^2/4 is passed from the parameters rather than re-derived from
    tr(H^2): the latter cancels catastrophically near the exceptional point
    (relative error ~1e-16/kappa^2), which would corrupt the phase at
    kappa*t >> 1.
    """
    return su2_like_propagator(hamiltonian_pt(p), per_entry(p, lambda q: (0.5 * q.kappa) ** 2), t)


def propagator_pt_pair(p: PtParams, t):
    """(propagator_pt, its d/d(omega) at fixed t), in closed form: dH = sigma_x/2 and
    d(kappa^2/4) = omega/2; finite on the whole unbroken phase, the EP included."""
    return _pt_pair(p, t, _phase_terms(_phase(p, t)))


def _phase(p: PtParams, t):
    """su2_like_pair's phase sqrt((kappa/2)^2) t of the propagators, bit for bit, with the root taken per entry."""
    return per_entry(p, lambda q: math.sqrt((0.5 * q.kappa) ** 2)) * t


def _pt_pair(p: PtParams, t, terms):
    """propagator_pt_pair from the linalg._phase_terms of its phase (_phase), which the channel and norm growth read."""
    return _su2_pair(hamiltonian_pt(p), 0.5 * PAULI_X, 0.5 * p.omega, t, terms)


def norm_growth(p: PtParams, t, psi0):
    """m = (|U psi0|^2 - 1)/gamma for a unit psi0, and dm/d(omega) at fixed t.

    U^dag U = I + gamma [c s sigma_z + (omega s^2/2) sigma_y + (gamma s^2/2) I]
    with c = cos x, s = t sinc x and x = kappa t/2, so the O(gamma) growth of
    the norm comes without the cancellation in |U psi0|^2 - 1, also where
    gamma is far below the roundoff of |U psi0|^2.  Per point for an array of t.
    """
    return _norm_growth(p, t, _vector(psi0), _phase_terms(0.5 * p.kappa * t))


def _norm_growth(p: PtParams, t, a, terms):
    """norm_growth of the amplitudes a of a unit vector, from the _phase_terms of x = kappa t/2."""
    z = abs(a[0]) ** 2 - abs(a[1]) ** 2  # <sigma_z>
    y = 2.0 * (a[0].conjugate() * a[1]).imag  # <sigma_y>
    w, g = p.omega, p.gamma
    c, sinc, slope = terms
    s = t * sinc
    dc = -0.25 * w * t * t * sinc  # dx/d(omega) = omega t^2/(4x)
    ds = 0.25 * w * t * t * t * slope
    m = c * s * z + 0.5 * w * s * s * y + 0.5 * g * s * s
    dm = (dc * s + c * ds) * z + (0.5 * s * s + w * s * ds) * y + g * s * ds
    return m, dm


def _direction(v, dv=None):
    """(v/|v|, dv/|v|) of a family v(omega) and its tangent dv (or None), or of stacks of them: the
    normalized PT state, and a tangent off d(v/|v|) by a real multiple of v/|v|, so with its QFI."""
    norm = per_point(vector_norm(v), 1)
    return v / norm, None if dv is None else dv / norm


def evolve_state(psi0, p: PtParams, t) -> PureState2:
    """Normalized non-unitary evolution of a pure probe.

    Returns the renormalized state together with the norm factor
    c_n = 1/||U psi0||.  For a 1-D array of times the result is the (n, 2)
    stack of amplitudes (states._result).
    """
    raw = propagator_pt(p, t) @ _vector(psi0)
    norm = _finite(vector_norm(raw), "state norm")  # an overflowed norm would leave a zero vector
    if (norm < 1e-150).any():
        raise NormUnderflow("propagated state norm underflowed")
    return _result(PureState2, t, raw / per_point(norm, 1), 1.0 / norm)


def evolve_density(rho0, p: PtParams, t) -> DensityMatrix2:
    """U rho0 U^dag renormalized to unit trace.

    For a 1-D array of times the result is the (n, 2, 2) stack of matrices.
    """
    u = propagator_pt(p, t)
    raw = u @ _density_of(rho0, DensityMatrix2) @ dagger(u)
    tr = _finite(raw.trace(axis1=-2, axis2=-1).real, "state trace")  # an overflowed trace would leave zeros
    if (tr < 1e-300).any():
        raise NormUnderflow("Tr(U rho U^dag) underflowed")
    out = raw / per_point(tr, 2)
    return _result(DensityMatrix2, t, 0.5 * (out + dagger(out)))  # scrub roundoff asymmetry


def integrate_nh_master(rho0, p: PtParams, t: float, dt: float) -> DensityMatrix2:
    """Fixed-step RK4 for the norm-preserving non-Hermitian master equation.

    drho = -i[H+, rho] - {Gamma, rho} + 2 Tr(rho Gamma) rho with
    H+ = (omega/2) sigma_x and Gamma = -(gamma/2) sigma_z.  The trace is
    renormalized after every step (per-step drift is O(h^5) by construction).
    The step is shrunk to t/ceil(t/dt) so the horizon is hit exactly.

    The loop is unrolled over the four real degrees of freedom of a Hermitian
    2x2 matrix, which keeps one step at ~1 microsecond.
    """
    if dt <= 0.0:
        raise InvalidStep("dt must be positive")
    mat = _density_of(rho0, DensityMatrix2)
    a = float(mat[0, 0].real)  # rho11
    d = float(mat[1, 1].real)  # rho22
    x = float(mat[0, 1].real)  # Re rho12
    y = float(mat[0, 1].imag)  # Im rho12
    if t == 0.0:
        return DensityMatrix2(mat)
    w, g = p.omega, p.gamma
    n = max(1, int(math.ceil(t / dt - 1e-12)))
    h = t / n

    def rhs(a, d, x, y):
        z = a - d
        gz = g * z
        return (-w * y + g * a - gz * a, w * y - g * d - gz * d, -gz * x, 0.5 * w * z - gz * y)

    for _ in range(n):
        k1 = rhs(a, d, x, y)
        k2 = rhs(a + 0.5 * h * k1[0], d + 0.5 * h * k1[1], x + 0.5 * h * k1[2], y + 0.5 * h * k1[3])
        k3 = rhs(a + 0.5 * h * k2[0], d + 0.5 * h * k2[1], x + 0.5 * h * k2[2], y + 0.5 * h * k2[3])
        k4 = rhs(a + h * k3[0], d + h * k3[1], x + h * k3[2], y + h * k3[3])
        a += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        d += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        x += (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        y += (h / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        s = a + d
        if s < 1e-300:
            raise NormUnderflow("trace underflowed during integration")
        a /= s
        d /= s
        x /= s
        y /= s

    q = complex(x, y)
    return DensityMatrix2(np.array([[a, q], [np.conj(q), d]], dtype=complex))
