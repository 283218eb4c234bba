"""The bare PT-symmetric two-level system.

Two independent evaluation routes are provided on purpose and are used as
mutual oracles in the tests: the analytic propagator path (evolve_state /
evolve_density, regular on the whole unbroken phase including the exceptional
point) and the direct transcription of the closed-form density-matrix
elements for the standard probes (rho_pt_closed / rho_a_closed, which carry a
1/(omega -+ gamma*cos) factor and therefore require gamma < omega).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStep, MetricSingular, NormUnderflow
from .linalg import (
    PAULI_X,
    PAULI_Z,
    dagger,
    per_element,
    per_point,
    sinc_slope,
    su2_like_pair,
    su2_like_propagator,
    vector_norm,
)
from .params import PtParams
from .states import RAISE, DensityMatrix2, PureState2

__all__ = [
    "hamiltonian_pt",
    "propagator_pt",
    "propagator_pt_pair",
    "norm_growth",
    "evolve_state",
    "evolve_density",
    "rho_pt_closed",
    "rho_a_closed",
    "integrate_nh_master",
]


def hamiltonian_pt(p: PtParams, perturbed: bool = False) -> np.ndarray:
    """(Omega/2) sigma_x + i (gamma/2) sigma_z, with Omega = omega (+ delta)."""
    omega = p.omega + (p.delta if perturbed else 0.0)
    return 0.5 * omega * PAULI_X + 0.5j * p.gamma * PAULI_Z


def propagator_pt(p: PtParams, t: float) -> np.ndarray:
    """exp(-i H t); non-unitary in the Dirac sense whenever gamma > 0.

    kappa^2/4 is passed from the parameters rather than re-derived from
    tr(H^2): the latter cancels catastrophically near the exceptional point
    (relative error ~1e-16/kappa^2), which would corrupt the phase at
    kappa*t >> 1.
    """
    return su2_like_propagator(hamiltonian_pt(p), (0.5 * p.kappa) ** 2, t)


def propagator_pt_pair(p: PtParams, t):
    """(propagator_pt, its d/d(omega) at fixed t), in closed form: dH = sigma_x/2 and
    d(kappa^2/4) = omega/2; finite on the whole unbroken phase, the EP included."""
    return su2_like_pair(hamiltonian_pt(p), 0.5 * PAULI_X, (0.5 * p.kappa) ** 2, 0.5 * p.omega, t)


def norm_growth(p: PtParams, t, psi0):
    """m = (|U psi0|^2 - 1)/gamma for a unit psi0, and dm/d(omega) at fixed t.

    U^dag U = I + gamma [c s sigma_z + (omega s^2/2) sigma_y + (gamma s^2/2) I]
    with c = cos x, s = t sinc x and x = kappa t/2, so the O(gamma) growth of
    the norm comes without the cancellation in |U psi0|^2 - 1, also where
    gamma is far below the roundoff of |U psi0|^2.  Per point for an array of t.
    """
    a = np.asarray(psi0, dtype=complex)
    z = abs(a[0]) ** 2 - abs(a[1]) ** 2  # <sigma_z>
    y = 2.0 * (a[0].conjugate() * a[1]).imag  # <sigma_y>
    w, g = p.omega, p.gamma
    x = 0.5 * p.kappa * t
    c, sinc = np.cos(x), np.sinc(x / np.pi)
    s = t * sinc
    dc = -0.25 * w * t * t * sinc  # dx/d(omega) = omega t^2/(4x)
    ds = 0.25 * w * t * t * t * per_element(sinc_slope, x)
    m = c * s * z + 0.5 * w * s * s * y + 0.5 * g * s * s
    dm = (dc * s + c * ds) * z + (0.5 * s * s + w * s * ds) * y + g * s * ds
    return m, dm


def evolve_state(psi0, p: PtParams, t, errors=RAISE) -> PureState2:
    """Normalized non-unitary evolution of a pure probe.

    Returns the renormalized state together with the norm factor
    c_n = 1/||U psi0||.  With errors=PointErrors(n), t is an array of n
    times and the result is the (n, 2) stack of amplitudes (see
    states.PointErrors).
    """
    amps = psi0.amplitudes if isinstance(psi0, PureState2) else np.asarray(psi0, dtype=complex)
    raw = propagator_pt(p, t) @ amps
    norm = vector_norm(raw)
    underflow = norm < 1e-150
    errors.flag(underflow, NormUnderflow, "propagated state norm underflowed")
    norm = errors.guard(norm, underflow)
    return errors.state(PureState2, raw / per_point(norm, 1), 1.0 / norm)


def evolve_density(rho0, p: PtParams, t, errors=RAISE) -> DensityMatrix2:
    """U rho0 U^dag renormalized to unit trace.

    With errors=PointErrors(n), t is an array of n times and the result is the
    (n, 2, 2) stack of matrices (see states.PointErrors).
    """
    mat = rho0.matrix if isinstance(rho0, DensityMatrix2) else np.asarray(rho0, dtype=complex)
    u = propagator_pt(p, t)
    raw = u @ mat @ dagger(u)
    tr = raw.trace(axis1=-2, axis2=-1).real
    underflow = tr < 1e-300
    errors.flag(underflow, NormUnderflow, "Tr(U rho U^dag) underflowed")
    out = raw / per_point(errors.guard(tr, underflow), 2)
    return errors.state(DensityMatrix2, 0.5 * (out + dagger(out)))  # scrub roundoff asymmetry


def _require_unbroken_interior(p: PtParams) -> None:
    if p.omega - p.gamma < 1e-12 * p.omega:
        raise MetricSingular("closed-form elements diverge at the exceptional point")


def rho_pt_closed(p: PtParams, t: float) -> DensityMatrix2:
    """Closed-form post-selected PT state for the probe |+>_y.

    rho11 = [1 + c kappa sin(kappa t)]/2 and rho12 = i c [gamma - omega
    cos(kappa t)]/2 with c = 1/(omega - gamma cos(kappa t)); direct element
    transcription, valid for gamma < omega.
    """
    _require_unbroken_interior(p)
    k = p.kappa
    c = 1.0 / (p.omega - p.gamma * math.cos(k * t))
    r11 = 0.5 * (1.0 + c * k * math.sin(k * t))
    r12 = 0.5j * c * (p.gamma - p.omega * math.cos(k * t))
    return DensityMatrix2(np.array([[r11, r12], [np.conj(r12), 1.0 - r11]], dtype=complex))


def rho_a_closed(p: PtParams, t: float) -> DensityMatrix2:
    """Closed-form auxiliary-system state (failure branch), probe |+>_y.

    rho_A11 = [1 + c_a kappa sin(kappa t)]/2 and rho_A12 = -i c_a [gamma +
    omega cos(kappa t)]/2 with c_a = 1/(omega + gamma cos(kappa t)).
    """
    _require_unbroken_interior(p)
    k = p.kappa
    c = 1.0 / (p.omega + p.gamma * math.cos(k * t))
    r11 = 0.5 * (1.0 + c * k * math.sin(k * t))
    r12 = -0.5j * c * (p.gamma + p.omega * math.cos(k * t))
    return DensityMatrix2(np.array([[r11, r12], [np.conj(r12), 1.0 - r11]], dtype=complex))


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
    mat = rho0.matrix if isinstance(rho0, DensityMatrix2) else np.asarray(rho0, dtype=complex)
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
