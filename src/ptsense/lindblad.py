"""Scheme II: dissipative three-level system and its reduced two-level
effective dynamics.

Level scheme: coherent coupling omega between |1> and |2>, population decay
|2> -> |3> with |3> a sink.  The jump operator is sqrt(2*gamma)|3><2| so that
the coherence rho12 decays at rate gamma and rho22 at 2*gamma; this is the
unique normalization for which dropping the jump term reproduces the
effective Hamiltonian H_eff = H_pt - i(gamma/2) I, i.e. the same gain-loss
scale gamma as the PT Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, InvalidStep
from .linalg import PAULI_X, _abs2, dagger, per_element, per_point
from .params import PtParams
from .pt_system import _direction, propagator_pt
from .states import DensityMatrix2, DensityMatrix3, UnnormalizedMatrix2, as_state, plus_y

__all__ = [
    "LindbladModel",
    "lindblad_model",
    "plus_y_3l",
    "integrate_lindblad",
    "analytic_rho_3l",
    "effective_evolve",
    "artificial_pt",
    "postselect_3l",
    "liouvillian_matrix",
    "liouvillian_is_defective",
    "Postselected3L",
]

@dataclass(frozen=True)
class LindbladModel:
    """Operators of the three-level scheme.

    h0 is the coherent part (omega/2 sigma_x embedded in the {|1>,|2>}
    block), jump is sqrt(2*gamma)|3><2|, and liouvillian is the 4x4 matrix of
    the reduced two-level generator acting on the row-stacked vector
    [rho11, rho12, rho21, rho22].
    """

    h0: np.ndarray
    jump: np.ndarray
    liouvillian: np.ndarray


def plus_y_3l() -> np.ndarray:
    """Probe (|1> + i|2> + 0|3>)/sqrt(2)."""
    return np.array([1.0, 1.0j, 0.0], dtype=complex) / math.sqrt(2.0)


def lindblad_model(p: PtParams) -> LindbladModel:
    h0 = np.zeros((3, 3), dtype=complex)
    h0[:2, :2] = 0.5 * p.omega * PAULI_X
    jump = np.zeros((3, 3), dtype=complex)
    jump[2, 1] = math.sqrt(2.0 * p.gamma)
    w, g = p.omega, p.gamma
    liou = np.array(
        [
            [0.0, 0.5j * w, -0.5j * w, 0.0],
            [0.5j * w, -g, 0.0, -0.5j * w],
            [-0.5j * w, 0.0, -g, 0.5j * w],
            [0.0, -0.5j * w, 0.5j * w, -2.0 * g],
        ],
        dtype=complex,
    )
    return LindbladModel(h0=h0, jump=jump, liouvillian=liou)


def _lindblad_rhs(rho: np.ndarray, h0: np.ndarray, jump: np.ndarray, jdj: np.ndarray) -> np.ndarray:
    return (
        -1j * (h0 @ rho - rho @ h0)
        + jump @ rho @ jump.conj().T
        - 0.5 * (jdj @ rho + rho @ jdj)
    )


def integrate_lindblad(rho0, p: PtParams, t: float, dt: float) -> DensityMatrix3:
    """Fixed-step RK4 for the three-level Lindblad equation.

    Trace is conserved exactly by the generator, so no renormalization is
    applied; the step is shrunk to t/ceil(t/dt) to land on the horizon.
    """
    if dt <= 0.0:
        raise InvalidStep("dt must be positive")
    rho = np.array(rho0.matrix if isinstance(rho0, DensityMatrix3) else rho0, dtype=complex)
    if t == 0.0:
        return DensityMatrix3(rho)
    model = lindblad_model(p)
    jdj = model.jump.conj().T @ model.jump
    n = max(1, int(math.ceil(t / dt - 1e-12)))
    h = t / n
    for _ in range(n):
        k1 = _lindblad_rhs(rho, model.h0, model.jump, jdj)
        k2 = _lindblad_rhs(rho + 0.5 * h * k1, model.h0, model.jump, jdj)
        k3 = _lindblad_rhs(rho + 0.5 * h * k2, model.h0, model.jump, jdj)
        k4 = _lindblad_rhs(rho + h * k3, model.h0, model.jump, jdj)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix3(rho)


def _decayed(p: PtParams, t, v):
    """(phi, p_suc): the {|1>,|2>} amplitudes e^{-gamma t/2} v of the three-level state of v = U_pt
    psi0 and its success rate |phi|^2, the trace of the effective state.  InvalidMatrix unless v is
    finite."""
    if not np.isfinite(v).all():
        raise InvalidMatrix("state vector has non-finite entries")
    phi = per_point(per_element(math.exp, -0.5 * p.gamma * t), 1) * v
    return phi, _abs2(phi).sum(axis=-1)


def _survival(trace):
    """The trace of the effective state, a survival probability: InvalidMatrix above 1 + 1e-10."""
    above = trace > 1.0 + 1e-10
    if above.any():
        raise InvalidMatrix(f"effective state trace {np.extract(above, trace)[0]:.15g} exceeds 1")
    return trace


def _conjugated(u, rho0) -> np.ndarray:
    """u rho0 u^dag, Hermitian to roundoff, for a propagator u or a stack of them; rho0
    is a DensityMatrix2, a 2x2 matrix or a state vector."""
    mat = np.asarray(rho0.matrix if isinstance(rho0, DensityMatrix2) else rho0, dtype=complex)
    if mat.shape == (2,):
        mat = np.outer(mat, mat.conj())
    raw = u @ mat @ dagger(u)
    return 0.5 * (raw + dagger(raw))


def analytic_rho_3l(p: PtParams, t) -> DensityMatrix3:
    """Closed-form three-level state for the probe (|1> + i|2>)/sqrt(2).

    The {|1>,|2>} block is the non-normalized effective state
    e^{-gamma t} U rho0 U^dag (regular on the whole unbroken phase including
    the exceptional point) and rho33 makes up the trace.  Once gamma*t is
    large enough that the decay underflows double precision the block is
    exactly zero and the state is the sink, which is the correct limit.
    For a 1-D array of times the result is the (n, 3, 3) stack.
    """
    scaled, p_suc = _decayed(p, t, propagator_pt(p, t) @ plus_y())
    block = scaled[..., :, None] * scaled.conj()[..., None, :]
    out = np.zeros(getattr(t, "shape", ()) + (3, 3), dtype=complex)
    out[..., :2, :2] = 0.5 * (block + dagger(block))
    out[..., 2, 2] = 1.0 - p_suc
    return as_state(DensityMatrix3, t, out)


def effective_evolve(rho0, p: PtParams, t) -> UnnormalizedMatrix2:
    """Non-normalized dissipative state U_eff rho0 U_eff^dag.

    U_eff = e^{-gamma t/2} U_pt elementwise, since the anti-Hermitian part of
    H_eff is a multiple of the identity.  The trace never exceeds one here
    (it is the success probability of remaining outside the sink), and it is
    exactly zero once e^{-gamma t} underflows (deep decay), as in
    analytic_rho_3l.  For a 1-D array of times the result is the (n, 2, 2)
    stack of matrices.
    """
    u_eff = per_point(per_element(math.exp, -0.5 * p.gamma * t), 2) * propagator_pt(p, t)
    raw = _conjugated(u_eff, rho0)
    out = as_state(UnnormalizedMatrix2, t, raw)
    _survival(raw.trace(axis1=-2, axis2=-1).real)
    return out


def artificial_pt(rho0, p: PtParams, t) -> UnnormalizedMatrix2:
    """Artificially amplified state e^{gamma t} rho_eff = U_pt rho0 U_pt^dag.

    The gain e^{gamma t} compensates the uniform decay of effective_evolve's
    rho_eff, so the result mimics a balanced gain-loss system; its trace may
    exceed one.  It is computed from the initial state rather than as the
    product, which would overflow (or divide an underflowed zero) in deep
    decay.  For a 1-D array of times the result is the stack of amplified
    matrices.
    """
    return as_state(UnnormalizedMatrix2, t, _conjugated(propagator_pt(p, t), rho0))


@dataclass(frozen=True)
class Postselected3L:
    """Post-selection outcome for the three-level scheme (no failure state:
    the sink |3> carries no coherence to condition on)."""

    p_suc: float
    p_fail: float
    rho_pt: DensityMatrix2


def postselect_3l(p: PtParams, t) -> Postselected3L:
    """Condition analytic_rho_3l(p, t) on not having decayed into the sink.

    p_suc = rho11 + rho22 and p_fail = rho33 = 1 - p_suc are those of
    analytic_rho_3l, bit for bit; in deep decay p_suc is the double it is,
    subnormal or 0.  The conditioned state is the normalized PT state
    v v^dag/|v|^2, v = U_pt |+>_y, which equals the {|1>,|2>} block over
    p_suc without the division, so it is defined at every time.  For a row
    (t a 1-D array of times) every field is stacked.
    """
    v = propagator_pt(p, t) @ plus_y()
    p_suc = _decayed(p, t, v)[1]
    psi = _direction(v)[0]
    rho_pt = psi[..., :, None] * psi.conj()[..., None, :]
    return Postselected3L(p_suc=p_suc, p_fail=1.0 - p_suc, rho_pt=as_state(DensityMatrix2, t, rho_pt))


def liouvillian_matrix(p: PtParams) -> tuple[np.ndarray, np.ndarray]:
    """The reduced-dynamics generator matrix and its eigenvalues.

    The generator is rho -> -i (H_eff rho - rho H_eff^dag), H_eff = H_pt - i(gamma/2) I, on
    the row-stacked [rho11, rho12, rho21, rho22].  The eigenvalues
    {-gamma +- i kappa, -gamma, -gamma} are taken in closed form: all four
    coalesce at gamma/omega = 1, where the matrix becomes defective and a
    general eigensolver scatters them by about eps^(1/4).
    """
    rate = -p.gamma + 0.0  # +0.0 rather than -0.0 at gamma = 0
    values = np.array([complex(rate, p.kappa), complex(rate, -p.kappa), rate, rate], dtype=complex)
    return lindblad_model(p).liouvillian, values


def liouvillian_is_defective(p: PtParams) -> bool:
    """True when some eigenvalue's geometric multiplicity is deficient: at the
    exceptional point only (kappa = 0), where the four eigenvalues coalesce.
    The double eigenvalue -gamma off the EP keeps two eigenvectors."""
    return p.kappa == 0.0
