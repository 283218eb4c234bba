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

from .errors import EmptyBranch, GainOverflow, InvalidMatrix, InvalidStep
from .linalg import PAULI_X, dagger, eig, per_element, per_point
from .params import PtParams
from .pt_system import hamiltonian_pt, propagator_pt
from .states import RAISE, DensityMatrix2, DensityMatrix3, UnnormalizedMatrix2, plus_y

__all__ = [
    "LindbladModel",
    "lindblad_model",
    "hamiltonian_eff",
    "plus_y_3l",
    "integrate_lindblad",
    "analytic_rho_3l",
    "effective_evolve",
    "effective_rhs",
    "artificial_pt",
    "postselect_3l",
    "liouvillian_matrix",
    "liouvillian_is_defective",
    "Postselected3L",
]

#: Below this success rate the steady state dominates and post-selected
#: states are flagged unreliable (vanishing-success-rate regime).
RELIABLE_P_SUC = 1e-12


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


def hamiltonian_eff(p: PtParams, perturbed: bool = False) -> np.ndarray:
    """Effective non-Hermitian Hamiltonian H_pt - i(gamma/2) I."""
    return hamiltonian_pt(p, perturbed=perturbed) - 0.5j * p.gamma * np.eye(2, dtype=complex)


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


def analytic_rho_3l(p: PtParams, t, errors=RAISE) -> DensityMatrix3:
    """Closed-form three-level state for the probe (|1> + i|2>)/sqrt(2).

    The {|1>,|2>} block is the non-normalized effective state
    e^{-gamma t} U rho0 U^dag (regular on the whole unbroken phase including
    the exceptional point) and rho33 makes up the trace.  Once gamma*t is
    large enough that the decay underflows double precision the block is
    exactly zero and the state is the sink, which is the correct limit, so
    no positive-trace guard applies here (unlike effective_evolve).  With
    errors=PointErrors(n), t is an array of n times and the result is the
    (n, 3, 3) stack.
    """
    scaled = per_point(per_element(math.exp, -0.5 * p.gamma * t), 1) * (propagator_pt(p, t) @ plus_y())
    block = scaled[..., :, None] * scaled.conj()[..., None, :]
    out = np.zeros(getattr(t, "shape", ()) + (3, 3), dtype=complex)
    out[..., :2, :2] = 0.5 * (block + dagger(block))
    out[..., 2, 2] = 1.0 - block.trace(axis1=-2, axis2=-1).real
    return errors.state(DensityMatrix3, out)


def effective_evolve(rho0, p: PtParams, t, errors=RAISE) -> UnnormalizedMatrix2:
    """Non-normalized dissipative state U_eff rho0 U_eff^dag.

    U_eff = e^{-gamma t/2} U_pt elementwise, since the anti-Hermitian part of
    H_eff is a multiple of the identity.  The trace never exceeds one here
    (it is the success probability of remaining outside the sink).  With
    errors=PointErrors(n), t is an array of n times and the result is the
    (n, 2, 2) stack of matrices.
    """
    mat = np.asarray(rho0.matrix if isinstance(rho0, DensityMatrix2) else rho0, dtype=complex)
    if mat.shape == (2,):
        mat = np.outer(mat, mat.conj())
    u_eff = per_point(per_element(math.exp, -0.5 * p.gamma * t), 2) * propagator_pt(p, t)
    raw = u_eff @ mat @ dagger(u_eff)
    raw = 0.5 * (raw + dagger(raw))
    out = errors.state(UnnormalizedMatrix2, raw)
    tr = raw.trace(axis1=-2, axis2=-1).real
    # survival probability cannot exceed one
    errors.flag(tr > 1.0 + 1e-10, InvalidMatrix, lambda i: f"effective state trace {tr[i]:.15g} exceeds 1")
    return out


def effective_rhs(rho, p: PtParams) -> np.ndarray:
    """Generator of the reduced dynamics: -i (H_eff rho - rho H_eff^dag).

    Componentwise this is
    d(rho11) = i(omega/2)(rho12 - rho21),
    d(rho12) = i(omega/2)(rho11 - rho22) - gamma rho12,
    d(rho22) = i(omega/2)(rho21 - rho12) - 2 gamma rho22,
    the same linear system encoded by LindbladModel.liouvillian.
    """
    mat = np.asarray(rho.matrix if isinstance(rho, UnnormalizedMatrix2) else rho, dtype=complex)
    h_eff = hamiltonian_eff(p)
    return -1j * (h_eff @ mat - mat @ h_eff.conj().T)


def artificial_pt(p: PtParams, t, rho_eff: UnnormalizedMatrix2, errors=RAISE) -> UnnormalizedMatrix2:
    """Artificially amplified state e^{gamma t} rho_eff.

    The exponential compensates the uniform decay so the result mimics a
    balanced gain-loss system; its trace may exceed one.  With
    errors=PointErrors(n), t is an array of n times, rho_eff their stack, and
    the result is the stack of amplified matrices.
    """
    gt = np.asarray(p.gamma * t)
    overflow = gt > 700.0
    errors.flag(overflow, GainOverflow, lambda i: f"exp(gamma*t) overflows for gamma*t = {gt[i]:.6g}")
    mat = rho_eff.matrix if isinstance(rho_eff, UnnormalizedMatrix2) else np.asarray(rho_eff, dtype=complex)
    gain = per_element(math.exp, errors.guard(gt, overflow))
    return errors.state(UnnormalizedMatrix2, per_point(gain, 2) * mat)


@dataclass(frozen=True)
class Postselected3L:
    """Post-selection outcome for the three-level scheme (no failure state:
    the sink |3> carries no coherence to condition on)."""

    p_suc: float
    p_fail: float
    rho_pt: DensityMatrix2
    reliable: bool = True


def postselect_3l(rho3, errors=RAISE) -> Postselected3L:
    """Condition on not having decayed into the sink.

    p_suc = rho11 + rho22 and the conditioned state is the renormalized
    {|1>,|2>} block; p_fail = rho33.  When p_suc < 1e-12 the outcome is
    flagged unreliable (steady-state regime); below 1e-14 it raises.  For a
    row (errors=PointErrors(n), rho3 an (n, 3, 3) stack) every field is
    stacked.
    """
    m = rho3.matrix if isinstance(rho3, DensityMatrix3) else np.asarray(rho3, dtype=complex)
    p_suc = m[..., 0, 0].real + m[..., 1, 1].real
    p_fail = m[..., 2, 2].real
    empty = p_suc < 1e-14
    errors.flag(empty, EmptyBranch, "success rate vanished; no post-selected state exists")
    block = m[..., :2, :2] / per_point(errors.guard(p_suc, empty), 2)
    reliable = p_suc >= RELIABLE_P_SUC
    return Postselected3L(
        p_suc=p_suc,
        p_fail=p_fail,
        rho_pt=errors.state(DensityMatrix2, 0.5 * (block + dagger(block))),
        reliable=reliable if getattr(reliable, "ndim", 0) else bool(reliable),
    )


def liouvillian_matrix(p: PtParams) -> tuple[np.ndarray, np.ndarray]:
    """The reduced-dynamics generator matrix and its eigenvalues.

    Row order is the row-stacked [rho11, rho12, rho21, rho22].  Eigenvalues
    are {-gamma +- i kappa, -gamma, -gamma}; all four coalesce at
    gamma/omega = 1, where the matrix becomes defective.
    """
    liou = lindblad_model(p).liouvillian
    return liou, eig(liou).values


def liouvillian_is_defective(p: PtParams, cluster_tol: float = 1e-3, null_tol: float = 1e-8) -> bool:
    """True when some eigenvalue's geometric multiplicity is deficient.

    A defective m-fold eigenvalue scatters like eps^(1/m) (~1e-4 for the
    quadruple point here) under roundoff, so eigenvalues are clustered with a
    loose relative tolerance and the kernel dimension is probed at the
    cluster mean; exact kernels sit at ~1e-16 while the smallest spurious
    singular value of a perturbed Jordan block stays orders above null_tol.
    """
    liou = lindblad_model(p).liouvillian
    values = np.linalg.eigvals(liou)
    scale = max(float(np.max(np.abs(values))), 1.0)
    remaining = list(values)
    while remaining:
        seed = remaining[0]
        cluster = [z for z in remaining if abs(z - seed) <= cluster_tol * scale]
        remaining = [z for z in remaining if abs(z - seed) > cluster_tol * scale]
        algebraic = len(cluster)
        if algebraic == 1:
            continue
        center = sum(cluster) / algebraic
        s = np.linalg.svd(liou - center * np.eye(4), compute_uv=False)
        geometric = int(np.sum(s <= null_tol * max(s[0], 1e-300)))
        if geometric < algebraic:
            return True
    return False
