"""Scheme I: embedding the PT-symmetric qubit in a four-dimensional
Hermitian system via a metric operator, and post-selecting back.

The auxiliary two-level subsystem is slaved to the PT subsystem by the metric
eta (chi = eta psi), which makes the joint norm <psi|(1 + eta^2)|psi> a
constant of motion; the enlarged evolution is therefore genuinely unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBranch, MetricSingular
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, per_point, su2_like_pair, su2_like_propagator, vector_norm
from .params import PtParams
from .pt_system import propagator_pt
from .states import RAISE, DensityMatrix2, DensityMatrix4, PureState2, PureState4

__all__ = [
    "MetricOperator",
    "PostSelectionOutcome",
    "metric_operator",
    "d_metric",
    "pt_inner",
    "dilate_initial",
    "hamiltonian_4d",
    "propagator_4d",
    "propagator_4d_pair",
    "evolve_enlarged_state",
    "evolve_enlarged",
    "postselect",
]

_EP_MARGIN = 1e-12


@dataclass(frozen=True)
class MetricOperator:
    """Metric eta = (omega I + gamma sigma_y)/kappa and the eigenvector
    arrangement normalization f = 1/sqrt(2 kappa / omega)."""

    eta: np.ndarray
    f: float

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.eta)


@dataclass(frozen=True)
class PostSelectionOutcome:
    """Success/failure rates, raw populations and the conditioned states
    (arrays stacked along a leading axis for a row; see postselect).

    In the unbroken phase p_suc >= (omega - gamma)/(2 omega) > 0, so the
    success branch always exists; rho_a is None in the measure-zero case of
    a vanishing failure branch.
    """

    p_suc: float
    p_fail: float
    populations: np.ndarray
    rho_pt: DensityMatrix2
    rho_a: DensityMatrix2 | None


def metric_operator(p: PtParams) -> MetricOperator:
    """Hermitian positive metric linking the auxiliary to the PT subsystem.

    Singular at the exceptional point; gamma/omega >= 1 - 1e-12 is rejected.
    """
    if p.gamma / p.omega >= 1.0 - _EP_MARGIN:
        raise MetricSingular(
            f"metric operator singular: gamma/omega = {p.gamma / p.omega:.12g}"
        )
    eta = (p.omega * np.eye(2, dtype=complex) + p.gamma * PAULI_Y) / p.kappa
    return MetricOperator(eta=eta, f=1.0 / math.sqrt(2.0 * p.kappa / p.omega))


def d_metric(p: PtParams) -> np.ndarray:
    """d(eta)/d(omega) = I/kappa - omega (omega I + gamma sigma_y)/kappa^3, written as
    -gamma (gamma I + omega sigma_y)/kappa^3, which has no cancellation near the EP."""
    return -p.gamma * (p.gamma * np.eye(2, dtype=complex) + p.omega * PAULI_Y) / p.kappa ** 3


def pt_inner(u, v) -> complex:
    """Parity-time inner product (u, v) = (sigma_x conj(u)) . v.

    The PT norm of the Hamiltonian eigenvectors is +-2 kappa/omega in the raw
    arrangement, which is what the metric normalization f compensates.
    """
    uu = np.asarray(u, dtype=complex).reshape(-1)
    vv = np.asarray(v, dtype=complex).reshape(-1)
    return complex((PAULI_X @ uu.conj()) @ vv)


def _amplitudes(psi0) -> np.ndarray:
    return psi0.amplitudes if isinstance(psi0, PureState2) else np.asarray(psi0, dtype=complex)


def _dilated(amps: np.ndarray, eta: np.ndarray):
    """(psi0, eta psi0)^T normalized, and its norm factor; unvalidated."""
    raw = np.concatenate([amps, eta @ amps])
    norm = np.linalg.norm(raw)
    return raw / norm, 1.0 / norm


def dilate_initial(psi0, p: PtParams) -> PureState4:
    """Normalized enlarged initial state (psi0, eta psi0)^T."""
    return PureState4(*_dilated(_amplitudes(psi0), metric_operator(p).eta))


def _blocks_4d(diagonal: float, off: float) -> np.ndarray:
    """[[d sigma_x, i o sigma_z], [-i o sigma_z, d sigma_x]], the form of H_4d and of its derivative."""
    out = np.empty((4, 4), dtype=complex)
    out[:2, :2] = out[2:, 2:] = diagonal * PAULI_X
    out[:2, 2:] = 1j * off * PAULI_Z
    out[2:, :2] = -1j * off * PAULI_Z
    return out


def hamiltonian_4d(p: PtParams) -> np.ndarray:
    """Hermitian generator of the enlarged system.

    Built from the blocks X = H eta^{-1} + eta H = kappa sigma_x (Hermitian) and
    Y = H - H^dag = i gamma sigma_z (anti-Hermitian) as (kappa/2 omega) [[X, Y], [-Y, X]].
    The prefactor kappa/(2 omega) is fixed by requiring the generator to act
    on the embedded subspace as (u, eta u) -> (H u, eta H u); its spectrum is
    then +-kappa/2, degenerate twice, matching the PT eigenvalues.  The
    products are taken in closed form, which keeps full relative accuracy near
    the EP where eta and eta^{-1} have entries of order omega/kappa.
    """
    if p.gamma / p.omega >= 1.0 - _EP_MARGIN:
        raise MetricSingular("enlarged Hamiltonian needs a non-singular metric")
    k, w = p.kappa, p.omega
    return _blocks_4d(k * k / (2.0 * w), p.gamma * k / (2.0 * w))


def propagator_4d(p: PtParams, t: float) -> np.ndarray:
    """Unitary propagator exp(-i H_4d t) of the enlarged system.

    H_4d squares to (kappa/2)^2 * I, so the same cos/sinc closed form as for
    the two-level propagator applies; unitarity holds to ~1e-11 even at
    gamma/omega = 1 - 1e-6.
    """
    h4 = hamiltonian_4d(p)
    return su2_like_propagator(h4, (0.5 * p.kappa) ** 2, t)


def propagator_4d_pair(p: PtParams, t):
    """(propagator_4d, its d/d(omega) at fixed t), in closed form: d(kappa^2/4) = omega/2,
    and dH_4d is the product rule on hamiltonian_4d's blocks, with d(kappa) = omega/kappa."""
    h4 = hamiltonian_4d(p)  # raises MetricSingular next to the EP
    w, g = p.omega, p.gamma
    dh4 = _blocks_4d((w * w + g * g) / (2.0 * w * w), g ** 3 / (2.0 * p.kappa * w * w))
    return su2_like_pair(h4, dh4, (0.5 * p.kappa) ** 2, 0.5 * w, t)


def _enlarged(psi_raw, eta: np.ndarray):
    """Unvalidated amplitudes and norm factor C_n of the enlarged state from psi_raw = U_pt psi0."""
    psi_t = psi_raw / per_point(vector_norm(psi_raw), 1)
    chi_t = (eta @ psi_t[..., None])[..., 0]
    c_n = 1.0 / np.sqrt(1.0 + np.vecdot(chi_t, chi_t).real)
    return per_point(c_n, 1) * np.concatenate([psi_t, chi_t], axis=-1), c_n


def evolve_enlarged_state(psi0, p: PtParams, t, errors=RAISE) -> PureState4:
    """Enlarged pure state (psi_t, eta psi_t)^T / C_n at time t.

    Computed from the synchronized construction (evolve the PT subsystem,
    apply the metric) rather than from propagator_4d; the two paths agree to
    machine precision and are cross-checked in the tests.  With
    errors=PointErrors(n), t is an array of n times and the result is the
    (n, 4) stack of amplitudes.
    """
    return errors.state(PureState4, *_enlarged(propagator_pt(p, t) @ _amplitudes(psi0), metric_operator(p).eta))


def evolve_enlarged(psi0, p: PtParams, t, errors=RAISE) -> DensityMatrix4:
    """Rank-one density matrix of the enlarged system (a stack of them for a row)."""
    a, c_n = _enlarged(propagator_pt(p, t) @ _amplitudes(psi0), metric_operator(p).eta)
    errors.state(PureState4, a, c_n)
    return errors.state(DensityMatrix4, a[..., :, None] * a.conj()[..., None, :])


def postselect(rho4, errors=RAISE) -> PostSelectionOutcome:
    """Collapse the enlarged state onto the PT (success) or auxiliary
    (failure) subsystem.

    Both branch probabilities are computed from their own diagonal sums and
    checked to add to one, so a failure localizes to one branch.  For a row
    (errors=PointErrors(n), rho4 an (n, 4, 4) stack) every field is stacked,
    and a point without a failure branch is an EmptyBranch error instead of
    rho_a = None.
    """
    m = rho4.matrix if isinstance(rho4, DensityMatrix4) else np.asarray(rho4, dtype=complex)
    pops = np.diagonal(m, axis1=-2, axis2=-1).real.copy()
    p_suc = pops[..., 0] + pops[..., 1]
    p_fail = pops[..., 2] + pops[..., 3]
    total = p_suc + p_fail
    errors.flag(abs(total - 1.0) > 1e-12, EmptyBranch,
                lambda i: f"branch probabilities do not sum to 1: {total[i]:.15g}")
    empty = p_suc < 1e-14
    errors.flag(empty, EmptyBranch, "success branch has vanishing probability")
    rho_pt = errors.state(DensityMatrix2, m[..., :2, :2] / per_point(errors.guard(p_suc, empty), 2))
    has_a = p_fail >= 1e-14
    block = m[..., 2:, 2:] / per_point(np.where(has_a, p_fail, 1.0), 2)
    if errors is RAISE:
        rho_a = DensityMatrix2(block) if has_a else None
    else:
        errors.flag(~has_a, EmptyBranch, "failure branch has vanishing probability")
        rho_a = errors.state(DensityMatrix2, block)
    return PostSelectionOutcome(
        p_suc=p_suc, p_fail=p_fail, populations=pops, rho_pt=rho_pt, rho_a=rho_a
    )
