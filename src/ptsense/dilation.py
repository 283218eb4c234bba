"""Scheme I: embedding the PT-symmetric qubit in a four-dimensional
Hermitian system via a metric operator, and post-selecting back.

The auxiliary two-level subsystem is slaved to the PT subsystem by the metric
eta (chi = eta psi), which makes the joint norm <psi|(1 + eta^2)|psi> a
constant of motion; the enlarged evolution is therefore genuinely unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBranch, MetricSingular
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, _EYE, _abs2, per_point, su2_like_propagator, vector_norm
from .params import PtParams, per_entry
from .states import DensityMatrix2, DensityMatrix4, PureState4, _density_of, _finite, _result, _vector

__all__ = [
    "PostSelectionOutcome",
    "metric_operator",
    "d_metric",
    "dilate_initial",
    "hamiltonian_4d",
    "propagator_4d",
    "evolve_enlarged",
    "postselect",
]

_EP_MARGIN = 1e-12


@dataclass(frozen=True)
class PostSelectionOutcome:
    """Success/failure rates, raw populations and the conditioned states
    (for a row, arrays stacked along a leading axis and raw matrix stacks; see postselect).

    In the unbroken phase p_suc >= (omega - gamma)/(2 omega) > 0, so the
    success branch always exists; rho_a is None in the measure-zero case of
    a vanishing failure branch.
    """

    p_suc: float
    p_fail: float
    populations: np.ndarray
    rho_pt: DensityMatrix2
    rho_a: DensityMatrix2 | None


def metric_operator(p: PtParams) -> np.ndarray:
    """The Hermitian positive metric eta = (omega I + gamma sigma_y)/kappa, which links the
    auxiliary to the PT subsystem (chi = eta psi); the (n, 2, 2) stack for per-point parameters.

    Singular at the exceptional point; gamma/omega >= 1 - 1e-12 is rejected.
    """
    _nonsingular(p, "metric operator singular: gamma/omega = {:.12g}")
    w, g = per_point(p.omega, 2), per_point(p.gamma, 2)
    return (w * _EYE[2] + g * PAULI_Y) / per_point(p.kappa, 2)


def _nonsingular(p: PtParams, message: str) -> None:
    """MetricSingular, with the message formatted on gamma/omega, unless each entry's is below 1 - 1e-12."""
    for q in getattr(p, "entries", (p,)):  # the PtParams of each entry of per-point parameters
        if q.gamma / q.omega >= 1.0 - _EP_MARGIN:
            raise MetricSingular(message.format(q.gamma / q.omega))


def d_metric(p: PtParams) -> np.ndarray:
    """d(eta)/d(omega) = I/kappa - omega (omega I + gamma sigma_y)/kappa^3, written as
    -gamma (gamma I + omega sigma_y)/kappa^3, which has no cancellation near the EP."""
    w, g = per_point(p.omega, 2), per_point(p.gamma, 2)
    return -g * (g * _EYE[2] + w * PAULI_Y) / per_point(per_entry(p, lambda q: q.kappa ** 3), 2)


def _dilated(eta: np.ndarray, amps: np.ndarray):
    """(psi0, eta psi0)^T normalized, and its norm factor; unvalidated.  A stack of metrics gives a stack."""
    chi = eta @ amps
    raw = np.empty(chi.shape[:-1] + (4,), dtype=complex)
    raw[..., :2], raw[..., 2:] = amps, chi
    norm = vector_norm(raw)
    return raw / per_point(norm, 1), 1.0 / norm


def dilate_initial(psi0, p: PtParams) -> PureState4:
    """Normalized enlarged initial state (psi0, eta psi0)^T."""
    return _result(PureState4, None, *_dilated(metric_operator(p), _vector(psi0)))


def _blocks_4d(diagonal: float, off: float) -> np.ndarray:
    """[[d sigma_x, i o sigma_z], [-i o sigma_z, d sigma_x]], the form of H_4d and its derivative, or their stack."""
    out = np.empty(getattr(diagonal, "shape", ()) + (4, 4), dtype=complex)
    d, o = per_point(diagonal, 2), per_point(off, 2)
    out[..., :2, :2] = out[..., 2:, 2:] = d * PAULI_X
    out[..., :2, 2:] = 1j * o * PAULI_Z
    out[..., 2:, :2] = -1j * o * PAULI_Z
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
    _nonsingular(p, "enlarged Hamiltonian needs a non-singular metric")
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


def _d_hamiltonian_4d(p: PtParams) -> np.ndarray:
    """dH_4d/d(omega): the product rule on hamiltonian_4d's blocks, with d(kappa) = omega/kappa."""
    w, g = p.omega, p.gamma
    return _blocks_4d((w * w + g * g) / (2.0 * w * w), per_entry(p, lambda q: q.gamma ** 3) / (2.0 * p.kappa * w * w))


def _enlarged(eta: np.ndarray, psi):
    """Unvalidated amplitudes (psi, eta psi)/C_n of the enlarged state of a unit psi, and C_n."""
    chi = (eta @ psi[..., None])[..., 0]
    c_n = 1.0 / np.sqrt(1.0 + np.vecdot(chi, chi).real)
    return per_point(c_n, 1) * np.concatenate([psi, chi], axis=-1), c_n


def _rates(pops):
    """(p_suc, p_fail), the block sums of enlarged populations; EmptyBranch unless they add to 1."""
    p_suc, p_fail = pops[..., 0] + pops[..., 1], pops[..., 2] + pops[..., 3]
    total = p_suc + p_fail
    bad = abs(total - 1.0) > 1e-12
    if bad.any():
        raise EmptyBranch(f"branch probabilities do not sum to 1: {np.extract(bad, total)[0]:.15g}")
    return p_suc, p_fail


def _branches(a):
    """(pops, p_suc, p_fail): the populations |a_i|^2 of the enlarged amplitudes a (_enlarged) and
    their rates (_rates); InvalidMatrix unless a is finite."""
    pops = _abs2(_finite(a, "state vector"))
    return (pops, *_rates(pops))


def evolve_enlarged(psi0, p: PtParams, t) -> DensityMatrix4:
    """Rank-one density matrix of the enlarged state (psi_t, eta psi_t)^T / C_n (the (n, 4, 4) stack
    for a row of times), built from the PT subsystem and the metric rather than from propagator_4d;
    the tests cross-check the two paths.  The amplitudes are the point state's (metrology._point)."""
    from .metrology import _point  # metrology builds on this module

    a = _point(p, t, psi0).enlarged
    return _result(DensityMatrix4, t, a[..., :, None] * a.conj()[..., None, :])


def postselect(rho4) -> PostSelectionOutcome:
    """Collapse the enlarged state onto the PT (success) or auxiliary
    (failure) subsystem.

    rho4 is checked at entry unless it is a DensityMatrix4.  Both branch
    probabilities are computed from their own diagonal sums and checked to
    add to one, so a failure localizes to one branch.  For a row (rho4 an
    (n, 4, 4) stack, checked matrix by matrix) every field is stacked, the
    conditioned states are raw matrix stacks, and a check that fails at any
    point raises for the whole row; a row with no failure branch at some
    point raises EmptyBranch where one point returns rho_a = None.  Neither
    branch of an evolve_enlarged state falls below (omega - gamma)/(2 omega).
    """
    m = _density_of(rho4, DensityMatrix4)
    pops = np.diagonal(m, axis1=-2, axis2=-1).real.copy()
    p_suc, p_fail = _rates(pops)
    if (p_suc < 1e-14).any():
        raise EmptyBranch("success branch has vanishing probability")
    rho_pt = _result(DensityMatrix2, p_suc, m[..., :2, :2] / per_point(p_suc, 2))  # p_suc: one value per point
    if (p_fail >= 1e-14).all():
        rho_a = _result(DensityMatrix2, p_fail, m[..., 2:, 2:] / per_point(p_fail, 2))
    elif p_fail.ndim:
        raise EmptyBranch("failure branch has vanishing probability")
    else:
        rho_a = None
    return PostSelectionOutcome(
        p_suc=p_suc, p_fail=p_fail, populations=pops, rho_pt=rho_pt, rho_a=rho_a
    )
