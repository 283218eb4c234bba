"""Estimation-theoretic quantities: population shifts, susceptibilities,
SLD operators, quantum Fisher information, weighted (post-selected) QFI,
sensitivity bounds and post-selection resource metrics.

Derivative conventions
----------------------
All omega-derivatives are taken at fixed physical time t (the laboratory
clock), with the scaled time tau = kappa*t recomputed afterwards for
reporting; kappa depends on omega, so fixing tau instead would change every
curve.

Populations and susceptibilities use the physical parameterized states: the
state families exactly as an apparatus tuned to omega' would prepare them.

The enlarged-system QFI uses the channel picture: the probe and the metric
(hence the initial enlarged state) are frozen at the base omega and only the
unitary U_4d(omega) = exp(-i H_4d(omega) t) carries the parameter.  This is
the convention under which the weighted information of the two post-selected
branches exactly exhausts the enlarged-system information at the periodic
points (zeta(tau = 2*pi*n) = 1) and under which the |+>_y probe is optimal;
differentiating the metric inside the initial state breaks both properties.
The post-selected branch QFIs themselves are identical under either
convention (the metric only rescales the branch blocks, which renormalization
removes).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dilation import dilate_initial, evolve_enlarged, postselect, propagator_4d
from .errors import (
    InvalidDerivative,
    InvalidScheme,
    StepCrossesEp,
    UndefinedResourceMetrics,
)
from .lindblad import analytic_rho_3l, effective_evolve
from .params import PtParams
from .pt_system import evolve_density, evolve_state
from .states import plus_y, pure_density

__all__ = [
    "FdConfig",
    "QfiReport",
    "ResourceReport",
    "population_shift",
    "susceptibility",
    "susceptibility_pt",
    "susceptibility_a",
    "susceptibility_enlarged",
    "susceptibility_eff",
    "sld",
    "qfi_sld",
    "qfi_spectral",
    "qfi_two_level",
    "qfi_pure",
    "weighted_qfi_scheme1",
    "weighted_qfi_scheme2",
    "resource_metrics",
    "resource_report",
]

logger = logging.getLogger(__name__)

#: det(rho) below this selects the pure-state branch of the two-level QFI.
PURITY_EPS = 1e-10

#: Eigenvalue-sum support threshold for the SLD.
SLD_SUPPORT_EPS = 1e-12

#: Fraction of the distance to the exceptional point the FD step may use.
_EP_STEP_FRACTION = 0.25


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference policy for d/d(omega).

    h is the absolute step in rad/s; richardson extrapolates fourth order
    from steps h and h/2.
    """

    h: float
    richardson: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError("finite-difference step must be positive")

    @staticmethod
    def for_omega(omega: float, rel: float = 1e-6, richardson: bool = True) -> "FdConfig":
        return FdConfig(h=rel * omega, richardson=richardson)

    def validate_for(self, omega: float) -> None:
        if self.h > 1e-3 * omega:
            raise ValueError(f"step {self.h:g} exceeds 1e-3 * omega")


def _ep_safe_step(p: PtParams, fd: FdConfig) -> float:
    """Largest usable step: never let omega - h reach gamma."""
    fd.validate_for(p.omega)
    if p.gamma <= 0.0:
        return fd.h
    return min(fd.h, _EP_STEP_FRACTION * (p.omega - p.gamma))


def _central(values_fn, omega: float, h: float):
    return (values_fn(omega + h) - values_fn(omega - h)) / (2.0 * h)


def _derivative(values_fn, omega: float, h: float, richardson: bool):
    d_h = _central(values_fn, omega, h)
    if not richardson:
        return d_h
    d_h2 = _central(values_fn, omega, 0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0


def population_shift(scheme: str, p: PtParams, delta: float, t: float) -> float:
    """P1(omega + delta, t) - P1(omega, t) at fixed physical time.

    P1 is the level-1 population of the post-selected PT state ("pt"), of the
    enlarged Hermitian state ("enlarged"), or of the renormalized dissipative
    state ("eff"; identical to "pt" after renormalization and kept for
    interface parity across the two construction schemes).
    """
    if abs(delta) > 0.1 * p.omega:
        raise InvalidScheme(f"perturbation delta = {delta:g} exceeds 0.1 * omega")

    def level1(omega: float) -> float:
        q = p.with_omega(omega)
        if scheme in ("pt", "eff"):
            return evolve_state(plus_y(), q, t).population
        if scheme == "enlarged":
            return float(evolve_enlarged(plus_y(), q, t).populations[0])
        raise InvalidScheme(f"unknown scheme {scheme!r}")

    if delta == 0.0:
        level1(p.omega)  # still validates the scheme name
        return 0.0
    return level1(p.omega + delta) - level1(p.omega)


def susceptibility(state_fn, p: PtParams, t: float, index: int, fd: FdConfig) -> float:
    """Central-difference derivative of a population with respect to omega.

    state_fn(omega, t) must return the parameterized matrix; index selects
    the diagonal element.  Raises StepCrossesEp when omega - h would leave
    the unbroken phase for the requested step.
    """
    fd.validate_for(p.omega)
    if p.gamma > 0.0 and p.omega - fd.h <= p.gamma:
        raise StepCrossesEp(
            f"omega - h = {p.omega - fd.h:.9g} crosses gamma = {p.gamma:.9g}"
        )

    def pop(omega: float) -> float:
        return float(np.asarray(state_fn(omega, t))[index, index].real)

    return float(_derivative(pop, p.omega, fd.h, fd.richardson))


def susceptibility_pt(p: PtParams, t: float, fd: FdConfig) -> float:
    """d(rho_pt^11)/d(omega) for the probe |+>_y."""
    return susceptibility(
        lambda w, tt: evolve_density(pure_density(plus_y()), p.with_omega(w), tt).matrix,
        p, t, 0, fd,
    )


def susceptibility_a(p: PtParams, t: float, fd: FdConfig) -> float:
    """d(rho_A^11)/d(omega): failure-branch population derivative."""

    def state(w: float, tt: float) -> np.ndarray:
        out = postselect(evolve_enlarged(plus_y(), p.with_omega(w), tt))
        return out.rho_a.matrix

    return susceptibility(state, p, t, 0, fd)


def susceptibility_enlarged(p: PtParams, t: float, fd: FdConfig, index: int = 0) -> float:
    """d(rho_4d^{ii})/d(omega); index 0 is the PT subsystem, 2 the auxiliary."""
    return susceptibility(
        lambda w, tt: evolve_enlarged(plus_y(), p.with_omega(w), tt).matrix,
        p, t, index, fd,
    )


def susceptibility_eff(p: PtParams, t: float, fd: FdConfig) -> float:
    """d(varrho_eff^11)/d(omega) of the NON-normalized dissipative state.

    The decaying norm is part of the signal here; renormalizing first would
    reduce this to susceptibility_pt.
    """
    return susceptibility(
        lambda w, tt: effective_evolve(plus_y(), p.with_omega(w), tt).matrix,
        p, t, 0, fd,
    )


def _check_drho(drho: np.ndarray) -> np.ndarray:
    # finite differencing amplifies the ~1e-16 Hermiticity slack of validated
    # states by 1/(2h), so the guard is scale-aware rather than absolute
    d = np.asarray(drho, dtype=complex)
    if np.max(np.abs(d - d.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(d))):
        raise InvalidDerivative("density-matrix derivative is not Hermitian")
    return 0.5 * (d + d.conj().T)


def sld(rho, drho) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L)/2.

    Solved in the eigenbasis of rho as L_mn = 2 drho_mn / (eps_m + eps_n),
    skipping pairs with eps_m + eps_n < 1e-12 (support convention): the
    reconstruction is exact on the support subspace and the kernel-kernel
    block of L is set to zero.
    """
    mat = np.asarray(rho.matrix if hasattr(rho, "matrix") else rho, dtype=complex)
    d = _check_drho(drho)
    eps, basis = np.linalg.eigh(mat)
    d_eig = basis.conj().T @ d @ basis
    dim = mat.shape[0]
    l_eig = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            s = eps[i] + eps[j]
            if s > SLD_SUPPORT_EPS:
                l_eig[i, j] = 2.0 * d_eig[i, j] / s
    return basis @ l_eig @ basis.conj().T


def _clip_qfi(value: float) -> float:
    if value < 0.0:
        if value < -1e-9:
            logger.warning("QFI %.3e more negative than roundoff allowance; clipping", value)
        else:
            logger.debug("clipping roundoff-negative QFI %.3e to 0", value)
        return 0.0
    return float(value)


def qfi_sld(rho, drho) -> float:
    """QFI as Tr(rho L^2) with the SLD operator."""
    mat = np.asarray(rho.matrix if hasattr(rho, "matrix") else rho, dtype=complex)
    l_op = sld(mat, drho)
    return _clip_qfi(float(np.trace(mat @ l_op @ l_op).real))


def qfi_spectral(rho, drho, gap_tol: float = 1e-8) -> float:
    """QFI in the spectral (eigen-decomposition) form.

    Uses first-order perturbation theory for the eigensystem derivatives in
    the parallel-transport gauge:
      F = sum_n (d eps_n)^2/eps_n + sum_n 4 eps_n <d psi_n|d psi_n>
          - sum_{n!=m} 8 eps_n eps_m/(eps_n+eps_m) |<d psi_n|psi_m>|^2.
    Requires a non-degenerate spectrum (pairs closer than gap_tol are
    treated as carrying no rotation between them).
    """
    mat = np.asarray(rho.matrix if hasattr(rho, "matrix") else rho, dtype=complex)
    d = _check_drho(drho)
    eps, basis = np.linalg.eigh(mat)
    d_eig = basis.conj().T @ d @ basis
    dim = mat.shape[0]
    total = 0.0
    for n in range(dim):
        if eps[n] > SLD_SUPPORT_EPS:
            total += float(d_eig[n, n].real) ** 2 / eps[n]
    for n in range(dim):
        overlap = 0.0
        for m in range(dim):
            if m == n or abs(eps[n] - eps[m]) < gap_tol:
                continue
            overlap += abs(d_eig[m, n]) ** 2 / (eps[n] - eps[m]) ** 2
        total += 4.0 * eps[n] * overlap
    for n in range(dim):
        for m in range(dim):
            if m == n or abs(eps[n] - eps[m]) < gap_tol:
                continue
            s = eps[n] + eps[m]
            if s > SLD_SUPPORT_EPS:
                total -= 8.0 * eps[n] * eps[m] / s * abs(d_eig[m, n]) ** 2 / (eps[n] - eps[m]) ** 2
    return _clip_qfi(total)


def qfi_two_level(rho, drho) -> float:
    """Two-level QFI: Tr[(drho)^2] + Tr[(rho drho)^2]/det(rho).

    For det(rho) below PURITY_EPS the 1/det term is numerically explosive
    although its limit is finite, so the pure-state reduction
    2 Tr[(drho)^2] is used instead.
    """
    mat = np.asarray(rho.matrix if hasattr(rho, "matrix") else rho, dtype=complex)
    if mat.shape != (2, 2):
        raise InvalidScheme("qfi_two_level expects a 2x2 density matrix")
    d = _check_drho(drho)
    det = float(np.linalg.det(mat).real)
    if det < PURITY_EPS:
        return _clip_qfi(2.0 * float(np.trace(d @ d).real))
    rd = mat @ d
    return _clip_qfi(float(np.trace(d @ d).real) + float(np.trace(rd @ rd).real) / det)


def qfi_pure(psi, dpsi) -> float:
    """Pure-state QFI 4(<dpsi|dpsi> - |<psi|dpsi>|^2); projectively invariant."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    dv = np.asarray(dpsi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise InvalidDerivative("psi must be normalized to 1e-10")
    return _clip_qfi(4.0 * (float(np.vdot(dv, dv).real) - abs(np.vdot(v, dv)) ** 2))


@dataclass(frozen=True)
class QfiReport:
    """QFI variants and sensitivity bounds at one (gamma/omega, t) point.

    For the dilation scheme: f_suc/f_fail are the branch QFIs, f_total is the
    enlarged-system (channel) QFI, i_subs = i_suc + i_fail and
    i_total = f_total.  For the dissipative scheme: f_suc is the QFI of the
    renormalized (post-selected) state, f_total the QFI of the full
    three-level state, i_total = f_total * p_suc, and the failure fields are
    None.  delta_omega_* are the Cramer-Rao bounds 1/sqrt(N * I); infinite
    when the information vanishes.
    """

    scheme: str
    n_repetitions: int
    p_suc: float
    p_fail: float | None
    f_suc: float
    f_fail: float | None
    f_total: float
    i_suc: float
    i_fail: float | None
    i_subs: float | None
    i_total: float
    delta_omega_weighted: float
    delta_omega_total: float
    sld_suc: np.ndarray
    reliable: bool = True


@dataclass(frozen=True)
class ResourceReport:
    """Information cost xi and sensitivity loss zeta of post-selection;
    zeta = sqrt(1 - xi) by construction whenever i_total > 0."""

    xi: float
    zeta: float
    i_subs: float
    i_total: float


def _bound(information: float, n: int) -> float:
    return 1.0 / math.sqrt(n * information) if information > 0.0 else math.inf


def _branch_family(probe: np.ndarray, p: PtParams, t: float, which: str):
    """omega -> post-selected branch density matrix, at fixed t."""

    def family(omega: float) -> np.ndarray:
        out = postselect(evolve_enlarged(probe, p.with_omega(omega), t))
        return out.rho_pt.matrix if which == "suc" else out.rho_a.matrix

    return family


def weighted_qfi_scheme1(
    p: PtParams, t: float, fd: FdConfig, probe=None, n_repetitions: int = 1
) -> QfiReport:
    """Post-selected and total QFI for the dilation scheme.

    The branch QFIs are weighted by their branch probabilities at the base
    omega; the enlarged-system QFI is evaluated in the channel picture (see
    module docstring).  The finite-difference step is clamped so omega - h
    stays inside the unbroken phase.
    """
    if probe is None:
        probe = plus_y()
    elif hasattr(probe, "amplitudes"):
        probe = probe.amplitudes
    else:
        probe = np.asarray(probe, dtype=complex)
    h = _ep_safe_step(p, fd)

    base = postselect(evolve_enlarged(probe, p, t))
    suc_family = _branch_family(probe, p, t, "suc")
    fail_family = _branch_family(probe, p, t, "fail")
    d_suc = _derivative(suc_family, p.omega, h, fd.richardson)
    d_fail = _derivative(fail_family, p.omega, h, fd.richardson)
    f_suc = qfi_two_level(base.rho_pt, d_suc)
    f_fail = qfi_two_level(base.rho_a, d_fail)

    psi0 = dilate_initial(probe, p).amplitudes  # frozen at the base omega
    psi_base = propagator_4d(p, t) @ psi0

    def channel_family(omega: float) -> np.ndarray:
        return propagator_4d(p.with_omega(omega), t) @ psi0

    d_psi = _derivative(channel_family, p.omega, h, fd.richardson)
    f_total = qfi_pure(psi_base, d_psi)

    i_suc = f_suc * base.p_suc
    i_fail = f_fail * base.p_fail
    i_subs = i_suc + i_fail
    return QfiReport(
        scheme="dilation",
        n_repetitions=n_repetitions,
        p_suc=base.p_suc,
        p_fail=base.p_fail,
        f_suc=f_suc,
        f_fail=f_fail,
        f_total=f_total,
        i_suc=i_suc,
        i_fail=i_fail,
        i_subs=i_subs,
        i_total=f_total,
        delta_omega_weighted=_bound(i_subs, n_repetitions),
        delta_omega_total=_bound(f_total, n_repetitions),
        sld_suc=sld(base.rho_pt, d_suc),
    )


def weighted_qfi_scheme2(p: PtParams, t: float, fd: FdConfig, n_repetitions: int = 1) -> QfiReport:
    """Post-selected and total QFI for the dissipative three-level scheme.

    f_total is the QFI of the normalized three-level state, which decomposes
    as the classical information of the success rate plus the success-rate
    weighted QFI of the conditioned state; it vanishes at the steady state,
    which carries no parameter information.  i_total = f_total * p_suc is
    the repeated-averaged information.
    """
    h = _ep_safe_step(p, fd)
    base3 = analytic_rho_3l(p, t)
    p_suc = float(base3.matrix[0, 0].real + base3.matrix[1, 1].real)

    def family3(omega: float) -> np.ndarray:
        return analytic_rho_3l(p.with_omega(omega), t).matrix

    d3 = _derivative(family3, p.omega, h, fd.richardson)
    f_total = qfi_sld(base3.matrix, d3)

    def conditioned(omega: float) -> np.ndarray:
        return effective_evolve(plus_y(), p.with_omega(omega), t).normalized().matrix

    rho_cond = effective_evolve(plus_y(), p, t).normalized()
    d_cond = _derivative(conditioned, p.omega, h, fd.richardson)
    f_suc = qfi_two_level(rho_cond, d_cond)

    i_total = f_total * p_suc
    reliable = p_suc >= 1e-12
    if not reliable:
        logger.warning("success rate %.3e below 1e-12; scheme-2 report unreliable", p_suc)
    return QfiReport(
        scheme="lindblad",
        n_repetitions=n_repetitions,
        p_suc=p_suc,
        p_fail=None,
        f_suc=f_suc,
        f_fail=None,
        f_total=f_total,
        i_suc=f_suc * p_suc,
        i_fail=None,
        i_subs=None,
        i_total=i_total,
        delta_omega_weighted=_bound(i_total, n_repetitions),
        delta_omega_total=_bound(f_total, n_repetitions),
        sld_suc=sld(rho_cond, d_cond),
        reliable=reliable,
    )


def resource_metrics(p: PtParams, t: float, fd: FdConfig, probe=None) -> ResourceReport:
    """Information cost xi = 1 - i_subs/i_total and loss zeta = sqrt(i_subs/i_total).

    zeta^2 + xi = 1 holds exactly by construction.  The branch information is
    measured on the physical post-selected families while the reference is
    the channel information (module docstring), so xi can undershoot zero by
    a few 1e-3 just before the periodic points, where the true cost vanishes;
    such values are reported as-is rather than clipped, to keep the identity
    exact.
    """
    return resource_report(weighted_qfi_scheme1(p, t, fd, probe=probe))


def resource_report(report: QfiReport) -> ResourceReport:
    """xi and zeta of a scheme-1 QfiReport; see resource_metrics.

    Raises UndefinedResourceMetrics when the enlarged-system information
    vanishes, since the ratio then has no reference to normalize by.
    """
    if report.i_total <= 1e-12:
        raise UndefinedResourceMetrics(
            f"enlarged-system information {report.i_total:.3e} too small to normalize"
        )
    ratio = report.i_subs / report.i_total
    if ratio < 0.0:  # i_subs is a sum of clipped-nonnegative terms
        ratio = 0.0
    if abs(1.0 - ratio) < 1e-8:
        ratio = 1.0  # roundoff at gamma = 0, where the split is lossless
    xi = 1.0 - ratio
    if xi < 0.0:
        logger.debug("information cost %.3e below zero (convention mismatch window)", xi)
    zeta = math.sqrt(ratio)
    return ResourceReport(xi=xi, zeta=zeta, i_subs=report.i_subs, i_total=report.i_total)
