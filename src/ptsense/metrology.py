"""Estimation-theoretic quantities: population shifts, susceptibilities,
SLD operators, quantum Fisher information, weighted (post-selected) QFI,
sensitivity bounds and post-selection resource metrics.

Derivative conventions
----------------------
All omega-derivatives are taken at fixed physical time t (the laboratory
clock), with the scaled time tau = kappa*t recomputed afterwards for
reporting; kappa depends on omega, so fixing tau instead would change every
curve.

The QFIs take their derivatives in closed form: every propagator is
cos(c t) I - i t sinc(c t) H with c^2 = kappa^2/4, whose omega-derivative
(linalg.su2_like_tangent) is regular on the whole unbroken phase, the
exceptional point included.  Each QFI is then the pure-state QFI of one
vector family and its exact tangent.  Only the susceptibilities still use
central differences (FdConfig).

Populations and susceptibilities use the physical parameterized states: the
state families exactly as an apparatus tuned to omega' would prepare them.

The enlarged-system QFI uses the channel picture: the probe and the metric
(hence the initial enlarged state) are frozen at the base omega and only the
unitary U_4d(omega) = exp(-i H_4d(omega) t) carries the parameter.  This is
the convention under which the weighted information of the two post-selected
branches exhausts the enlarged-system information at the periodic points
(zeta(tau = 2*pi*n) = 1) and under which the |+>_y probe is optimal;
differentiating the metric inside the initial state breaks both properties.
The post-selected branch QFIs, however, are taken on the physical branch
families: the success branch U_pt(omega) psi0 and the failure branch
eta(omega) U_pt(omega) psi0.  They differ from the channel-picture branch
QFIs (by up to 99% for f_suc and 255x for f_fail on gamma/omega in
{0.3, 0.6, 0.9}), so the information cost xi mixes two conventions and can
fall below zero for some probes.

Row evaluation
--------------
The QFI evaluators, resource_metrics, population_shift, the
susceptibilities and the QFI forms they use are row-batched: given
errors=states.PointErrors(n) and an array of n times (stacks of n states and
derivatives for the QFI forms), each evaluates one (gamma, omega, probe) row
in one call and returns n values per field.  Every family of states
is then a stack of matrices, every check runs on the whole stack, and a point
whose check fails gets the error it would have raised on its own.  Called
with one time (errors=RAISE, the default), the same code is the scalar API,
and a failed check raises.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dilation import (
    d_metric,
    d_propagator_4d,
    dilate_initial,
    evolve_enlarged,
    metric_operator,
    postselect,
    propagator_4d,
)
from .errors import (
    EmptyBranch,
    InvalidDerivative,
    InvalidMatrix,
    InvalidScheme,
    StepCrossesEp,
    UndefinedResourceMetrics,
)
from .lindblad import analytic_rho_3l, effective_evolve
from .linalg import dagger, per_element, per_point, vector_norm
from .params import PtParams
from .pt_system import d_propagator_pt, evolve_density, evolve_state, norm_growth, propagator_pt
from .states import RAISE, DensityMatrix2, plus_y, pure_density

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
    "qfi_pt",
    "resource_metrics",
    "resource_report",
]

logger = logging.getLogger(__name__)

#: det(rho) below this selects the pure-state branch of the two-level QFI.
PURITY_EPS = 1e-10

#: Eigenvalue-sum support threshold for the SLD.
SLD_SUPPORT_EPS = 1e-12

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


def _central(values_fn, omega: float, h: float):
    return (values_fn(omega + h) - values_fn(omega - h)) / (2.0 * h)


def _derivative(values_fn, omega: float, h: float, richardson: bool):
    d_h = _central(values_fn, omega, h)
    if not richardson:
        return d_h
    d_h2 = _central(values_fn, omega, 0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0


def _matrix(state) -> np.ndarray:
    """The matrix of a validated state, or the stack a row evaluation returned."""
    if state is None:  # postselect found no failure branch
        raise EmptyBranch("failure branch has vanishing probability")
    return state.matrix if hasattr(state, "matrix") else np.asarray(state, dtype=complex)


def _value(x):
    """A Python float for one point; the array itself for a row."""
    return x if getattr(x, "ndim", 0) else float(x)


def _square(x: float) -> float:
    return x ** 2


def _probe(probe) -> np.ndarray:
    if probe is None:
        return plus_y()
    if hasattr(probe, "amplitudes"):
        return probe.amplitudes
    return np.asarray(probe, dtype=complex)


def population_shift(scheme: str, p: PtParams, delta: float, t, errors=RAISE) -> float:
    """P1(omega + delta, t) - P1(omega, t) at fixed physical time.

    P1 is the level-1 population of the post-selected PT state ("pt"), of the
    enlarged Hermitian state ("enlarged"), or of the renormalized dissipative
    state ("eff"; identical to "pt" after renormalization and kept for
    interface parity across the two construction schemes).  Takes a row like
    the susceptibilities below.
    """
    if abs(delta) > 0.1 * p.omega:
        raise InvalidScheme(f"perturbation delta = {delta:g} exceeds 0.1 * omega")

    def level1(omega: float):
        q = p.with_omega(omega)
        if scheme in ("pt", "eff"):
            state = evolve_state(plus_y(), q, t, errors)
            a = (state.amplitudes if hasattr(state, "amplitudes") else state)[..., 0]
            return per_element(_square, np.hypot(a.real, a.imag))  # rounds as abs(a) ** 2
        if scheme == "enlarged":
            return _matrix(evolve_enlarged(plus_y(), q, t, errors))[..., 0, 0].real
        raise InvalidScheme(f"unknown scheme {scheme!r}")

    if delta == 0.0:
        return _value(np.zeros_like(level1(p.omega)))  # still validates the scheme name
    return _value(level1(p.omega + delta) - level1(p.omega))


def susceptibility(state_fn, p: PtParams, t, index, fd: FdConfig):
    """Central-difference derivative of a population with respect to omega.

    state_fn(omega, t) must return the parameterized matrix (for an array of
    times, the stack of matrices); index selects the diagonal element, and a
    tuple of indices gives one derivative per index along a last axis.
    Raises StepCrossesEp when omega - h would leave the unbroken phase for
    the requested step.
    """
    fd.validate_for(p.omega)
    if p.gamma > 0.0 and p.omega - fd.h <= p.gamma:
        raise StepCrossesEp(
            f"omega - h = {p.omega - fd.h:.9g} crosses gamma = {p.gamma:.9g}"
        )

    def pop(omega: float):
        return np.asarray(state_fn(omega, t))[..., index, index].real

    return _value(_derivative(pop, p.omega, fd.h, fd.richardson))


def susceptibility_pt(p: PtParams, t, fd: FdConfig, errors=RAISE):
    """d(rho_pt^11)/d(omega) for the probe |+>_y."""
    rho0 = pure_density(plus_y())
    return susceptibility(
        lambda w, tt: _matrix(evolve_density(rho0, p.with_omega(w), tt, errors)), p, t, 0, fd
    )


def susceptibility_a(p: PtParams, t, fd: FdConfig, errors=RAISE):
    """d(rho_A^11)/d(omega): failure-branch population derivative."""

    def state(w: float, tt):
        return _matrix(postselect(evolve_enlarged(plus_y(), p.with_omega(w), tt, errors), errors).rho_a)

    return susceptibility(state, p, t, 0, fd)


def susceptibility_enlarged(p: PtParams, t, fd: FdConfig, index=0, errors=RAISE):
    """d(rho_4d^{ii})/d(omega); index 0 is the PT subsystem, 2 the auxiliary
    ((0, 2) gives both from one evaluation of the state family)."""
    return susceptibility(
        lambda w, tt: _matrix(evolve_enlarged(plus_y(), p.with_omega(w), tt, errors)), p, t, index, fd
    )


def susceptibility_eff(p: PtParams, t, fd: FdConfig, errors=RAISE):
    """d(varrho_eff^11)/d(omega) of the NON-normalized dissipative state.

    The decaying norm is part of the signal here; renormalizing first would
    reduce this to susceptibility_pt.
    """
    return susceptibility(
        lambda w, tt: _matrix(effective_evolve(plus_y(), p.with_omega(w), tt, errors)), p, t, 0, fd
    )


def _check_drho(drho, errors=RAISE) -> np.ndarray:
    # finite differencing amplifies the ~1e-16 Hermiticity slack of validated
    # states by 1/(2h), so the guard is scale-aware rather than absolute
    d = np.asarray(drho, dtype=complex)
    d_h = dagger(d)
    scale = np.maximum(1.0, np.abs(d).max(axis=(-2, -1)))
    errors.flag(np.abs(d - d_h).max(axis=(-2, -1)) > 1e-8 * scale, InvalidDerivative,
                "density-matrix derivative is not Hermitian")
    return 0.5 * (d + d_h)


def sld(rho, drho, errors=RAISE) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L)/2.

    Solved in the eigenbasis of rho as L_mn = 2 drho_mn / (eps_m + eps_n),
    skipping pairs with eps_m + eps_n < 1e-12 (support convention): the
    reconstruction is exact on the support subspace and the kernel-kernel
    block of L is set to zero.
    """
    mat = _matrix(rho)
    d = _check_drho(drho, errors)
    eps, basis = np.linalg.eigh(mat)
    basis_h = dagger(basis)
    d_eig = basis_h @ d @ basis
    s = eps[..., :, None] + eps[..., None, :]
    support = s > SLD_SUPPORT_EPS
    l_eig = np.where(support, 2.0 * d_eig / np.where(support, s, 1.0), 0.0)
    return basis @ l_eig @ basis_h


def _clip_qfi(value, errors=RAISE):
    value = np.asarray(value, dtype=float)
    negative = value < 0.0
    if not negative.any():
        return _value(value)
    for i in errors.points(negative):
        if value[i] < -1e-9:
            logger.warning("QFI %.3e more negative than roundoff allowance; clipping", value[i])
        else:
            logger.debug("clipping roundoff-negative QFI %.3e to 0", value[i])
    return _value(np.where(negative, 0.0, value))


def qfi_sld(rho, drho, errors=RAISE) -> float:
    """QFI as Tr(rho L^2) with the SLD operator."""
    mat = _matrix(rho)
    l_op = sld(mat, drho, errors)
    return _clip_qfi((mat @ l_op @ l_op).trace(axis1=-2, axis2=-1).real, errors)


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


def qfi_two_level(rho, drho, errors=RAISE) -> float:
    """Two-level QFI: Tr[(drho)^2] + Tr[(rho drho)^2]/det(rho).

    For det(rho) below PURITY_EPS the 1/det term is numerically explosive
    although its limit is finite, so the pure-state reduction
    2 Tr[(drho)^2] is used instead.
    """
    mat = _matrix(rho)
    if mat.shape[-2:] != (2, 2):
        raise InvalidScheme("qfi_two_level expects a 2x2 density matrix")
    d = _check_drho(drho, errors)
    det = np.linalg.det(mat).real
    pure = det < PURITY_EPS
    dd = (d @ d).trace(axis1=-2, axis2=-1).real
    if pure.all():  # branch states of a pure probe are pure
        return _clip_qfi(2.0 * dd, errors)
    rd = mat @ d
    mixed = dd + (rd @ rd).trace(axis1=-2, axis2=-1).real / np.where(pure, 1.0, det)
    return _clip_qfi(np.where(pure, 2.0 * dd, mixed), errors)


def qfi_pure(psi, dpsi, errors=RAISE) -> float:
    """Pure-state QFI 4(<dpsi|dpsi> - |<psi|dpsi>|^2); projectively invariant.

    Evaluated as 4 |dpsi - <psi|dpsi> psi|^2, the squared norm of the part of
    dpsi off psi, which does not cancel when dpsi is nearly parallel to psi.
    """
    shape = (-1,) if errors is RAISE else (len(errors.errors), -1)
    v = np.asarray(psi, dtype=complex).reshape(shape)
    dv = np.asarray(dpsi, dtype=complex).reshape(shape)
    errors.flag(abs(vector_norm(v) - 1.0) > 1e-10, InvalidDerivative, "psi must be normalized to 1e-10")
    u = dv - per_point(np.vecdot(v, dv), 1) * v
    return _value(4.0 * (np.vecdot(u.real, u.real) + np.vecdot(u.imag, u.imag)))


@dataclass(frozen=True)
class QfiReport:
    """QFI variants and sensitivity bounds at one (gamma/omega, t) point.

    For the dilation scheme: f_suc/f_fail are the branch QFIs, f_total is the
    enlarged-system (channel) QFI, i_subs = i_suc + i_fail and
    i_total = f_total.  For the dissipative scheme: f_suc is the QFI of the
    renormalized (post-selected) state, f_total the QFI of the full
    three-level state, i_total = f_total * p_suc, and the failure fields are
    None.  delta_omega_* are the Cramer-Rao bounds 1/sqrt(N * I); infinite
    when the information vanishes.  The report of a row holds one array of
    values per field, and sld_suc stacks one SLD per point.
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


def _bound(information, n: int):
    return per_element(lambda info: 1.0 / math.sqrt(n * info) if info > 0.0 else math.inf, information)


def _direction(v, dv):
    """(v/|v|, dv/|v|) of a vector family v(omega) and its derivative, or of stacks of them.

    The pure-state QFI of the pair is that of the normalized family: dv/|v|
    differs from the derivative of v/|v| only by a real multiple of v/|v|.
    """
    norm = per_point(vector_norm(v), 1)
    return v / norm, dv / norm


def _projector_tangent(psi, dpsi) -> np.ndarray:
    """d(|psi><psi|)/d(omega) of a unit vector psi, from a tangent exact up to a multiple of psi."""
    u = dpsi - per_point(np.vecdot(psi, dpsi).real, 1) * psi
    return u[..., :, None] * psi.conj()[..., None, :] + psi[..., :, None] * u.conj()[..., None, :]


def _pt_family(p: PtParams, t, probe):
    """v = U_pt(omega, t) psi0 and its exact omega-derivative at fixed t."""
    return propagator_pt(p, t) @ probe, d_propagator_pt(p, t) @ probe


def _apply(m: np.ndarray, v) -> np.ndarray:
    """m v for a vector, or for each vector of a stack."""
    return (m @ v[..., None])[..., 0]


def weighted_qfi_scheme1(
    p: PtParams, t, fd: FdConfig | None = None, probe=None, n_repetitions: int = 1, errors=RAISE
) -> QfiReport:
    """Post-selected and total QFI for the dilation scheme.

    With v = U_pt psi0, f_suc is the pure-state QFI of (v, dv) and f_fail that
    of (eta v, d(eta) v + eta dv), the physical branch families; f_total is the
    enlarged-system QFI of (U_4d psi4_0, dU_4d psi4_0) in the channel picture
    (module docstring).  The branch QFIs are weighted by their probabilities
    at the base omega.  fd is accepted for compatibility and not used: every
    derivative is exact.
    """
    probe = _probe(probe)
    base = postselect(evolve_enlarged(probe, p, t, errors), errors)

    v, dv = _pt_family(p, t, probe)
    eta = metric_operator(p).eta
    psi, dpsi = _direction(v, dv)
    f_suc = qfi_pure(psi, dpsi, errors)
    f_fail = qfi_pure(*_direction(_apply(eta, v), _apply(d_metric(p), v) + _apply(eta, dv)), errors)

    psi0 = dilate_initial(probe, p).amplitudes  # frozen at the base omega
    f_total = qfi_pure(propagator_4d(p, t) @ psi0, d_propagator_4d(p, t) @ psi0, errors)

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
        sld_suc=sld(base.rho_pt, _projector_tangent(psi, dpsi), errors),
    )


#: 1/x overflows for a positive double x at or below 2^-1024 (a subnormal).
_MIN_DIVISOR = 2.0 ** -1024


def _normalized(rho_eff, errors) -> DensityMatrix2:
    """rho_eff / Tr(rho_eff), the post-selected state of the dissipative scheme.

    numpy divides a complex matrix by x as a product with 1/x, so a trace at
    or below _MIN_DIVISOR (deep decay) is rejected before the division.
    """
    m = _matrix(rho_eff)
    tr = m.trace(axis1=-2, axis2=-1).real
    tiny = tr <= _MIN_DIVISOR
    errors.flag(tiny, InvalidMatrix, lambda i: f"effective state trace {tr[i]:.3e} too small to normalize")
    return errors.state(DensityMatrix2, m / per_point(errors.guard(tr, tiny), 2))


def weighted_qfi_scheme2(
    p: PtParams, t, fd: FdConfig | None = None, n_repetitions: int = 1, errors=RAISE
) -> QfiReport:
    """Post-selected and total QFI for the dissipative three-level scheme.

    The three-level state is |phi><phi| + (1-p)|3><3| with
    phi = e^{-gamma t/2} v, v = U_pt psi0 and p = |phi|^2.  At fixed t the
    decay factor does not depend on omega, so f_suc is the pure-state QFI of
    (v, dv) and f_total = p (d log|v|^2)^2/(1-p) + p f_suc: the classical
    information of the success rate plus the success-weighted QFI of the
    conditioned state.  log p = -gamma t + log|v|^2 and 1-p = -expm1(log p),
    with |v|^2 - 1 and its derivative from pt_system.norm_growth, keep both
    terms accurate in deep decay and for tiny gamma; at p = 1 the first term
    is 0.  f_total vanishes at the steady state, which carries no parameter
    information.  i_total = f_total * p_suc is the repeated-averaged
    information.  fd is accepted for compatibility and not used.
    """
    base3 = _matrix(analytic_rho_3l(p, t, errors))
    p_suc = base3[..., 0, 0].real + base3[..., 1, 1].real
    rho_cond = _normalized(effective_evolve(plus_y(), p, t, errors), errors)

    psi, dpsi = _direction(*_pt_family(p, t, plus_y()))
    f_suc = qfi_pure(psi, dpsi, errors)
    growth, d_growth = norm_growth(p, t, plus_y())  # |v|^2 = 1 + gamma growth
    d_log = p.gamma * d_growth / (1.0 + p.gamma * growth)
    log_p = -p.gamma * t + per_element(math.log1p, p.gamma * growth)
    survival, decayed = per_element(math.exp, log_p), -per_element(math.expm1, log_p)
    some_decay = decayed > 0.0
    classical = np.where(some_decay, survival * d_log * d_log / np.where(some_decay, decayed, 1.0), 0.0)
    f_total = _value(classical + survival * f_suc)

    i_total = f_total * p_suc
    reliable = p_suc >= 1e-12
    for i in errors.points(~reliable):
        logger.warning("success rate %.3e below 1e-12; scheme-2 report unreliable", p_suc[i])
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
        sld_suc=sld(rho_cond, _projector_tangent(psi, dpsi), errors),
        reliable=reliable if getattr(reliable, "ndim", 0) else bool(reliable),
    )


def qfi_pt(p: PtParams, t, fd: FdConfig | None = None, probe=None, errors=RAISE) -> float:
    """QFI in omega of the normalized PT state, at fixed t: the pure-state QFI of
    (v, dv) with v = U_pt psi0.  fd is accepted for compatibility and not used."""
    probe = _probe(probe)
    evolve_density(pure_density(probe), p, t, errors)  # the state's own checks
    return qfi_pure(*_direction(*_pt_family(p, t, probe)), errors)


def resource_metrics(p: PtParams, t, fd: FdConfig | None = None, probe=None, errors=RAISE) -> ResourceReport:
    """Information cost xi = 1 - i_subs/i_total and loss zeta = sqrt(i_subs/i_total).

    zeta^2 + xi = 1 holds exactly by construction.  The branch information is
    measured on the physical post-selected families while the reference is
    the channel information (module docstring), so xi can undershoot zero by
    a few 1e-3 just before the periodic points, where the true cost vanishes;
    such values are reported as-is rather than clipped, to keep the identity
    exact.
    """
    return resource_report(weighted_qfi_scheme1(p, t, probe=probe, errors=errors), errors)


def resource_report(report: QfiReport, errors=RAISE) -> ResourceReport:
    """xi and zeta of a scheme-1 QfiReport (of a row: errors=PointErrors(n));
    see resource_metrics.

    Raises UndefinedResourceMetrics when the enlarged-system information
    vanishes, since the ratio then has no reference to normalize by.
    """
    i_total = np.asarray(report.i_total, dtype=float)
    vanishing = i_total <= 1e-12
    errors.flag(vanishing, UndefinedResourceMetrics,
                lambda i: f"enlarged-system information {i_total[i]:.3e} too small to normalize")
    ratio = report.i_subs / errors.guard(i_total, vanishing)
    ratio = np.where(ratio < 0.0, 0.0, ratio)  # i_subs is a sum of clipped-nonnegative terms
    ratio = np.where(abs(1.0 - ratio) < 1e-8, 1.0, ratio)  # roundoff at gamma = 0, where the split is lossless
    xi = 1.0 - ratio
    for i in errors.points(xi < 0.0):
        logger.debug("information cost %.3e below zero (convention mismatch window)", xi[i])
    return ResourceReport(xi=_value(xi), zeta=_value(np.sqrt(ratio)), i_subs=report.i_subs, i_total=report.i_total)
