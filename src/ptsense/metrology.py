"""Estimation-theoretic quantities: population shifts, susceptibilities,
SLD operators, quantum Fisher information, weighted (post-selected) QFI,
sensitivity bounds and post-selection resource metrics.

Derivative conventions
----------------------
All omega-derivatives are taken at fixed physical time t (the laboratory
clock), with the scaled time tau = kappa*t recomputed afterwards for
reporting; kappa depends on omega, so fixing tau instead would change every
curve.

They are taken in closed form.  Every propagator is
U = cos(c t) I - i t sinc(c t) H with c^2 = kappa^2/4: linalg._propagator
builds it and linalg._tangent its omega-derivative, which is regular on the
whole unbroken phase, the exceptional point included.  No derivative depends
on a step size.

Populations and susceptibilities use the physical parameterized states: the
state families exactly as an apparatus tuned to omega' would prepare them.

Scheme 1 reads one family, the channel: the probe and the metric (hence the
initial enlarged state psi4_0) are frozen at the base omega and only the
unitary U_4d(omega) = exp(-i H_4d(omega) t) carries the parameter.  f_total
is the QFI of a = U_4d psi4_0, and f_suc and f_fail those of its normalized
success and failure blocks a_s and a_f.  Under one family the block
measurement cannot add information (Braunstein & Caves 1994), and the
enlarged-system QFI splits exactly into
  f_total = i_subs + F_C + F_coh,
  F_C = 4 (Re z_s)^2/(p_s p_f),  F_coh = 4 (p_f Im z_s - p_s Im z_f)^2/(p_s p_f),
with z_b = <a_b|da_b> and p_b = |a_b|^2: the weighted branch information, the
information in which branch fired and that in the coherence between the
branches.  The information cost xi = (F_C + F_coh)/S and the loss
zeta = sqrt(i_subs/S), S = i_subs + F_C + F_coh, are ratios of sums of
nonnegative terms, so xi lies in [0, 1] at every point.  This is also the
convention under which zeta(tau = 2*pi*n) = 1 and the |+>_y probe is optimal.

Pure states
-----------
weighted_qfi_scheme1/2 and resource_metrics read pure states only: each QFI
is qfi_pure of a vector and its exact tangent, and each branch rate a block
sum of squared amplitudes.  No intermediate density matrix is built and no
eigensolver runs.  Every point of the unbroken phase runs the same code, deep
decay included: there scheme 2's success rate is the double it is
(subnormal, or 0) and its QFIs stay finite.

Row evaluation and the point state
----------------------------------
The QFI evaluators, resource_metrics, population_shift, the
susceptibilities, sld, qfi_sld and qfi_two_level are row-batched: given a
1-D array of n times (stacks of n states and derivatives for the QFI forms),
each returns n values per field, bit for bit the values of n one-point calls.
Each evaluator on the sweep path (these and dilation.evolve_enlarged) reads
one _State of its point or row: the PT family (v, dv), the metric, the
enlarged amplitudes, the channel and the reports, each built on first read.
A sweep builds one for all its (gamma, delta) entries, stacked on one row at
per-point parameters (params.PointParams), each entry a slice (sweeps._Stack):
the kernels build (n, d, d) stacks and derive each scalar per entry as a
one-point call does, so a column runs its evaluator's code once per sweep.
_point keeps the last one-point call's state for the next call at the same
omega, gamma, t and probe, bit for bit: one state, never a row's, and no part
that raised.  Every check runs once on the whole call and raises if any point
fails it, with the class a failing point raises alone.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dilation import _branches, _d_hamiltonian_4d, _dilated, _enlarged, d_metric, hamiltonian_4d, metric_operator
from .errors import EmptyBranch, InvalidDerivative, InvalidScheme
from .linalg import (PAULI_X, _abs2, _cos_sinc, _propagator, _tangent, dagger, per_element, per_point, sinc_slope,
                     vector_norm)
from .lindblad import _decayed
from .params import PtParams
from .pt_system import _direction, _norm_growth, _phase, hamiltonian_pt
from .states import _finite, _vector, plus_y

__all__ = [
    "FdConfig",
    "QfiReport",
    "ResourceReport",
    "population_shift",
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
]

logger = logging.getLogger(__name__)

#: det(rho) below this selects the pure-state branch of the two-level QFI.
PURITY_EPS = 1e-10

#: Eigenvalue-sum support threshold for the SLD.
SLD_SUPPORT_EPS = 1e-12

@dataclass(frozen=True)
class FdConfig:
    """Finite-difference step policy (h in rad/s) that nothing reads: every omega-derivative
    is exact.  It stays only because perfbench/workloads.py passes FdConfig.for_omega
    positionally to weighted_qfi_scheme1/2 and resource_metrics, which ignore it; the
    benchmark refresh (ROADMAP item 14) removes it."""

    h: float
    richardson: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError("finite-difference step must be positive")

    @staticmethod
    def for_omega(omega: float, rel: float = 1e-6, richardson: bool = True) -> "FdConfig":
        return FdConfig(h=rel * omega, richardson=richardson)


def _matrix(state) -> np.ndarray:
    """The matrix of a validated state, or the stack a row evaluation returned."""
    if state is None:  # postselect found no failure branch
        raise EmptyBranch("failure branch has vanishing probability")
    return state.matrix if hasattr(state, "matrix") else np.asarray(state, dtype=complex)


def _value(x):
    """A Python float for one point; the array itself for a row."""
    return x if getattr(x, "ndim", 0) else float(x)


def population_shift(scheme: str, p: PtParams, delta: float, t) -> float:
    """P1(omega + delta, t) - P1(omega, t) at fixed physical time, for the probe |+>_y.

    P1 is the level-1 population of the normalized PT state ("pt"), which is
    also that of the renormalized dissipative state, or of the enlarged
    Hermitian state ("enlarged"), read from the family U_pt |+>_y at each
    coupling (_level1).  Takes a row like the susceptibilities below.
    """
    if abs(delta) > 0.1 * p.omega:
        raise InvalidScheme(f"perturbation delta = {delta:g} exceeds 0.1 * omega")
    base = _level1(scheme, _State(p, t, plus_y()))
    _finite(t, "time")  # after the scheme name and the metric, which are checked first
    if delta == 0.0:
        return _value(np.zeros_like(base))
    return _value(_level1(scheme, _State(PtParams(p.omega + delta, p.gamma), t, plus_y())) - base)


def _level1(scheme: str, s: "_State"):
    """P1 of population_shift from the state s: |psi_1|^2 of the normalized PT state ("pt"), or
    |a_1|^2 of the enlarged state ("enlarged")."""
    if scheme == "pt":
        return _abs2(s.psi)[..., 0]
    if scheme == "enlarged":
        return s.branches[0][..., 0]
    raise InvalidScheme(f"unknown scheme {scheme!r}")


def _check_drho(drho) -> np.ndarray:
    # a derivative taken by finite differences (the oracles in tests/oracles.py)
    # carries the ~1e-16 Hermiticity slack of its states times 1/(2h), so the
    # guard is scale-aware rather than absolute
    d = np.asarray(drho, dtype=complex)
    d_h = dagger(d)
    scale = np.maximum(1.0, np.abs(d).max(axis=(-2, -1)))
    if (np.abs(d - d_h).max(axis=(-2, -1)) > 1e-8 * scale).any():
        raise InvalidDerivative("density-matrix derivative is not Hermitian")
    return 0.5 * (d + d_h)


def sld(rho, drho) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L)/2.

    Solved in the eigenbasis of rho as L_mn = 2 drho_mn / (eps_m + eps_n),
    skipping pairs with eps_m + eps_n < 1e-12 (support convention): the
    reconstruction is exact on the support subspace and the kernel-kernel
    block of L is set to zero.
    """
    mat = _matrix(rho)
    d = _check_drho(drho)
    eps, basis = np.linalg.eigh(mat)
    basis_h = dagger(basis)
    d_eig = basis_h @ d @ basis
    s = eps[..., :, None] + eps[..., None, :]
    support = s > SLD_SUPPORT_EPS
    l_eig = np.where(support, 2.0 * d_eig / np.where(support, s, 1.0), 0.0)
    return basis @ l_eig @ basis_h


def _clip_qfi(value):
    value = np.asarray(value, dtype=float)
    negative = value < 0.0
    if not negative.any():
        return _value(value)
    for v in value[negative]:
        if v < -1e-9:
            logger.warning("QFI %.3e more negative than roundoff allowance; clipping", v)
        else:
            logger.debug("clipping roundoff-negative QFI %.3e to 0", v)
    return _value(np.where(negative, 0.0, value))


def qfi_sld(rho, drho) -> float:
    """QFI as Tr(rho L^2) with the SLD operator."""
    mat = _matrix(rho)
    l_op = sld(mat, drho)
    return _clip_qfi((mat @ l_op @ l_op).trace(axis1=-2, axis2=-1).real)


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
    mat = _matrix(rho)
    if mat.shape[-2:] != (2, 2):
        raise InvalidScheme("qfi_two_level expects a 2x2 density matrix")
    d = _check_drho(drho)
    det = np.linalg.det(mat).real
    pure = det < PURITY_EPS
    dd = (d @ d).trace(axis1=-2, axis2=-1).real
    if pure.all():  # branch states of a pure probe are pure
        return _clip_qfi(2.0 * dd)
    rd = mat @ d
    mixed = dd + (rd @ rd).trace(axis1=-2, axis2=-1).real / np.where(pure, 1.0, det)
    return _clip_qfi(np.where(pure, 2.0 * dd, mixed))


def qfi_pure(psi, dpsi) -> float:
    """Pure-state QFI 4(<dpsi|dpsi> - |<psi|dpsi>|^2); projectively invariant.

    Evaluated as 4 |dpsi - <psi|dpsi> psi|^2, the squared norm of the part of
    dpsi off psi, which does not cancel when dpsi is nearly parallel to psi.
    For a stack of vectors (last axis) one value per vector.
    """
    v, dv = np.asarray(psi, dtype=complex), np.asarray(dpsi, dtype=complex)
    if (abs(vector_norm(v) - 1.0) > 1e-10).any():
        raise InvalidDerivative("psi must be normalized to 1e-10")
    return _qfi(v, dv)


def _qfi(v, dv):
    """qfi_pure of a unit vector v and its tangent dv, or of stacks of them, unchecked:
    every caller here passes unit vectors by construction."""
    u = dv - per_point(np.vecdot(v, dv), 1) * v
    return _value(4.0 * (np.vecdot(u.real, u.real) + np.vecdot(u.imag, u.imag)))


@dataclass(frozen=True)
class QfiReport:
    """QFI variants and sensitivity bounds at one (gamma/omega, t) point.

    For the dilation scheme: f_suc/f_fail are the QFIs of the normalized
    success and failure blocks of the channel vector U_4d psi4_0, f_total is
    the QFI of the whole vector, i_subs = i_suc + i_fail and
    i_total = f_total.  For the dissipative scheme: f_suc is the QFI of the
    renormalized (post-selected) state, f_total the QFI of the full
    three-level state, i_total = f_total * p_suc, and the failure fields are
    None.  delta_omega_* are the Cramer-Rao bounds 1/sqrt(N * I); infinite
    when the information vanishes.  A row's report holds one array per field.
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


@dataclass(frozen=True)
class ResourceReport:
    """Information cost xi in [0, 1] and sensitivity loss zeta of post-selection, from scheme 1's information
    budget (module docstring), zeta^2 + xi = 1 to roundoff; i_subs and i_total are weighted_qfi_scheme1's."""

    xi: float
    zeta: float
    i_subs: float
    i_total: float


def _bound(information, n: int):
    return per_element(lambda info: 1.0 / math.sqrt(n * info) if info > 0.0 else math.inf, information)


class _State:
    """The state at a point (p, t, probe), or on a row of times t, which every evaluator reads.

    Each part is built on first read, by the kernels below, and kept; a part that raises (the metric at
    gamma/omega = 1) keeps nothing and raises at each read.  U_pt and U_4d share the phase kappa t/2
    (pt_system._phase) and its terms: v = U_pt psi0 reads cos and sinc, and a tangent (dv, the channel's)
    reads the sinc slope too, which only a tangent builds.
    """

    def __init__(self, p: PtParams, t, probe, repetitions: int = 1) -> None:
        self.p, self.t, self.probe, self.repetitions = p, t, probe, repetitions

    @cached_property
    def cos_sinc(self):  # (cos, sinc) of the phase kappa t/2
        return _cos_sinc(_phase(self.p, self.t))

    @cached_property
    def terms(self):  # (cos, sinc, sinc_slope) of the phase, which the tangents and the norm growth read
        return (*self.cos_sinc, per_element(sinc_slope, _phase(self.p, self.t)))

    @cached_property
    def v(self):
        return _propagator(hamiltonian_pt(self.p), self.t, *self.cos_sinc) @ self.probe

    @cached_property
    def family(self):  # (v, dv)
        dv = _tangent(hamiltonian_pt(self.p), 0.5 * PAULI_X, 0.5 * self.p.omega, self.t, self.terms) @ self.probe
        return self.v, dv

    @cached_property
    def unit(self):  # (v/|v|, dv/|v|)
        return _direction(*self.family)

    @cached_property
    def psi(self):  # v/|v|, the normalized PT state
        return _direction(self.v)[0]

    @cached_property
    def eta(self):
        return metric_operator(self.p)

    @cached_property
    def fail(self):  # (eta v, d(eta v)) with eta = eta(omega) inside: the susceptibilities' failure family
        (v, dv), eta = self.family, self.eta
        return _apply(eta, v), _apply(d_metric(self.p), v) + _apply(eta, dv)

    @cached_property
    def enlarged(self):  # the amplitudes (psi, eta psi)/C_n of evolve_enlarged's state
        return _enlarged(self.eta, self.psi)[0]

    @cached_property
    def branches(self):  # (|a_i|^2, p_suc, p_fail) of the enlarged state
        return _branches(self.enlarged)

    @cached_property
    def decayed(self):  # (e^{-gamma t/2} v, p_suc) of the three-level state
        return _decayed(self.p, self.t, self.v)

    @cached_property
    def channel(self):  # (U_4d psi4_0, its tangent, the tangent's t -> 0 limit over t)
        return _channel(self.p, self.t, self.probe, self.eta, self.terms)

    @cached_property
    def scheme1(self):
        return _scheme1(self, self.repetitions)

    @cached_property
    def scheme2(self):
        return _scheme2(self, self.repetitions)


_PLUS_Y = plus_y().tobytes()
_last: tuple = (None, None)  # (key, state) of the last one-point call of _point, set as one tuple


def _point(p: PtParams, t, probe=None) -> _State:
    """The state of a call at (p, t, probe), after its entry checks: the probe (None for |+>_y) as
    states._vector checks it, then the times.  A point whose omega, gamma and t are floats (numpy's float64
    included) gets the last such call's state if omega, gamma, t and the probe are the same bit for bit (0.0
    and -0.0 differ), else a new state that replaces it, built on them as Python floats; any other call, a
    row included, gets a new state."""
    global _last
    amplitudes = _PLUS_Y if probe is None else _vector(probe).tobytes()  # a copy, which the caller cannot mutate
    _finite(t, "time")
    if not (isinstance(t, float) and isinstance(p.omega, float) and isinstance(p.gamma, float)):
        return _State(p, t, np.frombuffer(amplitudes, dtype=complex))  # a row, or numbers no key pins
    key, (last, state) = (struct.pack("3d", p.omega, p.gamma, t), amplitudes), _last
    if key != last:
        if not type(t) is type(p.omega) is type(p.gamma) is float:  # a numpy scalar's ** need not round as a float's
            p, t = PtParams(float(p.omega), float(p.gamma)), float(t)
        state = _State(p, t, np.frombuffer(amplitudes, dtype=complex))
        _last = key, state
    return state


def _apply(m: np.ndarray, v) -> np.ndarray:
    """m v for a vector, or for each vector of a stack."""
    return (m @ v[..., None])[..., 0]


def _population_slope(u, du, index):
    """d(|u_i|^2/|u|^2)/d(omega) of a vector family u(omega) with tangent du, at i = index;
    a tuple of indices gives one slope per index along a last axis."""
    i = np.asarray(index)
    ui, dui = u[..., i], du[..., i]
    norm2 = per_point(np.vecdot(u.real, u.real) + np.vecdot(u.imag, u.imag), i.ndim)
    drift = per_point(np.vecdot(u.real, du.real) + np.vecdot(u.imag, du.imag), i.ndim)  # Re<u|du>
    pop = (ui.real * ui.real + ui.imag * ui.imag) / norm2
    return _value(2.0 * (ui.real * dui.real + ui.imag * dui.imag - pop * drift) / norm2)


def susceptibility_pt(p: PtParams, t):
    """d(rho_pt^11)/d(omega) for the probe |+>_y: the slope of |v_1|^2/|v|^2, v = U_pt psi0.

    The susceptibilities take a row like every evaluator here.
    """
    return _population_slope(*_point(p, t).family, 0)


def susceptibility_a(p: PtParams, t):
    """d(rho_A^11)/d(omega): failure-branch population derivative, of the family eta v."""
    return _population_slope(*_point(p, t).fail, 0)


def susceptibility_enlarged(p: PtParams, t, index=0):
    """d(rho_4d^{ii})/d(omega) of the enlarged family (v, eta v), which evolve_enlarged
    normalizes; index 0 is the PT subsystem, 2 the auxiliary ((0, 2) gives both)."""
    s = _point(p, t)
    return _enlarged_slope(*s.family, *s.fail, index)


def _enlarged_slope(v, dv, w, dw, index):
    return _population_slope(np.concatenate([v, w], axis=-1), np.concatenate([dv, dw], axis=-1), index)


def susceptibility_eff(p: PtParams, t):
    """d(varrho_eff^11)/d(omega) of the NON-normalized dissipative state e^{-gamma t} |v_1|^2.

    The decaying norm is part of the signal here; renormalizing first would
    reduce this to susceptibility_pt.  In deep decay e^{-gamma t} underflows
    and the value is 0, its limit.
    """
    return _eff_slope(p, t, *_point(p, t).family)


def _eff_slope(p: PtParams, t, v, dv):
    v1, dv1 = v[..., 0], dv[..., 0]
    return _value(2.0 * per_element(math.exp, -p.gamma * t) * (v1.real * dv1.real + v1.imag * dv1.imag))


def _channel(p: PtParams, t, probe, eta, terms):
    """(a, da, da0): a = U_4d psi4_0 with psi4_0 = (psi0, eta psi0)/C frozen at the base omega (the
    channel, module docstring), its exact omega-tangent da, and da0 = -i dH_4d psi4_0 = lim da/t at t = 0.
    H_4d squares to (kappa/2)^2 like H_pt, so U_4d and dU_4d are built on U_pt's phase terms."""
    psi0, h, dh = _dilated(eta, probe)[0], hamiltonian_4d(p), _d_hamiltonian_4d(p)
    u4, du4 = _propagator(h, t, *terms[:2]), _tangent(h, dh, 0.5 * p.omega, t, terms)
    return _apply(u4, psi0), _apply(du4, psi0), -1j * _apply(dh, psi0)


def weighted_qfi_scheme1(
    p: PtParams, t, fd: FdConfig | None = None, probe=None, n_repetitions: int = 1
) -> QfiReport:
    """Post-selected and total QFI for the dilation scheme.

    f_total is the QFI of the channel vector a = U_4d psi4_0 and its exact
    tangent, and f_suc and f_fail those of its normalized blocks (module
    docstring).  The weights p_suc and p_fail are block sums of |a_i|^2 over
    the amplitudes that evolve_enlarged builds from U_pt psi0, so they equal
    postselect's bit for bit.  fd is accepted for compatibility and not used.
    """
    s = _point(p, t, probe)
    return s.scheme1 if n_repetitions == s.repetitions else _scheme1(s, n_repetitions)


def _scheme1(s: _State, n_repetitions: int) -> QfiReport:
    """Scheme 1's report from the state's branch rates and channel (a, da, da0)."""
    (p_suc, p_fail), (a, da) = s.branches[1:], s.channel[:2]
    blocks = _qfi(*_direction(_split(a), _split(da)))
    f_suc, f_fail, f_total = _value(blocks[..., 0]), _value(blocks[..., 1]), _qfi(a, da)
    i_suc, i_fail = f_suc * p_suc, f_fail * p_fail
    i_subs = i_suc + i_fail
    return QfiReport(
        scheme="dilation",
        n_repetitions=n_repetitions,
        p_suc=p_suc,
        p_fail=p_fail,
        f_suc=f_suc,
        f_fail=f_fail,
        f_total=f_total,
        i_suc=i_suc,
        i_fail=i_fail,
        i_subs=i_subs,
        i_total=f_total,
        delta_omega_weighted=_bound(i_subs, n_repetitions),
        delta_omega_total=_bound(f_total, n_repetitions),
    )


def _budget(channel):
    """(i_subs, F_C, F_coh) of the channel (a, da, da0) (module docstring) on da over its largest |component|
    (da0 where da = 0): the terms are homogeneous of degree 2 in da, so nothing under- or overflows.  a's block
    norms weigh them, which keeps the split exact; _branches' rates differ at roundoff, amplified near the EP."""
    a, da, da0 = channel
    peak = per_point(np.abs(da).max(axis=-1), 1)
    moving = peak > 0.0
    d = np.where(moving, (da.view(float) / np.where(moving, peak, 1.0)).view(complex), da0)  # real divides
    a, d = _split(a), _split(d)
    p, z = np.vecdot(a, a).real, np.vecdot(a, d)
    i_subs = np.vecdot(p, _qfi(*_direction(a, d)))
    p_s, p_f, z_s, z_f = p[..., 0], p[..., 1], z[..., 0], z[..., 1]
    c = p_f * z_s.imag - p_s * z_f.imag  # squared as c * c: a numpy scalar's ** 2 can round apart from an array's
    return i_subs, 4.0 * z_s.real * z_s.real / (p_s * p_f), 4.0 * c * c / (p_s * p_f)


def _split(v):
    """The success and failure blocks of an enlarged vector, or of each of a stack, along a new axis."""
    return v.reshape(v.shape[:-1] + (2, 2))


def weighted_qfi_scheme2(
    p: PtParams, t, fd: FdConfig | None = None, n_repetitions: int = 1
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
    information.  In deep decay, where e^{-gamma t} underflows, p_suc is the
    double it is (subnormal, or 0) and f_suc is still the QFI of the
    conditioned state.  i_total = f_total * p_suc (fig6's i_eff and
    delta_omega_eff), although f_total already averages over both outcomes
    (which one fired, plus p_suc f_suc; the incoherent sink adds no coherence
    term): the success rate counts twice, unlike scheme 1's i_total = f_total.
    fd is accepted for compatibility and not used.
    """
    s = _point(p, t)
    return s.scheme2 if n_repetitions == s.repetitions else _scheme2(s, n_repetitions)


def _scheme2(s: _State, n_repetitions: int) -> QfiReport:
    """Scheme 2's report from the state of |+>_y: its normalized family, its success rate e^{-gamma t} |v|^2
    (lindblad._decayed) and the norm growth of v, on the state's phase terms (pt_system.norm_growth)."""
    p, t, p_suc, f_suc = s.p, s.t, s.decayed[1], _qfi(*s.unit)
    growth, d_growth = _norm_growth(p, t, s.probe, s.terms)  # |v|^2 = 1 + gamma growth
    d_log = p.gamma * d_growth / (1.0 + p.gamma * growth)
    log_p = -p.gamma * t + per_element(math.log1p, p.gamma * growth)
    survival, decayed = per_element(math.exp, log_p), -per_element(math.expm1, log_p)
    some_decay = decayed > 0.0
    classical = np.where(some_decay, survival * d_log * d_log / np.where(some_decay, decayed, 1.0), 0.0)
    f_total = _value(classical + survival * f_suc)

    i_total = f_total * p_suc
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
    )


def qfi_pt(p: PtParams, t, probe=None) -> float:
    """QFI in omega of the normalized PT state, at fixed t: the pure-state QFI of
    (v, dv) with v = U_pt psi0.  Raises InvalidMatrix unless the probe is a unit
    vector (states._vector) and every time is finite."""
    return _qfi(*_point(p, t, probe).unit)


def resource_metrics(p: PtParams, t, fd: FdConfig | None = None, probe=None) -> ResourceReport:
    """Information cost xi = (F_C + F_coh)/S and loss zeta = sqrt(i_subs/S) of scheme 1, with
    S = i_subs + F_C + F_coh its information budget (module docstring).

    xi is a ratio of sums of nonnegative terms, so it lies in [0, 1] at every point, t = 0 and
    t far below the roundoff of the information included, and zeta^2 + xi = 1 to roundoff.  S
    equals f_total up to roundoff.  Takes a row like weighted_qfi_scheme1.  fd is accepted for
    compatibility and not used.
    """
    s = _point(p, t, probe)
    report = s.scheme1
    xi, zeta = _resources(*_budget(s.channel))
    return ResourceReport(xi=xi, zeta=zeta, i_subs=report.i_subs, i_total=report.i_total)


def _resources(i_subs, f_c, f_coh):
    """(xi, zeta) of scheme 1's information budget (_budget)."""
    total = i_subs + f_c + f_coh
    return _value((f_c + f_coh) / total), _value(np.sqrt(i_subs / total))
