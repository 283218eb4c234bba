"""Independent reference evaluators for the tests.

Finite-difference QFIs: the QFIs of ptsense take their omega-derivatives in
closed form.  fd_scheme1, fd_scheme2 and fd_qfi_pt recompute them the way
ptsense once did: each state family is evaluated at omega +- h and
omega +- h/2 at fixed t, and the central differences are
Richardson-extrapolated to fourth order.  The QFI of each family then comes
from the density-matrix forms (qfi_two_level, qfi_sld) or from the textbook
pure-state formula, so no closed-form tangent enters.  Reliable only where
the step is small against the distance to the exceptional point.

Fixed-step RK4 for linear flows: for y' = A y, one RK4 step of size h is
exactly the matrix P4(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 applied
to y, so n steps are P4(hA)^n.  rk4_linear_power and rk4_su2_power evaluate
that power either by binary squaring (general A) or through the spectral
scalars of an involutory-like generator (H^2 = c^2 I), which stays accurate
arbitrarily close to the exceptional point where the generator is nearly
defective.  Each requested time is integrated single-shot from t = 0:
chaining segment products amplifies the involutory defect of H/c and loses
accuracy near the EP.
"""

from __future__ import annotations

import math

import numpy as np

from ptsense import (
    PtParams,
    analytic_rho_3l,
    dilate_initial,
    effective_evolve,
    evolve_density,
    evolve_enlarged,
    plus_y,
    postselect,
    propagator_4d,
    pure_density,
    qfi_sld,
    qfi_two_level,
)
from ptsense.errors import InvalidStep


def richardson(family, omega: float, h: float):
    """Fourth-order d family/d omega from central differences with steps h and h/2."""
    d_h = (family(omega + h) - family(omega - h)) / (2.0 * h)
    d_h2 = (family(omega + 0.5 * h) - family(omega - 0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _pure(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """4(<dpsi|dpsi> - |<psi|dpsi>|^2) for a unit vector psi."""
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def fd_scheme1(p: PtParams, t: float, probe, h: float = 1e-6) -> dict[str, float]:
    """f_suc and f_fail of the physical post-selected branch families, and the
    channel-picture f_total with psi4_0 frozen at the base omega."""

    def branches(omega: float) -> np.ndarray:
        out = postselect(evolve_enlarged(probe, p.with_omega(omega), t))
        return np.stack([out.rho_pt.matrix, out.rho_a.matrix])

    base = postselect(evolve_enlarged(probe, p, t))
    d_suc, d_fail = richardson(branches, p.omega, h)
    psi0 = dilate_initial(probe, p).amplitudes
    d_psi = richardson(lambda omega: propagator_4d(p.with_omega(omega), t) @ psi0, p.omega, h)
    return {
        "f_suc": qfi_two_level(base.rho_pt, d_suc),
        "f_fail": qfi_two_level(base.rho_a, d_fail),
        "f_total": _pure(propagator_4d(p, t) @ psi0, d_psi),
    }


def fd_scheme2(p: PtParams, t: float, h: float = 1e-6) -> dict[str, float]:
    """f_total as the SLD QFI of the three-level state and f_suc of the renormalized effective state."""

    def three_level(omega: float) -> np.ndarray:
        return analytic_rho_3l(p.with_omega(omega), t).matrix

    def conditioned(omega: float) -> np.ndarray:
        return effective_evolve(plus_y(), p.with_omega(omega), t).normalized().matrix

    return {
        "f_total": qfi_sld(three_level(p.omega), richardson(three_level, p.omega, h)),
        "f_suc": qfi_two_level(conditioned(p.omega), richardson(conditioned, p.omega, h)),
    }


def fd_qfi_pt(p: PtParams, t: float, probe, h: float = 1e-6) -> float:
    """QFI of the normalized PT state family."""
    rho0 = pure_density(probe)

    def family(omega: float) -> np.ndarray:
        return evolve_density(rho0, p.with_omega(omega), t).matrix

    return qfi_two_level(family(p.omega), richardson(family, p.omega, h))


def steps_for(t: float, dt: float) -> tuple[int, float]:
    """Number of steps and the shrunken step covering [0, t] exactly."""
    if dt <= 0.0:
        raise InvalidStep("dt must be positive")
    if t <= 0.0:
        return 0, 0.0
    n = max(1, int(math.ceil(t / dt - 1e-12)))
    return n, t / n


def rk4_onestep_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """P4(h*A): the exact one-step operator of fixed-step RK4 on y' = A y."""
    dim = a.shape[0]
    out = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 5):
        term = term @ (a * h) / k
        out = out + term
    return out


def rk4_linear_power(a: np.ndarray, y0: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Fixed-step RK4 solution of y' = A y at time t, as P4(hA)^n y0.

    Algebraically identical to stepping sequentially with the same h; the
    power is taken by binary squaring, which is stable whenever the one-step
    operator is non-expansive (Lindblad and Schrodinger generators here).
    """
    n, h = steps_for(t, dt)
    y = np.asarray(y0, dtype=complex).copy()
    if n == 0:
        return y
    p = rk4_onestep_matrix(a, h)
    while n:
        if n & 1:
            y = p @ y
        n >>= 1
        if n:
            p = p @ p
    return y


def rk4_su2_power(h_mat: np.ndarray, c: float, t: float, dt: float) -> np.ndarray:
    """P4(-i*h*H)^n for H with H^2 = c^2 I, via its spectral scalars.

    The one-step operator shares the spectral projectors of H, so its n-th
    power is (p^n + m^n)/2 * I + (p^n - m^n)/(2c) * H with p, m = P4(-+ihc).
    No matrix products are involved, which avoids the cancellation that
    squaring suffers when the state norm peaks mid-period near the EP.
    """
    n, h = steps_for(t, dt)
    dim = h_mat.shape[0]
    if n == 0:
        return np.eye(dim, dtype=complex)
    x = -1j * h * c
    p = 1.0 + x + x**2 / 2.0 + x**3 / 6.0 + x**4 / 24.0
    m = 1.0 - x + x**2 / 2.0 - x**3 / 6.0 + x**4 / 24.0
    pn, mn = p**n, m**n
    if c == 0.0:
        # degenerate projectors: P4 reduces to I - i*h*H (H^2 = 0), whose
        # n-th power telescopes to I - i*(n*h)*H
        return np.eye(dim, dtype=complex) - 1j * (n * h) * h_mat
    return 0.5 * (pn + mn) * np.eye(dim, dtype=complex) + 0.5 * (pn - mn) * h_mat / c


def lindblad_superoperator(h0: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """Row-stacked superoperator of d(rho) = -i[H0,rho] + J rho J^+ - {J^+J, rho}/2.

    vec is row-major: vec(A rho B) = (A kron B^T) vec(rho).
    """
    dim = h0.shape[0]
    iden = np.eye(dim, dtype=complex)
    left = lambda op: np.kron(op, iden)
    right = lambda op: np.kron(iden, op.T)
    jdj = jump.conj().T @ jump
    return (
        -1j * (left(h0) - right(h0))
        + left(jump) @ right(jump.conj().T)
        - 0.5 * (left(jdj) + right(jdj))
    )
