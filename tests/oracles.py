"""Independent reference evaluators for the tests.

Finite-difference QFIs and susceptibilities: ptsense takes every
omega-derivative in closed form.  fd_scheme1, fd_scheme2, fd_qfi_pt and
fd_susceptibilities recompute them the way ptsense once did: each state
family is evaluated at omega +- h and omega +- h/2 at fixed t, and the
central differences are Richardson-extrapolated to fourth order.  The QFI of
each family then comes from the density-matrix forms (qfi_two_level,
qfi_sld) or from the textbook pure-state formula, and a susceptibility is
the derivative of a diagonal element, so no closed-form tangent enters.
Reliable only where the step is small against the distance to the
exceptional point.

Fixed-step RK4 for linear flows: for y' = A y, one RK4 step of size h is
exactly the matrix P4(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 applied
to y, so n steps are P4(hA)^n.  rk4_linear_power and rk4_su2_power evaluate
that power either by binary squaring (general A) or through the spectral
scalars of an involutory-like generator (H^2 = c^2 I), which stays accurate
arbitrarily close to the exceptional point where the generator is nearly
defective.  Each requested time is integrated single-shot from t = 0:
chaining segment products amplifies the involutory defect of H/c and loses
accuracy near the EP.

Defectiveness of the reduced Liouvillian: liouvillian_defective_svd counts
eigenvectors numerically, where ptsense reads the answer off kappa = 0.

A general matrix exponential: expm is a Taylor series with scaling and
squaring, the reference for the closed-form propagators, which use
H^2 = c^2 I.
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
    lindblad_model,
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
    """f_suc, f_fail and f_total of the channel U_4d(omega) psi4_0, with psi4_0 frozen at the
    base omega: the QFIs of the normalized success and failure blocks, as density matrices, and
    of the whole vector."""
    psi0 = dilate_initial(probe, p).amplitudes

    def channel(omega: float) -> np.ndarray:
        return propagator_4d(PtParams(omega, p.gamma), t) @ psi0

    def blocks(omega: float) -> np.ndarray:
        a = channel(omega)
        return np.stack([np.outer(u, u.conj()) / np.vdot(u, u).real for u in (a[:2], a[2:])])

    base, d_blocks = blocks(p.omega), richardson(blocks, p.omega, h)
    return {
        "f_suc": qfi_two_level(base[0], d_blocks[0]),
        "f_fail": qfi_two_level(base[1], d_blocks[1]),
        "f_total": _pure(channel(p.omega), richardson(channel, p.omega, h)),
    }


def fd_scheme2(p: PtParams, t: float, h: float = 1e-6) -> dict[str, float]:
    """f_total as the SLD QFI of the three-level state and f_suc of the renormalized effective state."""

    def three_level(omega: float) -> np.ndarray:
        return analytic_rho_3l(PtParams(omega, p.gamma), t).matrix

    def conditioned(omega: float) -> np.ndarray:
        return effective_evolve(plus_y(), PtParams(omega, p.gamma), t).normalized().matrix

    return {
        "f_total": qfi_sld(three_level(p.omega), richardson(three_level, p.omega, h)),
        "f_suc": qfi_two_level(conditioned(p.omega), richardson(conditioned, p.omega, h)),
    }


def fd_qfi_pt(p: PtParams, t: float, probe, h: float = 1e-6) -> float:
    """QFI of the normalized PT state family."""
    rho0 = pure_density(probe)

    def family(omega: float) -> np.ndarray:
        return evolve_density(rho0, PtParams(omega, p.gamma), t).matrix

    return qfi_two_level(family(p.omega), richardson(family, p.omega, h))


def fd_susceptibilities(p: PtParams, t: float, h: float = 1e-6) -> dict[str, float]:
    """The susceptibilities of the sweep rows for |+>_y, from the density matrices of the
    post-selected PT state, the failure branch, the enlarged state and the
    non-normalized effective state."""
    rho0 = pure_density(plus_y())

    def populations(omega: float) -> np.ndarray:
        q = PtParams(omega, p.gamma)
        enlarged = evolve_enlarged(plus_y(), q, t)
        return np.array([
            evolve_density(rho0, q, t).matrix[0, 0].real,
            postselect(enlarged).rho_a.matrix[0, 0].real,
            enlarged.matrix[0, 0].real,
            enlarged.matrix[2, 2].real,
            effective_evolve(plus_y(), q, t).matrix[0, 0].real,
        ])

    names = ("susceptibility_pt", "susceptibility_a", "susceptibility_4d_pt", "susceptibility_4d_a",
             "susceptibility_eff")
    return dict(zip(names, richardson(populations, p.omega, h).tolist()))


def expm(m, scale: complex = 1.0) -> np.ndarray:
    """exp(scale*M) by scaling-and-squaring of a degree-16 Taylor polynomial.

    Accurate to better than 1e-12 relative error for ||scale*M|| <= 10; the
    argument is halved until its 1-norm is below 0.5, so the Taylor tail is
    ~0.5^17/17! and the squaring chain stays short.
    """
    a = np.asarray(m, dtype=complex) * scale
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 17):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


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


def liouvillian_defective_svd(p: PtParams, cluster_tol: float = 1e-3, null_tol: float = 1e-8) -> bool:
    """True when some eigenvalue of the reduced Liouvillian has a deficient geometric multiplicity.

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
