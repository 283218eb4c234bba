"""Dissipative three-level scheme and its reduced effective dynamics."""

import math
import sys
import warnings

import numpy as np
import pytest

from conftest import oracle_p_suc_eff, oracle_rho_3l
from oracles import liouvillian_defective_svd
from ptsense import (
    PtParams,
    analytic_rho_3l,
    artificial_pt,
    effective_evolve,
    evolve_density,
    hamiltonian_pt,
    integrate_lindblad,
    lindblad_model,
    liouvillian_is_defective,
    liouvillian_matrix,
    plus_y,
    postselect_3l,
    propagator_pt,
    pure_density,
)
from ptsense.errors import EmptyBranch, InvalidStep
from ptsense.lindblad import plus_y_3l

GRID = (0.0, 0.3, 0.6, 0.9)


def effective_rhs(rho, p):
    """Generator of the reduced dynamics, -i (H_eff rho - rho H_eff^dag) with
    H_eff = H_pt - i(gamma/2) I."""
    h_eff = hamiltonian_pt(p) - 0.5j * p.gamma * np.eye(2)
    return -1j * (h_eff @ rho - rho @ h_eff.conj().T)


def test_model_operators():
    model = lindblad_model(PtParams(1.0, 0.6))
    assert model.jump[2, 1] == pytest.approx(math.sqrt(1.2))
    assert np.count_nonzero(model.jump) == 1
    assert model.h0[0, 1] == pytest.approx(0.5)
    assert np.max(np.abs(model.h0[2, :])) == 0.0


def test_integrate_t0():
    rho0 = np.outer(plus_y_3l(), plus_y_3l().conj())
    out = integrate_lindblad(rho0, PtParams(1.0, 0.6), 0.0, 1e-3)
    assert np.array_equal(out.matrix, rho0)


def test_integrate_gamma0_is_unitary_block():
    p = PtParams(1.0, 0.0)
    rho0 = np.outer(plus_y_3l(), plus_y_3l().conj())
    out = integrate_lindblad(rho0, p, np.pi / 2, 1e-4)
    rabi = evolve_density(pure_density(plus_y()), p, np.pi / 2).matrix
    assert np.max(np.abs(out.matrix[:2, :2] - rabi)) <= 1e-8
    assert abs(out.matrix[2, 2]) <= 1e-12


def test_integrate_matches_analytic():
    p = PtParams(1.0, 0.6)
    t = np.pi / 1.6
    rho0 = np.outer(plus_y_3l(), plus_y_3l().conj())
    out = integrate_lindblad(rho0, p, t, 1e-4)
    assert np.max(np.abs(out.matrix - analytic_rho_3l(p, t).matrix)) <= 1e-8
    assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10


def test_integrate_rejects_bad_step():
    with pytest.raises(InvalidStep):
        integrate_lindblad(np.eye(3) / 3, PtParams(1.0, 0.6), 1.0, -1.0)


def test_analytic_initial_state():
    m = analytic_rho_3l(PtParams(1.0, 0.6), 0.0).matrix
    assert m[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert m[1, 1] == pytest.approx(0.5, abs=1e-14)
    assert abs(m[2, 2]) < 1e-14


@pytest.mark.parametrize("ratio", (0.2, 0.6, 0.9))
def test_analytic_matches_transcription(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    for tau in np.linspace(0.0, 4 * np.pi, 9):
        t = tau / p.kappa
        assert np.max(np.abs(analytic_rho_3l(p, t).matrix - oracle_rho_3l(1.0, ratio, t))) < 1e-12


def test_analytic_quarter_period_value():
    p = PtParams(1.0, 0.6)
    t = np.pi / 1.6
    c3 = math.exp(-0.6 * t) / (2 * 0.4)
    assert analytic_rho_3l(p, t).matrix[0, 0].real == pytest.approx(c3 * 1.8, abs=1e-12)


def test_analytic_long_time_sink():
    p = PtParams(1.0, 0.6)
    m = analytic_rho_3l(p, 40.0).matrix
    assert m[0, 0].real + m[1, 1].real <= 1e-3
    assert m[2, 2].real >= 0.999


def test_analytic_regular_at_ep():
    p = PtParams(1.0, 1.0)
    m = analytic_rho_3l(p, 2.0).matrix
    # independent oracle: e^{-gamma t} (1 + t)^2 / 2 at the EP
    assert m[0, 0].real == pytest.approx(math.exp(-2.0) * (1 + 2.0) ** 2 / 2, abs=1e-12)


def test_effective_evolve_spot_values():
    p = PtParams(1.0, 0.6)
    t = np.pi / 1.6
    eff = effective_evolve(plus_y(), p, t)
    assert eff.trace == pytest.approx(oracle_p_suc_eff(1.0, 0.6, t), abs=1e-10)
    u_eff = math.exp(-0.5 * 0.6 * t) * propagator_pt(p, t)
    direct = u_eff @ pure_density(plus_y()).matrix @ u_eff.conj().T
    assert np.max(np.abs(eff.matrix - direct)) <= 1e-12


@pytest.mark.parametrize("ratio", (0.2, 0.6, 0.9))
def test_effective_block_embedding(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    for tau in (0.5, 2.0, 5.5):
        t = tau / p.kappa
        eff = effective_evolve(plus_y(), p, t).matrix
        full = analytic_rho_3l(p, t).matrix
        assert np.max(np.abs(eff - full[:2, :2])) <= 1e-10


def test_effective_trace_monotone_and_formula():
    p = PtParams(1.0, 0.6)
    previous = 1.0 + 1e-15
    for t in np.linspace(0.0, 12.0, 49):
        tr = effective_evolve(plus_y(), p, t).trace
        assert tr <= previous + 1e-12
        assert abs(tr - oracle_p_suc_eff(1.0, 0.6, t)) <= 1e-9
        previous = tr


def test_effective_rhs_component_equations():
    p = PtParams(1.0, 0.0)
    assert np.max(np.abs(effective_rhs(0.5 * np.eye(2, dtype=complex), p))) < 1e-15
    # for the diagonal state |2><2| the coherent term drops out of d(rho22),
    # leaving the pure double-rate decay; d(rho12) carries the coherent term
    p2 = PtParams(omega=1.0, gamma=0.7)
    rho = np.diag([0.0, 1.0]).astype(complex)
    d = effective_rhs(rho, p2)
    assert d[1, 1] == pytest.approx(-2 * 0.7, abs=1e-14)
    assert d[0, 1] == pytest.approx(-0.5j, abs=1e-14)
    assert d[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_effective_rhs_matches_finite_difference():
    p = PtParams(1.0, 0.6)
    t, h = 1.3, 1e-6
    mid = effective_evolve(plus_y(), p, t).matrix
    fd = (effective_evolve(plus_y(), p, t + h).matrix - effective_evolve(plus_y(), p, t - h).matrix) / (2 * h)
    assert np.max(np.abs(fd - effective_rhs(mid, p))) <= 1e-6


def test_effective_rhs_matches_liouvillian_matrix():
    p = PtParams(1.0, 0.6)
    rho = effective_evolve(plus_y(), p, 0.9).matrix
    direct = effective_rhs(rho, p)
    liou, _ = liouvillian_matrix(p)
    via_matrix = (liou @ rho.reshape(-1)).reshape(2, 2)
    assert np.max(np.abs(direct - via_matrix)) < 1e-14


def test_artificial_pt_gamma0_identity():
    p = PtParams(1.0, 0.0)
    eff = effective_evolve(plus_y(), p, 1.0)
    assert np.array_equal(artificial_pt(plus_y(), p, 1.0).matrix, eff.matrix)


def test_artificial_pt_trace():
    p = PtParams(1.0, 0.6)
    t = np.pi / 1.6
    out = artificial_pt(plus_y(), p, t)
    assert out.trace == pytest.approx(2.5, abs=1e-12)  # (omega - gamma cos kt)/(omega - gamma)


def test_artificial_pt_renormalized_equality():
    p = PtParams(1.0, 0.6)
    t = 2.1
    eff = effective_evolve(plus_y(), p, t)
    amplified = artificial_pt(plus_y(), p, t)
    assert np.max(np.abs(amplified.normalized().matrix - eff.normalized().matrix)) <= 1e-15
    assert np.max(np.abs(math.exp(-0.6 * t) * amplified.matrix - eff.matrix)) <= 1e-15


@pytest.mark.parametrize("t", (1200.0, 1300.0))
def test_normalized_vanishing_trace_is_empty_branch(t):
    # a subnormal (t = 1200) or zero (t = 1300) trace raises before dividing, without a warning
    state = effective_evolve(plus_y(), PtParams(1.0, 0.6), t)
    assert state.trace < sys.float_info.min
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyBranch, match="vanishing trace"):
            state.normalized()


def test_postselect_3l_initial_state():
    out = postselect_3l(PtParams(1.0, 0.6), 0.0)
    assert out.p_suc == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.rho_pt.matrix - pure_density(plus_y()).matrix)) < 1e-12


def test_postselect_3l_spot_value():
    out = postselect_3l(PtParams(1.0, 0.6), np.pi / 1.6)
    assert out.rho_pt.population == pytest.approx(0.9, abs=1e-10)


@pytest.mark.parametrize("ratio", (0.2, 0.6, 0.9, 1.0 - 1e-6))
def test_cross_scheme_equality(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    # the decaying norm e^{-gamma t} underflows IEEE doubles once
    # gamma * tau / kappa grows past ~1400 (near the EP t = tau/kappa is
    # huge), so scheme II is compared on its representable window
    tau_eff = min(4 * np.pi, 300.0 * p.kappa / p.gamma) if p.gamma else 4 * np.pi
    for tau in np.linspace(tau_eff / 7, tau_eff, 7):
        t = tau / p.kappa
        via_eff = effective_evolve(plus_y(), p, t).normalized().matrix
        direct = evolve_density(pure_density(plus_y()), p, t).matrix
        assert np.max(np.abs(via_eff - direct)) <= 1e-9
    # three-level post-selection route: the conditioned state is defined in deep decay too
    for tau in np.linspace(4 * np.pi / 7, 4 * np.pi, 7):
        t = tau / p.kappa
        via_3l = postselect_3l(p, t).rho_pt.matrix
        direct = evolve_density(pure_density(plus_y()), p, t).matrix
        assert np.max(np.abs(via_3l - direct)) <= 1e-9


def test_postselect_3l_deep_decay_is_finite():
    # p_suc is subnormal at t = 1200 and 0 at t = 1300; the rates stay the three-level
    # populations and the conditioned state the PT state
    p = PtParams(1.0, 0.6)
    for t in (1.3, 50.0, 62.0, 1200.0, 1300.0):
        out = postselect_3l(p, t)
        m = analytic_rho_3l(p, t).matrix
        assert out.p_suc == m[0, 0].real + m[1, 1].real and out.p_fail == m[2, 2].real
        direct = evolve_density(pure_density(plus_y()), p, t).matrix
        assert np.max(np.abs(out.rho_pt.matrix - direct)) <= 1e-12
    assert 0.0 < postselect_3l(p, 1200.0).p_suc < sys.float_info.min
    assert postselect_3l(p, 1300.0).p_suc == 0.0


def test_liouvillian_eigenvalues_gamma0():
    _, values = liouvillian_matrix(PtParams(1.0, 0.0))
    got = sorted(values, key=lambda z: (round(z.imag, 9), round(z.real, 9)))
    assert np.max(np.abs(np.array(got) - np.array([-1j, 0.0, 0.0, 1j]))) < 1e-10


@pytest.mark.parametrize("ratio", GRID)
def test_liouvillian_spectrum_formula(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    _, values = liouvillian_matrix(p)
    got = sorted(values, key=lambda z: (round(z.imag, 9), round(z.real, 9)))
    expected = sorted(
        [-p.gamma + 1j * p.kappa, -p.gamma - 1j * p.kappa, -p.gamma, -p.gamma],
        key=lambda z: (round(z.imag, 9), round(z.real, 9)),
    )
    assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-10


def test_liouvillian_defective_only_at_ep():
    # kappa = 0 against a numerical count of eigenvectors
    assert liouvillian_is_defective(PtParams(1.0, 1.0))
    assert liouvillian_defective_svd(PtParams(1.0, 1.0))
    for ratio in (0.0, 0.3, 0.6, 0.9, 1.0 - 1e-6):
        assert not liouvillian_is_defective(PtParams(1.0, ratio))
        assert not liouvillian_defective_svd(PtParams(1.0, ratio))
