"""Estimation-theoretic quantities: shifts, susceptibilities, QFI, resources."""

import math

import numpy as np
import pytest

from conftest import oracle_qfi_a, oracle_qfi_pt, random_mixed_pair
from ptsense import (
    FdConfig,
    PtParams,
    bloch_probe,
    population_shift,
    qfi_pure,
    qfi_sld,
    qfi_spectral,
    qfi_two_level,
    resource_metrics,
    sld,
    susceptibility,
    susceptibility_a,
    susceptibility_eff,
    susceptibility_enlarged,
    susceptibility_pt,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from ptsense.errors import (
    InvalidDerivative,
    InvalidScheme,
    StepCrossesEp,
    UndefinedResourceMetrics,
)

FD = FdConfig.for_omega(1.0)


# -- population shift ---------------------------------------------------------

def test_shift_zero_delta():
    p = PtParams(1.0, 0.6)
    for scheme in ("pt", "enlarged", "eff"):
        assert population_shift(scheme, p, 0.0, 1.7) == 0.0


def test_shift_rabi_formula():
    p = PtParams(1.0, 0.0)
    t = np.pi / 2
    got = population_shift("pt", p, 0.01, t)
    expected = (1 + math.sin(1.01 * t)) / 2 - (1 + math.sin(t)) / 2
    assert got == pytest.approx(expected, abs=1e-12)


def test_shift_near_ep_amplification():
    t_near = np.pi / PtParams(1.0, 1.0 - 1e-5).kappa
    near = abs(population_shift("pt", PtParams(1.0, 1.0 - 1e-5), 0.005, t_near))
    t_mid = np.pi / PtParams(1.0, 0.5).kappa
    mid = abs(population_shift("pt", PtParams(1.0, 0.5), 0.005, t_mid))
    assert near >= 5.0 * mid


def test_shift_rejects_bad_scheme_and_large_delta():
    p = PtParams(1.0, 0.3)
    with pytest.raises(InvalidScheme):
        population_shift("bogus", p, 0.01, 1.0)
    with pytest.raises(InvalidScheme):
        population_shift("pt", p, 0.2, 1.0)


def test_shift_eff_equals_pt_after_renormalization():
    p = PtParams(1.0, 0.6)
    assert population_shift("eff", p, 0.01, 2.0) == population_shift("pt", p, 0.01, 2.0)


# -- susceptibility -----------------------------------------------------------

def test_susceptibility_rabi_analytic():
    p = PtParams(1.0, 0.0)
    for t in (0.7, 2.0, 5.0):
        got = susceptibility_pt(p, t, FD)
        assert got == pytest.approx((t / 2) * math.cos(t), abs=1e-7 * max(1.0, t))


def test_susceptibility_pt_increasing_in_gamma_at_tau_2pi():
    values = []
    for ratio in (0.0, 0.3, 0.6, 0.9):
        p = PtParams(1.0, ratio)
        t = 2 * np.pi / p.kappa
        s = susceptibility_pt(p, t, FD)
        # analytic oracle: pi*omega/(kappa*(omega-gamma)) at the period point
        assert s == pytest.approx(np.pi / (p.kappa * (1 - ratio)), rel=1e-6)
        values.append(s)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_susceptibility_eff_decreasing_in_gamma_at_tau_2pi():
    values = []
    for ratio in (0.0, 0.3, 0.6, 0.9):
        p = PtParams(1.0, ratio)
        t = 2 * np.pi / p.kappa
        s = abs(susceptibility_eff(p, t, FD))
        expected = math.exp(-ratio * t) * np.pi / (p.kappa * (1 - ratio))
        assert s == pytest.approx(expected, rel=1e-5)
        values.append(s)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_susceptibility_other_families_finite():
    p = PtParams(1.0, 0.6)
    assert math.isfinite(susceptibility_a(p, 2.0, FD))
    assert math.isfinite(susceptibility_enlarged(p, 2.0, FD, index=0))
    assert math.isfinite(susceptibility_enlarged(p, 2.0, FD, index=2))


def test_susceptibility_step_crossing_ep_raises():
    p = PtParams(1.0, 1.0 - 1e-7)
    with pytest.raises(StepCrossesEp):
        susceptibility_pt(p, 1.0, FdConfig(h=1e-6))


def test_fd_config_validation():
    with pytest.raises(ValueError):
        FdConfig(h=0.0)
    with pytest.raises(ValueError):
        FdConfig(h=1e-2).validate_for(1.0)


# -- SLD and QFI forms --------------------------------------------------------

def test_sld_zero_derivative():
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert np.max(np.abs(sld(rho, np.zeros((2, 2))))) == 0.0


def test_sld_maximally_mixed():
    sz = np.diag([1.0, -1.0]).astype(complex)
    out = sld(0.5 * np.eye(2, dtype=complex), 0.3 * sz)
    assert np.max(np.abs(out - 0.6 * sz)) < 1e-14


def test_sld_reconstruction_on_support(rng):
    rho, drho = random_mixed_pair(rng)
    l_op = sld(rho, drho)
    recon = 0.5 * (l_op @ rho + rho @ l_op)
    assert np.max(np.abs(recon - drho)) <= 1e-9


def test_sld_rejects_non_hermitian_derivative():
    rho = np.diag([0.6, 0.4]).astype(complex)
    with pytest.raises(InvalidDerivative):
        sld(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_qfi_forms_agree_on_random_mixed_states(rng):
    for _ in range(50):
        rho, drho = random_mixed_pair(rng)
        f_sld = qfi_sld(rho, drho)
        f_spec = qfi_spectral(rho, drho)
        f_2l = qfi_two_level(rho, drho)
        scale = max(1.0, f_sld)
        assert abs(f_sld - f_spec) <= 1e-8 * scale
        assert abs(f_sld - f_2l) <= 1e-8 * scale


def test_qfi_zero_derivative():
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert qfi_two_level(rho, np.zeros((2, 2))) == 0.0
    assert qfi_sld(rho, np.zeros((2, 2))) == 0.0


def test_qfi_pure_trivial_cases():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert qfi_pure(psi, np.zeros(2)) == 0.0
    assert qfi_pure(psi, 0.5j * psi) == pytest.approx(0.0, abs=1e-14)


def test_qfi_classical_diagonal_example():
    # classical Fisher information of a biased coin: (dp)^2 / (p(1-p))
    p_val, dp = 0.3, 0.11
    rho = np.diag([p_val, 1 - p_val]).astype(complex)
    drho = np.diag([dp, -dp]).astype(complex)
    expected = dp * dp / (p_val * (1 - p_val))
    assert qfi_two_level(rho, drho) == pytest.approx(expected, abs=1e-12)
    assert qfi_sld(rho, drho) == pytest.approx(expected, abs=1e-12)
    assert qfi_spectral(rho, drho) == pytest.approx(expected, abs=1e-12)


def test_qfi_pure_family_all_forms_agree():
    # PT channel at a generic point: rank-1 state family
    p = PtParams(1.0, 0.6)
    t = 5.0 / 0.8
    h = 1e-6
    from ptsense import evolve_density, evolve_state, plus_y, pure_density

    rho = evolve_density(pure_density(plus_y()), p, t).matrix
    dr = (evolve_density(pure_density(plus_y()), p.with_omega(1 + h), t).matrix
          - evolve_density(pure_density(plus_y()), p.with_omega(1 - h), t).matrix) / (2 * h)
    f_2l = qfi_two_level(rho, dr)
    f_sld = qfi_sld(rho, dr)
    psi = evolve_state(plus_y(), p, t).amplitudes
    # gauge-smooth pure-state derivative from the same closed-form family
    psi_p = evolve_state(plus_y(), p.with_omega(1 + h), t).amplitudes
    psi_m = evolve_state(plus_y(), p.with_omega(1 - h), t).amplitudes
    f_pure = qfi_pure(psi, (psi_p - psi_m) / (2 * h))
    assert f_2l == pytest.approx(f_sld, abs=1e-8 * f_2l)
    assert f_2l == pytest.approx(f_pure, rel=1e-6)
    assert f_2l == pytest.approx(oracle_qfi_pt(1.0, 0.6, t), rel=1e-6)


# -- weighted QFI, scheme I ---------------------------------------------------

def test_scheme1_hermitian_baseline():
    p = PtParams(1.0, 0.0)
    for t in (1.0, np.pi, 5.0):
        report = weighted_qfi_scheme1(p, t, FD)
        assert report.i_suc == pytest.approx(t * t / 2, rel=1e-6)
        assert report.i_fail == pytest.approx(t * t / 2, rel=1e-6)
        assert report.i_subs == pytest.approx(t * t, rel=1e-6)
        assert report.i_total == pytest.approx(t * t, rel=1e-6)


def test_scheme1_branch_qfi_matches_analytic_oracle():
    for ratio in (0.3, 0.6, 0.9):
        p = PtParams(1.0, ratio)
        for tau in (1.0, 3.0, 5.0):
            t = tau / p.kappa
            report = weighted_qfi_scheme1(p, t, FD)
            assert report.f_suc == pytest.approx(oracle_qfi_pt(1.0, ratio, t), rel=1e-5)
            assert report.f_fail == pytest.approx(oracle_qfi_a(1.0, ratio, t), rel=1e-5)


def test_scheme1_postselection_discards_information():
    p = PtParams(1.0, 0.6)
    report = weighted_qfi_scheme1(p, 5.0 / 0.8, FD)
    assert report.i_subs < report.i_total


def test_scheme1_nonhermiticity_enhances_total_information():
    t_of = lambda ratio, tau: tau / PtParams(1.0, ratio).kappa
    for tau in (3.0, 5.0):
        i_tot = [weighted_qfi_scheme1(PtParams(1.0, r), t_of(r, tau), FD).i_total
                 for r in (0.0, 0.3, 0.6, 0.9)]
        assert all(b > a for a, b in zip(i_tot, i_tot[1:]))


def test_scheme1_probe_optimality_spot_check():
    p = PtParams(1.0, 0.6)
    t = 5.0 / 0.8
    best = -np.inf
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, np.pi):
        for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
            f = weighted_qfi_scheme1(p, t, FD, probe=bloch_probe(theta, phi)).f_total
            best = max(best, f)
    f_plus_y = weighted_qfi_scheme1(p, t, FD, probe=bloch_probe(np.pi / 2, np.pi / 2)).f_total
    assert f_plus_y >= best - 1e-9 * max(1.0, best)


# -- weighted QFI, scheme II --------------------------------------------------

def test_scheme2_hermitian_baseline():
    p = PtParams(1.0, 0.0)
    for t in (1.0, np.pi, 5.0):
        report = weighted_qfi_scheme2(p, t, FD)
        assert report.f_total == pytest.approx(t * t, rel=1e-6)
        assert report.i_total == pytest.approx(t * t, rel=1e-6)


def test_scheme2_information_lower_than_hermitian():
    t6 = 5.0 / 0.8
    f_nh = weighted_qfi_scheme2(PtParams(1.0, 0.6), t6, FD).f_total
    f_h = weighted_qfi_scheme2(PtParams(1.0, 0.0), 5.0, FD).f_total
    assert f_nh < f_h


def test_scheme2_decomposition_oracle():
    # three-level QFI = classical success-rate information + weighted branch QFI
    p = PtParams(1.0, 0.6)
    t = 5.0 / 0.8
    report = weighted_qfi_scheme2(p, t, FD)
    h = 1e-6
    from conftest import oracle_p_suc_eff

    dp = (oracle_p_suc_eff(1 + h, 0.6, t) - oracle_p_suc_eff(1 - h, 0.6, t)) / (2 * h)
    p_suc = oracle_p_suc_eff(1.0, 0.6, t)
    f_classical = dp * dp / (p_suc * (1 - p_suc))
    expected = f_classical + p_suc * oracle_qfi_pt(1.0, 0.6, t)
    assert report.f_total == pytest.approx(expected, rel=1e-5)
    assert report.p_suc == pytest.approx(p_suc, abs=1e-10)
    assert report.i_total == pytest.approx(report.f_total * report.p_suc, abs=1e-12)


def test_scheme2_information_vanishes_at_long_times():
    p6 = PtParams(1.0, 0.6)
    base = weighted_qfi_scheme2(PtParams(1.0, 0.0), 20.0, FD).i_total
    for tau in (20.0, 25.0):
        report = weighted_qfi_scheme2(p6, tau / 0.8, FD)
        assert report.i_total <= 1e-2 * base


def test_scheme2_conditioned_state_matches_scheme1_branch():
    p = PtParams(1.0, 0.6)
    t = 3.0 / 0.8
    r1 = weighted_qfi_scheme1(p, t, FD)
    r2 = weighted_qfi_scheme2(p, t, FD)
    assert r2.f_suc == pytest.approx(r1.f_suc, rel=1e-8)


# -- resource metrics ---------------------------------------------------------

def test_resources_hermitian_limit():
    out = resource_metrics(PtParams(1.0, 0.0), 5.0, FD)
    assert out.xi == pytest.approx(0.0, abs=1e-8)
    assert out.zeta == pytest.approx(1.0, abs=1e-8)


def test_resources_near_ep_depletion():
    p = PtParams(1.0, 1.0 - 1e-6)
    out = resource_metrics(p, 5.0 / p.kappa, FD)
    assert out.xi > 0.99
    assert out.zeta < 0.1


@pytest.mark.parametrize("ratio", (0.3, 0.6, 0.9))
def test_resources_periodic_point_losslessness(ratio):
    p = PtParams(1.0, ratio)
    out = resource_metrics(p, 2 * np.pi / p.kappa, FD)
    assert abs(out.zeta - 1.0) <= 1e-3


def test_resources_identity_everywhere():
    for ratio in (0.0, 0.3, 0.6, 0.9, 1.0 - 1e-6):
        p = PtParams(1.0, ratio)
        for tau in (1.0, 3.0, 5.0, 2 * np.pi):
            out = resource_metrics(p, tau / p.kappa, FD)
            assert abs(out.zeta**2 + out.xi - 1.0) <= 1e-10


def test_resources_xi_monotone_in_gamma_at_tau5():
    xis = []
    for ratio in (0.0, 0.3, 0.6, 0.9):
        p = PtParams(1.0, ratio)
        xis.append(resource_metrics(p, 5.0 / p.kappa, FD).xi)
    assert all(b > a for a, b in zip(xis, xis[1:]))


def test_resources_undefined_when_no_information():
    with pytest.raises(UndefinedResourceMetrics):
        resource_metrics(PtParams(1.0, 0.6), 0.0, FD)


def test_generic_susceptibility_wrapper():
    # the low-level entry point accepts any parameterized family
    p = PtParams(1.0, 0.0)

    def family(omega, t):
        return np.array([[np.sin(omega * t), 0.0], [0.0, 1 - np.sin(omega * t)]])

    got = susceptibility(family, p, 1.3, 0, FdConfig(h=1e-6))
    assert got == pytest.approx(1.3 * np.cos(1.3), rel=1e-8)


def test_delta_omega_infinite_when_information_vanishes():
    # at t = 0 the channel has acquired no information at all; the failure
    # branch family eta(omega) psi0 keeps only roundoff (|+>_y is an eigenvector of eta)
    report = weighted_qfi_scheme1(PtParams(1.0, 0.6), 0.0, FD)
    assert report.i_total == 0.0
    assert math.isinf(report.delta_omega_total)
    assert report.i_subs <= 1e-18


def test_scheme2_unreliable_flag_near_steady_state():
    report = weighted_qfi_scheme2(PtParams(1.0, 0.6), 50.0, FD)
    assert not report.reliable
    assert report.p_suc < 1e-12


def test_report_sld_reconstructs_branch_derivative():
    # the report's SLD solves the defining equation for the conditioned state
    p = PtParams(1.0, 0.6)
    t = 3.0 / 0.8
    report = weighted_qfi_scheme1(p, t, FD)
    from ptsense import evolve_density, plus_y, pure_density

    rho = evolve_density(pure_density(plus_y()), p, t).matrix
    h = 1e-6
    dr = (evolve_density(pure_density(plus_y()), p.with_omega(1 + h), t).matrix
          - evolve_density(pure_density(plus_y()), p.with_omega(1 - h), t).matrix) / (2 * h)
    recon = 0.5 * (report.sld_suc @ rho + rho @ report.sld_suc)
    # support-subspace reconstruction: project onto the pure state's support
    eigvals, basis = np.linalg.eigh(rho)
    support = basis[:, eigvals > 1e-12]
    proj = support @ support.conj().T
    lhs = proj @ recon @ proj + proj @ recon @ (np.eye(2) - proj) + (np.eye(2) - proj) @ recon @ proj
    rhs = proj @ dr @ proj + proj @ dr @ (np.eye(2) - proj) + (np.eye(2) - proj) @ dr @ proj
    assert np.max(np.abs(lhs - rhs)) <= 1e-6
