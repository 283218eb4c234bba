"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria and tolerances are pinned here; nothing is deferred to
later calibration.
"""

import math

import numpy as np
import pytest

from conftest import oracle_p_suc_eff, random_mixed_pair
from oracles import lindblad_superoperator, rk4_linear_power, rk4_su2_power
from ptsense import (
    FdConfig,
    PtParams,
    analytic_rho_3l,
    artificial_pt,
    dilate_initial,
    effective_evolve,
    evolve_density,
    evolve_enlarged,
    hamiltonian_4d,
    hamiltonian_pt,
    integrate_lindblad,
    integrate_nh_master,
    liouvillian_is_defective,
    liouvillian_matrix,
    plus_y,
    postselect,
    propagator_4d,
    pure_density,
    qfi_sld,
    qfi_spectral,
    qfi_two_level,
    resource_metrics,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from ptsense.lindblad import lindblad_model, plus_y_3l

GRID_RATIOS = (0.0, 0.2, 0.6, 0.9, 1.0 - 1e-6)
TAUS_129 = np.linspace(0.0, 4 * np.pi, 129)
DT = 1e-4
FD = FdConfig.for_omega(1.0)


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS: {detail}")


def _rho_of(vec: np.ndarray) -> np.ndarray:
    m = np.outer(vec, vec.conj())
    return m / np.trace(m).real


def test_criterion_01_integrator_matches_closed_forms():
    worst = {"rho_pt": 0.0, "rho_4d": 0.0, "rho_3l": 0.0}
    for ratio in GRID_RATIOS:
        p = PtParams(omega=1.0, gamma=ratio)
        h_pt = hamiltonian_pt(p)
        h_4d = hamiltonian_4d(p)
        psi4_0 = dilate_initial(plus_y(), p).amplitudes
        liou9 = lindblad_superoperator(lindblad_model(p).h0, lindblad_model(p).jump)
        rho3_0 = np.outer(plus_y_3l(), plus_y_3l().conj()).reshape(-1)
        for tau in TAUS_129[1:]:
            t = tau / p.kappa
            got_pt = _rho_of(rk4_su2_power(h_pt, p.kappa / 2, t, DT) @ plus_y())
            ref_pt = evolve_density(pure_density(plus_y()), p, t).matrix
            worst["rho_pt"] = max(worst["rho_pt"], np.max(np.abs(got_pt - ref_pt)))
            got_4d = _rho_of(rk4_su2_power(h_4d, p.kappa / 2, t, DT) @ psi4_0)
            ref_4d = evolve_enlarged(plus_y(), p, t).matrix
            worst["rho_4d"] = max(worst["rho_4d"], np.max(np.abs(got_4d - ref_4d)))
            got_3l = rk4_linear_power(liou9, rho3_0, t, DT).reshape(3, 3)
            ref_3l = analytic_rho_3l(p, t).matrix
            worst["rho_3l"] = max(worst["rho_3l"], np.max(np.abs(got_3l - ref_3l)))
    assert all(err <= 1e-8 for err in worst.values()), worst
    # tie the power path to the literal sequential loops at a moderate point
    p = PtParams(1.0, 0.6)
    t = np.pi / 1.6
    seq = integrate_nh_master(pure_density(plus_y()), p, t, DT).matrix
    pw = _rho_of(rk4_su2_power(hamiltonian_pt(p), p.kappa / 2, t, DT) @ plus_y())
    assert np.max(np.abs(seq - pw)) <= 1e-10
    seq3 = integrate_lindblad(np.outer(plus_y_3l(), plus_y_3l().conj()), p, t, DT).matrix
    pw3 = rk4_linear_power(
        lindblad_superoperator(lindblad_model(p).h0, lindblad_model(p).jump),
        np.outer(plus_y_3l(), plus_y_3l().conj()).reshape(-1), t, DT,
    ).reshape(3, 3)
    assert np.max(np.abs(seq3 - pw3)) <= 1e-10
    report(1, "RK4 (dt=1e-4) vs closed forms: max err "
              f"pt={worst['rho_pt']:.2e}, 4d={worst['rho_4d']:.2e}, 3l={worst['rho_3l']:.2e} (<= 1e-8); "
              "power path == sequential loops to 1e-10")


def test_criterion_02_cross_scheme_equality():
    worst = 0.0
    points = 0
    for ratio in GRID_RATIOS:
        p = PtParams(omega=1.0, gamma=ratio)
        # scheme II's decaying norm underflows doubles at gamma*t ~ 1400;
        # compare on the representable window (full grid away from the EP)
        tau_top = min(4 * np.pi, 300.0 * p.kappa / p.gamma) if p.gamma else 4 * np.pi
        for tau in TAUS_129[1:]:
            if tau > tau_top:
                break
            t = tau / p.kappa
            direct = evolve_density(pure_density(plus_y()), p, t).matrix
            scheme1 = postselect(evolve_enlarged(plus_y(), p, t)).rho_pt.matrix
            scheme2 = effective_evolve(plus_y(), p, t).normalized().matrix
            worst = max(worst, np.max(np.abs(scheme1 - scheme2)),
                        np.max(np.abs(scheme1 - direct)))
            points += 1
    assert worst <= 1e-9
    report(2, f"post-selected vs renormalized-effective states agree to {worst:.2e} "
              f"(<= 1e-9) over {points} grid points")


def test_criterion_03_unitarity_and_traces():
    worst_u, worst_tr4, worst_tr3 = 0.0, 0.0, 0.0
    for ratio in GRID_RATIOS:
        p = PtParams(omega=1.0, gamma=ratio)
        liou9 = lindblad_superoperator(lindblad_model(p).h0, lindblad_model(p).jump)
        rho3_0 = np.outer(plus_y_3l(), plus_y_3l().conj()).reshape(-1)
        for tau in TAUS_129[1::8]:
            t = tau / p.kappa
            u4 = propagator_4d(p, t)
            worst_u = max(worst_u, np.linalg.norm(u4 @ u4.conj().T - np.eye(4)))
            worst_tr4 = max(worst_tr4, abs(np.trace(evolve_enlarged(plus_y(), p, t).matrix).real - 1.0))
            rho3 = rk4_linear_power(liou9, rho3_0, t, DT).reshape(3, 3)
            worst_tr3 = max(worst_tr3, abs(np.trace(rho3).real - 1.0))
    assert worst_u <= 1e-10 and worst_tr4 <= 1e-10 and worst_tr3 <= 1e-10
    report(3, f"||U4d U4d^+ - 1|| = {worst_u:.2e}, |Tr rho4d - 1| = {worst_tr4:.2e}, "
              f"3-level trace drift = {worst_tr3:.2e} (all <= 1e-10)")


def test_criterion_04_spot_values():
    p = PtParams(1.0, 0.6)
    t = np.pi / 1.6  # tau = pi/2
    rho11 = evolve_density(pure_density(plus_y()), p, t).population
    assert abs(rho11 - 0.9) <= 1e-10
    p_suc = postselect(evolve_enlarged(plus_y(), p, t)).p_suc
    assert abs(p_suc - 0.5) <= 1e-10
    eff = effective_evolve(plus_y(), p, t)
    assert abs(eff.trace - oracle_p_suc_eff(1.0, 0.6, t)) <= 1e-10
    amplified = artificial_pt(plus_y(), p, t)
    assert abs(amplified.trace - (1.0 - 0.6 * math.cos(0.8 * t)) / 0.4) <= 1e-10
    report(4, f"rho_pt11 = {rho11:.12f}, p_suc = {p_suc:.12f}, "
              f"p_suc_eff = {eff.trace:.12f} vs formula oracle (<= 1e-10)")


def test_criterion_05_hermitian_baselines():
    p = PtParams(1.0, 0.0)
    worst = 0.0
    for t in np.linspace(0.0, 4 * np.pi, 33):
        got = evolve_density(pure_density(plus_y()), p, t).population
        worst = max(worst, abs(got - (1 + math.sin(t)) / 2))
    assert worst <= 1e-10
    worst_f = 0.0
    for t in (1.0, math.pi, 5.0):
        r1 = weighted_qfi_scheme1(p, t, FD)
        r2 = weighted_qfi_scheme2(p, t, FD)
        for value in (r1.f_suc, r1.f_total, r2.f_total):
            worst_f = max(worst_f, abs(value - t * t) / (t * t))
    assert worst_f <= 1e-6
    report(5, f"Rabi population err {worst:.2e} (<= 1e-10); "
              f"QFI t^2 relative err {worst_f:.2e} (<= 1e-6)")


def test_criterion_06_qfi_form_equivalence(rng):
    worst = 0.0
    for _ in range(50):
        rho, drho = random_mixed_pair(rng)
        f = (qfi_sld(rho, drho), qfi_spectral(rho, drho), qfi_two_level(rho, drho))
        scale = max(1.0, f[0])
        worst = max(worst, (max(f) - min(f)) / scale)
    # the PT grid: rank-1 states from the closed-form family
    h = 1e-6
    for ratio in (0.2, 0.6, 0.9):
        p = PtParams(1.0, ratio)
        for tau in (1.0, 3.0, 5.0):
            t = tau / p.kappa
            rho = evolve_density(pure_density(plus_y()), p, t).matrix
            dr = (evolve_density(pure_density(plus_y()), PtParams(1 + h, p.gamma), t).matrix
                  - evolve_density(pure_density(plus_y()), PtParams(1 - h, p.gamma), t).matrix) / (2 * h)
            f = (qfi_sld(rho, dr), qfi_spectral(rho, dr), qfi_two_level(rho, dr))
            worst = max(worst, (max(f) - min(f)) / max(1.0, f[0]))
    assert worst <= 1e-8
    report(6, f"three QFI forms agree to {worst:.2e} relative (<= 1e-8) "
              "on 50 random mixed states and the PT grid")


def test_criterion_07_liouvillian_spectrum():
    worst = 0.0
    for ratio in (0.0, 0.3, 0.6, 0.9, 1.0 - 1e-12, 1.0):
        p = PtParams(1.0, ratio)
        _, values = liouvillian_matrix(p)
        key = lambda z: (round(z.imag, 9), round(z.real, 9))
        got = np.array(sorted(values, key=key))
        expected = np.array(sorted(
            [-p.gamma - 1j * p.kappa, -p.gamma, -p.gamma, -p.gamma + 1j * p.kappa], key=key))
        worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst <= 1e-15
    assert liouvillian_is_defective(PtParams(1.0, 1.0))
    assert not liouvillian_is_defective(PtParams(1.0, 0.9))
    report(7, f"spectrum {{-gamma±ik, -gamma, -gamma}} to {worst:.2e} (<= 1e-15); "
              "defectiveness detected at gamma/omega = 1 only")


def test_criterion_08_resource_limits():
    p_ep = PtParams(1.0, 1.0 - 1e-6)
    near = resource_metrics(p_ep, 5.0 / p_ep.kappa, FD)
    assert near.xi > 0.99 and near.zeta < 0.1
    zetas = {}
    for ratio in (0.3, 0.6, 0.9, 1.0 - 1e-6):
        p = PtParams(1.0, ratio)
        for n in (1, 2):
            zetas[ratio, n] = resource_metrics(p, 2 * n * np.pi / p.kappa, FD).zeta
            assert abs(zetas[ratio, n] - 1.0) <= 1e-12
    worst_identity = 0.0
    for ratio in GRID_RATIOS:
        p = PtParams(1.0, ratio)
        for tau in (1.0, 3.0, 5.0, 2 * np.pi, 10.0):
            out = resource_metrics(p, tau / p.kappa, FD)
            worst_identity = max(worst_identity, abs(out.zeta**2 + out.xi - 1.0))
    assert worst_identity <= 1e-10
    report(8, f"near-EP tau=5: xi = {near.xi:.6f} (> 0.99), zeta = {near.zeta:.4f} (< 0.1); "
              f"zeta(2pi), zeta(4pi) = 1 within {max(abs(z - 1) for z in zetas.values()):.1e} (<= 1e-12); "
              f"zeta^2 + xi - 1 <= {worst_identity:.1e}")


def test_criterion_09_figure_trends():
    from ptsense import susceptibility_eff, susceptibility_pt

    s_pt, s_eff = [], []
    for ratio in (0.0, 0.3, 0.6, 0.9):
        p = PtParams(1.0, ratio)
        t = 2 * np.pi / p.kappa
        s_pt.append(susceptibility_pt(p, t))
        s_eff.append(abs(susceptibility_eff(p, t)))
    assert all(b > a for a, b in zip(s_pt, s_pt[1:]))
    assert all(b < a for a, b in zip(s_eff, s_eff[1:]))
    i_4d = []
    for ratio in (0.0, 0.3, 0.6, 0.9):
        p = PtParams(1.0, ratio)
        i_4d.append(weighted_qfi_scheme1(p, 5.0 / p.kappa, FD).i_total)
    assert all(b > a for a, b in zip(i_4d, i_4d[1:]))
    p6 = PtParams(1.0, 0.6)
    i_eff_nh = weighted_qfi_scheme2(p6, 5.0 / p6.kappa, FD).i_total
    i_eff_h = weighted_qfi_scheme2(PtParams(1.0, 0.0), 5.0, FD).i_total
    assert i_eff_nh < i_eff_h
    for tau in (20.0, 25.0):
        late = weighted_qfi_scheme2(p6, tau / p6.kappa, FD).i_total
        base = weighted_qfi_scheme2(PtParams(1.0, 0.0), tau, FD).i_total
        assert late <= 1e-2 * base
    report(9, "S_pt strictly increasing / |S_eff| strictly decreasing in gamma at tau=2pi; "
              "I_4d strictly increasing at tau=5; I_eff(0.6) < I_eff(0) and I_eff -> 0 late")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    from ptsense.cli import main

    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    assert main(["figure", "fig7", "--output", str(paths[0])]) == 0
    assert main(["figure", "fig7", "--output", str(paths[1])]) == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1]
    capsys.readouterr()
    report(10, f"figure fig7 byte-identical across two runs ({len(blobs[0])} bytes)")
