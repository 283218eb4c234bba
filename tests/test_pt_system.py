"""PT-symmetric two-level dynamics: propagator path, closed forms, integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_rho_a, oracle_rho_pt
from oracles import expm
from ptsense import (
    PtParams,
    evolve_density,
    evolve_state,
    hamiltonian_pt,
    integrate_nh_master,
    minus_y,
    plus_y,
    propagator_pt,
    pure_density,
)
from ptsense.errors import InvalidStep

GRID_RATIOS = (0.0, 0.2, 0.6, 0.9, 1.0 - 1e-6)


def test_hamiltonian_hermitian_limit():
    h = hamiltonian_pt(PtParams(omega=1.0, gamma=0.0))
    assert np.array_equal(h, 0.5 * np.array([[0, 1], [1, 0]], dtype=complex))


def test_hamiltonian_entries():
    h = hamiltonian_pt(PtParams(omega=1.0, gamma=0.6))
    expected = np.array([[0.3j, 0.5], [0.5, -0.3j]])
    assert np.max(np.abs(h - expected)) < 1e-15


def test_params_reject_broken_phase():
    with pytest.raises(ValueError):
        PtParams(omega=1.0, gamma=1.0 + 1e-9)


def test_kappa_identity():
    p = PtParams(omega=1.3, gamma=0.7)
    assert abs(p.kappa**2 + p.gamma**2 - p.omega**2) < 1e-12


def test_propagator_identity_at_t0():
    assert np.array_equal(propagator_pt(PtParams(1.0, 0.6), 0.0), np.eye(2))


def test_propagator_hermitian_half_period():
    u = propagator_pt(PtParams(1.0, 0.0), np.pi)
    assert np.max(np.abs(u - (-1j) * np.array([[0, 1], [1, 0]]))) < 1e-14


def test_propagator_distinctly_non_unitary():
    u = propagator_pt(PtParams(1.0, 0.6), np.pi / 1.6)
    assert np.linalg.norm(u @ u.conj().T - np.eye(2)) > 0.1


def test_evolve_state_t0_and_population():
    st0 = evolve_state(plus_y(), PtParams(1.0, 0.6), 0.0)
    assert np.allclose(st0.amplitudes, plus_y())
    assert st0.norm_factor == pytest.approx(1.0)
    out = evolve_state(plus_y(), PtParams(1.0, 0.6), np.pi / 1.6)
    assert out.population == pytest.approx(0.9, abs=1e-12)


def test_evolve_state_rabi_population():
    p = PtParams(1.0, 0.0)
    for t in np.linspace(0.0, 4 * np.pi, 9):
        out = evolve_state(plus_y(), p, t)
        assert out.population == pytest.approx((1 + math.sin(t)) / 2, abs=1e-12)


def test_evolve_density_maximally_mixed_fixed_point():
    p = PtParams(1.0, 0.0)
    rho = 0.5 * np.eye(2, dtype=complex)
    for t in (0.3, 1.7, 9.2):
        assert np.max(np.abs(evolve_density(rho, p, t).matrix - rho)) < 1e-14


def test_evolve_density_spot_values():
    p = PtParams(1.0, 0.6)
    rho0 = pure_density(plus_y())
    assert evolve_density(rho0, p, np.pi / 1.6).population == pytest.approx(0.9, abs=1e-12)
    assert evolve_density(rho0, p, 2 * np.pi / 0.8).population == pytest.approx(0.5, abs=1e-12)


def test_evolve_density_matches_state_outer_product():
    p = PtParams(1.0, 0.9)
    for t in (0.4, 2.0, 7.7):
        st_out = evolve_state(plus_y(), p, t)
        dm = evolve_density(pure_density(plus_y()), p, t)
        assert np.max(np.abs(dm.matrix - st_out.density().matrix)) <= 1e-12


@pytest.mark.parametrize("ratio", [r for r in GRID_RATIOS if r < 1.0 - 1e-9] + [0.95])
def test_closed_forms_match_propagator_path(ratio):
    # near the EP both representations lose ~1e-8: the closed form divides by
    # omega - gamma*cos(kappa t) ~ 1e-6 and the propagator route normalizes
    # branch vectors whose norm varies over six decades
    tol = 1e-10 if ratio <= 0.95 else 5e-8
    p = PtParams(omega=1.0, gamma=ratio)
    for tau in np.linspace(0.0, 4 * np.pi, 17):
        t = tau / p.kappa
        via_u = evolve_density(pure_density(plus_y()), p, t).matrix
        assert np.max(np.abs(via_u - oracle_rho_pt(1.0, ratio, t))) < tol
        via_u_minus = evolve_density(pure_density(minus_y()), p, t).matrix
        swapped = oracle_rho_a(1.0, ratio, t)
        expected = np.array([[swapped[1, 1], swapped[1, 0]], [swapped[0, 1], swapped[0, 0]]])
        assert np.max(np.abs(via_u_minus - expected)) < tol


def test_exceptional_point_population():
    # independent oracle: U = 1 - iHt at the EP gives rho11 = (1+t)^2 / (2(1+t^2))
    p = PtParams(omega=1.0, gamma=1.0)
    for t in (0.0, 0.5, 1.0, 3.0):
        expected = (1 + t) ** 2 / (2 * (1 + t * t))
        assert evolve_state(plus_y(), p, t).population == pytest.approx(expected, abs=1e-12)


def test_periodicity_in_unbroken_phase():
    for ratio in (0.2, 0.6, 0.9):
        p = PtParams(omega=1.0, gamma=ratio)
        period = 2 * np.pi / p.kappa
        for t in (0.3, 1.1):
            a = evolve_density(pure_density(plus_y()), p, t).matrix
            b = evolve_density(pure_density(plus_y()), p, t + period).matrix
            assert np.max(np.abs(a - b)) <= 1e-9


def test_hermitian_limit_is_unitary_conjugation():
    p = PtParams(omega=1.0, gamma=0.0)
    rho0 = pure_density(plus_y()).matrix
    for t in (0.7, 2.9):
        u = expm(hamiltonian_pt(p), scale=-1j * t)
        direct = u @ rho0 @ u.conj().T
        assert np.max(np.abs(evolve_density(rho0, p, t).matrix - direct)) <= 1e-10


def test_integrator_t0_returns_input():
    rho0 = pure_density(plus_y())
    out = integrate_nh_master(rho0, PtParams(1.0, 0.6), 0.0, 1e-3)
    assert np.array_equal(out.matrix, rho0.matrix)


def test_integrator_matches_closed_form():
    p = PtParams(1.0, 0.6)
    t = np.pi / 1.6
    out = integrate_nh_master(pure_density(plus_y()), p, t, 1e-4)
    assert np.max(np.abs(out.matrix - evolve_density(pure_density(plus_y()), p, t).matrix)) <= 1e-8


def test_integrator_matches_rabi():
    p = PtParams(1.0, 0.0)
    out = integrate_nh_master(pure_density(plus_y()), p, np.pi / 2, 1e-4)
    target = evolve_density(pure_density(plus_y()), p, np.pi / 2).matrix
    assert np.max(np.abs(out.matrix - target)) <= 1e-8


def test_integrator_rejects_bad_step():
    with pytest.raises(InvalidStep):
        integrate_nh_master(pure_density(plus_y()), PtParams(1.0, 0.6), 1.0, 0.0)


def test_integrator_mixed_state_fixed_point():
    p = PtParams(1.0, 0.6)
    # I/2 is NOT stationary for gamma > 0, but stays trace-1 Hermitian
    out = integrate_nh_master(0.5 * np.eye(2, dtype=complex), p, 1.3, 1e-4)
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.0, max_value=12.0),
    st.floats(min_value=0.0, max_value=np.pi),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_evolution_preserves_density_invariants(ratio, t, theta, phi):
    from ptsense import bloch_probe

    p = PtParams(omega=1.0, gamma=ratio)
    probe = bloch_probe(theta, phi)
    out = evolve_density(pure_density(probe), p, t)
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
    assert 0.0 - 1e-12 <= out.population <= 1.0 + 1e-12
