"""Naimark dilation: metric, enlarged dynamics, post-selection."""

import math

import numpy as np
import pytest

from conftest import oracle_psi_4d, oracle_rho_4d
from oracles import expm
from ptsense import (
    PtParams,
    dilate_initial,
    evolve_density,
    evolve_enlarged,
    hamiltonian_4d,
    hamiltonian_pt,
    metric_operator,
    minus_y,
    plus_y,
    postselect,
    propagator_4d,
    propagator_pt,
    pure_density,
)
from ptsense.errors import MetricSingular

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
GRID = (0.2, 0.6, 0.9, 1.0 - 1e-6)


def test_metric_identity_at_gamma0():
    assert np.max(np.abs(metric_operator(PtParams(1.0, 0.0)) - np.eye(2))) < 1e-14


def test_metric_entries():
    eta = metric_operator(PtParams(1.0, 0.6))
    assert np.max(np.abs(eta - (np.eye(2) + 0.6 * SY) / 0.8)) < 1e-14


@pytest.mark.parametrize("ratio", GRID)
def test_metric_pseudo_hermiticity(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    eta = metric_operator(p)
    h = hamiltonian_pt(p)
    assert np.max(np.abs(eta - eta.conj().T)) < 1e-12
    assert np.max(np.abs(eta @ h - h.conj().T @ eta)) < 1e-12
    assert np.min(np.linalg.eigvalsh(eta)) > 0.0
    assert np.max(np.abs(eta @ h @ np.linalg.inv(eta) - h.conj().T)) < 1e-10 * np.linalg.norm(eta)


def test_metric_singular_at_ep():
    with pytest.raises(MetricSingular):
        metric_operator(PtParams(1.0, 1.0))
    with pytest.raises(MetricSingular):
        metric_operator(PtParams(1.0, 1.0 - 1e-13))


def test_dilate_initial_gamma0():
    out = dilate_initial(plus_y(), PtParams(1.0, 0.0))
    expected = np.concatenate([plus_y(), plus_y()]) / math.sqrt(2)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-14


def test_dilate_initial_populations():
    out = dilate_initial(plus_y(), PtParams(1.0, 0.6))
    assert np.allclose(out.populations, [0.1, 0.1, 0.4, 0.4], atol=1e-12)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_hamiltonian_4d_hermitian_and_gamma0_form():
    h4 = hamiltonian_4d(PtParams(1.0, 0.6))
    assert np.max(np.abs(h4 - h4.conj().T)) <= 1e-14
    h0 = hamiltonian_4d(PtParams(1.0, 0.0))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.max(np.abs(h0 - np.kron(np.eye(2), 0.5 * sx))) < 1e-14


@pytest.mark.parametrize("ratio", GRID)
def test_hamiltonian_4d_spectrum(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    eigs = np.sort(np.linalg.eigvalsh(hamiltonian_4d(p)))
    k2 = p.kappa / 2
    assert np.allclose(eigs, [-k2, -k2, k2, k2], atol=1e-10)


def test_hamiltonian_4d_generates_closed_form():
    p = PtParams(1.0, 0.6)
    t = 1.0
    psi0 = dilate_initial(plus_y(), p).amplitudes
    propagated = expm(hamiltonian_4d(p), scale=-1j * t) @ psi0
    # compare as density matrices: global phase is not fixed by the generator
    d_prop = np.outer(propagated, propagated.conj())
    assert np.max(np.abs(d_prop - evolve_enlarged(plus_y(), p, t).matrix)) <= 1e-8


def test_propagator_4d_identity_and_block_structure():
    assert np.max(np.abs(propagator_4d(PtParams(1.0, 0.6), 0.0) - np.eye(4))) < 1e-14
    p0 = PtParams(1.0, 0.0)
    u = propagator_pt(p0, 1.3)
    u4 = propagator_4d(p0, 1.3)
    expected = np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), u]])
    assert np.max(np.abs(u4 - expected)) < 1e-12


@pytest.mark.parametrize("ratio", GRID)
def test_propagator_4d_unitarity(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    for tau in (0.5, 2.0, 6.0, 11.0):
        t = tau / p.kappa
        u4 = propagator_4d(p, t)
        assert np.linalg.norm(u4 @ u4.conj().T - np.eye(4)) <= 1e-10


@pytest.mark.parametrize("ratio", GRID)
def test_propagator_4d_matches_synchronized_construction(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    psi0 = dilate_initial(plus_y(), p).amplitudes
    for tau in (0.7, 3.1):
        t = tau / p.kappa
        via_u = propagator_4d(p, t) @ psi0
        d_u = np.outer(via_u, via_u.conj())
        assert np.max(np.abs(d_u - evolve_enlarged(plus_y(), p, t).matrix)) <= 1e-10


def test_enlarged_spot_values():
    p = PtParams(1.0, 0.6)
    assert evolve_enlarged(plus_y(), p, 0.0).populations[0] == pytest.approx(0.1, abs=1e-12)
    rho = evolve_enlarged(plus_y(), p, np.pi / 1.6)
    assert rho.populations[0] == pytest.approx(0.45, abs=1e-12)
    assert rho.matrix[0, 1] == pytest.approx(0.15j, abs=1e-12)


@pytest.mark.parametrize("ratio", GRID)
def test_enlarged_all_16_elements_match_oracle(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    for tau in np.linspace(0.0, 4 * np.pi, 9):
        t = tau / p.kappa
        got = evolve_enlarged(plus_y(), p, t).matrix
        assert np.max(np.abs(got - oracle_rho_4d(1.0, ratio, t))) < 1e-10


def test_enlarged_state_matches_wavefunction_oracle():
    for ratio in (0.2, 0.6, 0.9):
        p = PtParams(omega=1.0, gamma=ratio)
        for tau in (0.0, 1.0, 4.4):
            t = tau / p.kappa
            got = evolve_enlarged(plus_y(), p, t).matrix
            ref = oracle_psi_4d(1.0, ratio, t)
            assert np.max(np.abs(got - np.outer(ref, ref.conj()))) < 1e-12


def test_enlarged_is_pure_rank_one():
    rho = evolve_enlarged(plus_y(), PtParams(1.0, 0.6), 2.2)
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(eigs[:-1])) <= 1e-10


def test_synchronization_link():
    for ratio in GRID:
        p = PtParams(omega=1.0, gamma=ratio)
        eta = metric_operator(p)
        for t in (0.9, 4.0):
            rho = evolve_enlarged(plus_y(), p, t).matrix  # rho[2:, :2] = eta psi psi^dag / C^2
            assert np.max(np.abs(rho[2:, :2] - eta @ rho[:2, :2])) <= 1e-10 * np.linalg.norm(eta)


def test_metric_weighted_norm_is_conserved():
    for ratio in (0.2, 0.6, 0.9, 1.0 - 1e-6):
        p = PtParams(omega=1.0, gamma=ratio)
        eta = metric_operator(p)
        weight = np.eye(2) + eta @ eta
        ref = np.vdot(plus_y(), weight @ plus_y()).real
        for t in (0.5, 2.7, 8.0):
            psi = propagator_pt(p, t) @ plus_y()  # non-normalized
            val = np.vdot(psi, weight @ psi).real
            assert abs(val - ref) <= 1e-10 * abs(ref) * max(1.0, np.linalg.norm(psi) ** 2)


def test_postselect_spot_values():
    p = PtParams(1.0, 0.6)
    out = postselect(evolve_enlarged(plus_y(), p, np.pi / 1.6))
    assert out.p_suc == pytest.approx(0.5, abs=1e-12)
    assert out.rho_pt.population == pytest.approx(0.9, abs=1e-12)
    out0 = postselect(evolve_enlarged(plus_y(), p, 0.0))
    assert out0.p_suc == pytest.approx(0.2, abs=1e-12)
    assert out0.p_suc + out0.p_fail == pytest.approx(1.0, abs=1e-12)


def test_postselect_gamma0_success_rate_half():
    p = PtParams(1.0, 0.0)
    for t in (0.0, 1.0, 5.5):
        assert postselect(evolve_enlarged(plus_y(), p, t)).p_suc == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("ratio", GRID)
def test_postselect_collapses_to_pt_system(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    for tau in np.linspace(0.2, 4 * np.pi, 7):
        t = tau / p.kappa
        out = postselect(evolve_enlarged(plus_y(), p, t))
        direct = evolve_density(pure_density(plus_y()), p, t)
        assert np.max(np.abs(out.rho_pt.matrix - direct.matrix)) <= 1e-10


@pytest.mark.parametrize("ratio", (0.2, 0.6, 0.9))
def test_postselect_failure_branch_anti_mirror(ratio):
    p = PtParams(omega=1.0, gamma=ratio)
    for tau in (0.8, 3.0, 5.9):
        t = tau / p.kappa
        out = postselect(evolve_enlarged(plus_y(), p, t))
        r = evolve_density(pure_density(minus_y()), p, t).matrix
        mirrored = np.array([[r[1, 1], r[1, 0]], [r[0, 1], r[0, 0]]])
        assert np.max(np.abs(out.rho_a.matrix - mirrored)) <= 1e-10


def test_ep_limit_overlap():
    p = PtParams(omega=1.0, gamma=1.0 - 1e-6)
    out0 = postselect(evolve_enlarged(plus_y(), p, 0.0))
    assert out0.p_suc == pytest.approx((1.0 - p.gamma) / 2.0, rel=1e-6)
    # near the EP the two conditioned branches coincide up to the index swap
    t = 2.0 / p.kappa
    out = postselect(evolve_enlarged(plus_y(), p, t))
    r = out.rho_pt.matrix
    swapped = np.array([[r[1, 1], r[1, 0]], [r[0, 1], r[0, 0]]])
    assert np.max(np.abs(out.rho_a.matrix - swapped)) < 5e-3


def test_postselect_empty_branch_and_absent_failure_state():
    from ptsense import DensityMatrix4
    from ptsense.errors import EmptyBranch

    all_in_aux = DensityMatrix4(np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
    with pytest.raises(EmptyBranch):
        postselect(all_in_aux)
    all_in_pt = DensityMatrix4(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    out = postselect(all_in_pt)
    assert out.rho_a is None
    assert out.p_suc == pytest.approx(1.0, abs=1e-14)
