"""The pure-state QFI evaluators against the density-matrix path they replace,
and against the quantum speed limit on the information they report.

weighted_qfi_scheme1/2 read branch rates from one state vector and its
tangent.  Their rates must equal, bit for bit, the ones the validated density
matrices give (postselect(evolve_enlarged(...)) and analytic_rho_3l).

Bounds: when omega enters only through H(omega) acting for a time t, the QFI
of the evolved pure state is at most t^2 sn(dH/domega)^2, with
sn(A) = lambda_max - lambda_min (Boixo et al. 2007, PRL 98:090401).

Deep decay, where e^{-gamma t} underflows, is an ordinary point: the scalar
calls return finite values there.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsense import (
    PtParams,
    analytic_rho_3l,
    artificial_pt,
    bloch_probe,
    evolve_enlarged,
    plus_y,
    postselect,
    postselect_3l,
    resource_metrics,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from ptsense.errors import InvalidMatrix

RATIOS = st.floats(0.0, 1.0 - 1e-6)
#: a subnormal t^2 keeps no relative precision, so a bound is not checked finer than this
TINY = 1e-12 * sys.float_info.min
TAUS = st.floats(0.0, 4.0 * math.pi)
THETAS = st.floats(0.0, math.pi)
PHIS = st.floats(0.0, 2.0 * math.pi)


def _sn_dh4(p):
    """lambda_max - lambda_min of d(H_4d)/d(omega), built from H_4d's blocks by hand:
    H_4d = (kappa/2 omega)[[kappa sx, i gamma sz], [-i gamma sz, kappa sx]]."""
    w, g, k = p.omega, p.gamma, p.kappa
    diagonal, off = (w * w + g * g) / (2.0 * w * w), g ** 3 / (2.0 * k * w * w)
    sx, sz = np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])
    dh4 = np.block([[diagonal * sx, 1j * off * sz], [-1j * off * sz, diagonal * sx]])
    eigs = np.linalg.eigvalsh(dh4)
    return eigs[-1] - eigs[0]


@settings(max_examples=60, deadline=None)
@given(RATIOS, TAUS, THETAS, PHIS)
def test_scheme1_rates_are_postselect_rates_bit_for_bit(gamma_ratio, tau, theta, phi):
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    probe = bloch_probe(theta, phi)
    report = weighted_qfi_scheme1(p, t, probe=probe)
    branches = postselect(evolve_enlarged(probe, p, t))
    assert report.p_suc == branches.p_suc
    assert report.p_fail == branches.p_fail


@settings(max_examples=60, deadline=None)
@given(RATIOS, TAUS)
def test_scheme2_rate_is_three_level_rate_bit_for_bit(gamma_ratio, tau):
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    rho = analytic_rho_3l(p, t).matrix
    assert weighted_qfi_scheme2(p, t).p_suc == rho[0, 0].real + rho[1, 1].real


@settings(max_examples=80, deadline=None)
@given(RATIOS, TAUS, THETAS, PHIS)
def test_scheme1_total_qfi_obeys_the_speed_limit(gamma_ratio, tau, theta, phi):
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    f_total = weighted_qfi_scheme1(p, t, probe=bloch_probe(theta, phi)).f_total
    assert f_total <= t * t * _sn_dh4(p) ** 2 * (1.0 + 1e-12) + TINY


@settings(max_examples=80, deadline=None)
@given(RATIOS, TAUS)
def test_scheme2_total_qfi_obeys_the_speed_limit(gamma_ratio, tau):
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    f_total = weighted_qfi_scheme2(p, t).f_total
    assert f_total <= t * t * (1.0 + 1e-12) + TINY


@settings(max_examples=80, deadline=None)
@given(RATIOS, st.floats(0.0, 2000.0))
def test_deep_decay_is_ordinary(gamma_ratio, decay):
    # gamma t up to 2000, far past the underflow of e^{-gamma t} at about 745; t is capped
    # at 2e6 where gamma is tiny
    p = PtParams(1.0, gamma_ratio)
    t = decay / max(p.gamma, 1e-3)
    report = weighted_qfi_scheme2(p, t)
    assert math.isfinite(report.f_suc) and report.f_suc >= 0.0
    assert math.isfinite(report.f_total) and 0.0 <= report.f_total <= t * t * (1.0 + 1e-12) + TINY
    branches = postselect_3l(p, t)
    assert abs(branches.p_suc + branches.p_fail - 1.0) <= 1e-12
    rho = branches.rho_pt.matrix
    assert np.isfinite(rho).all() and abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.isfinite(artificial_pt(plus_y(), p, t).matrix).all()


def test_speed_limit_spread_grows_towards_the_exceptional_point():
    # sn(dH_4d) is 1 for the Hermitian qubit and about omega/kappa near the EP
    sn = [_sn_dh4(PtParams(1.0, r)) for r in (0.0, 0.9, 0.999, 1.0 - 1e-6)]
    assert sn == pytest.approx([1.0, 2.464, 22.39, 707.1], rel=1e-3)


@pytest.mark.parametrize("t, probe", [(1.0, [0.0, 0.0]), (1.0, [math.nan, 1.0]), (math.nan, None), (math.inf, None)])
def test_non_finite_states_still_raise_typed(t, probe):
    # the pure-state path keeps a finiteness check, so malformed input fails as InvalidMatrix, not as NaN values
    p = PtParams(1.0, 0.6)
    probe = None if probe is None else np.array(probe, dtype=complex)
    with np.errstate(all="ignore"):
        with pytest.raises(InvalidMatrix):
            weighted_qfi_scheme1(p, t, probe=probe)
        with pytest.raises(InvalidMatrix):
            resource_metrics(p, t, probe=probe)
        if probe is None:
            with pytest.raises(InvalidMatrix):
                weighted_qfi_scheme2(p, t)
