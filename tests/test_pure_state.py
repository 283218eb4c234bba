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

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
from ptsense.metrology import _budget, _point

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
@given(RATIOS, TAUS, THETAS, PHIS)
def test_scheme1_information_budget_obeys_the_speed_limit(gamma_ratio, tau, theta, phi):
    # the upper end of the chain i_subs <= i_subs + F_C <= S = i_subs + F_C + F_coh <= t^2 sn(dH_4d)^2; the
    # terms are taken on the tangent over its largest |component| (metrology._budget)
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    channel = _point(p, t, bloch_probe(theta, phi)).channel
    peak = np.abs(channel[1]).max()
    assert sum(_budget(channel)) * peak * peak <= t * t * _sn_dh4(p) ** 2 * (1.0 + 1e-12) + TINY


def _success_rate_information(gamma_ratio: float, t: float):
    """(F_C, p): F_C = (dp/domega)^2/(p (1 - p)) of scheme 2's success rate p(omega) = e^{-gamma t} |U_pt(omega)
    psi0|^2 at omega = 1 and fixed t, psi0 = |+>_y, and p: mpmath on the closed-form propagator, differentiated
    numerically, with digits enough that 1 - p = O(gamma t) keeps 40 of them."""
    if gamma_ratio == 0.0 or t == 0.0:  # p = 1 at every omega
        return 0.0, mpmath.mpf(1)
    with mpmath.workdps(60 + max(0, -math.floor(math.log10(gamma_ratio) + math.log10(t)))):
        g, t = mpmath.mpf(gamma_ratio), mpmath.mpf(t)

        def rate(w):
            x = mpmath.sqrt(w * w - g * g) * t / 2
            c, s = mpmath.cos(x), t * mpmath.sinc(x)
            # U psi0 = cos(x) psi0 - i t sinc(x) H psi0, H = [[i g/2, w/2], [w/2, -i g/2]], psi0 = (1, i)/sqrt(2)
            v1 = c - 1j * s * (1j * g / 2 + 1j * w / 2)
            v2 = 1j * c - 1j * s * (w / 2 + g / 2)
            return mpmath.exp(-g * t) * (abs(v1) ** 2 + abs(v2) ** 2) / 2

        p, dp = rate(mpmath.mpf(1)), mpmath.diff(rate, mpmath.mpf(1))
        return float(dp * dp / (p * (1 - p))), p


@settings(max_examples=80, deadline=None)
@given(RATIOS, TAUS)
def test_scheme2_total_qfi_is_rate_information_plus_weighted_qfi(gamma_ratio, tau):
    # f_total = F_C + i_suc: the information of which outcome fired plus the success-weighted QFI of the
    # conditioned state (the sink carries no coherence term).  A success rate below the smallest normal
    # double keeps only its absolute precision, 4.9e-324, which f_total carries as a relative error
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    report = weighted_qfi_scheme2(p, t)
    f_c, rate = _success_rate_information(gamma_ratio, t)
    expected = f_c + report.i_suc
    assert abs(report.f_total - expected) <= 1e-12 * expected + float(mpmath.mpf(expected) * 1e-323 / rate)


@settings(max_examples=80, deadline=None)
@given(RATIOS, st.floats(0.0, 2000.0))
@example(0.9999989999999999, 1913.40625)  # amplified trace 1.9e6, where an absolute eigenvalue floor misfired
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
