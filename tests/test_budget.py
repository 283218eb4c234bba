"""Scheme 1's information budget: xi and zeta from one parameter family.

On the channel a = U_4d psi4_0 (psi4_0 frozen at the base omega), the
enlarged-system QFI splits exactly as f_total = i_subs + F_C + F_coh
(metrology module docstring).  The information cost xi = (F_C + F_coh)/S and
the loss zeta = sqrt(i_subs/S), S = i_subs + F_C + F_coh, are ratios of sums
of nonnegative terms, so xi lies in [0, 1] at every point, t = 0 and t far
below the roundoff of the information included, with no cutoff.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsense import PtParams, bloch_probe, resource_metrics, weighted_qfi_scheme1
from ptsense.metrology import _budget, _point

RATIOS = st.floats(0.0, 1.0 - 1e-6)
TAUS = st.floats(0.0, 4.0 * math.pi)
#: t = (tau/kappa) 10^exponent reaches below 1e-300
EXPONENTS = st.floats(-300.0, 0.0)
THETAS = st.floats(0.0, math.pi)
PHIS = st.floats(0.0, 2.0 * math.pi)


def _budget_at(p, t, probe):
    """resource_metrics and the budget terms (i_subs, F_C, F_coh) at one point, with numpy
    warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return resource_metrics(p, t, probe=probe), _budget(_point(p, t, probe).channel)


@settings(max_examples=150, deadline=None)
@given(RATIOS, TAUS, EXPONENTS, THETAS, PHIS)
def test_xi_lies_in_the_unit_interval_at_every_time(gamma_ratio, tau, exponent, theta, phi):
    p = PtParams(1.0, gamma_ratio)
    out, (i_subs, f_c, f_coh) = _budget_at(p, tau / p.kappa * 10.0 ** exponent, bloch_probe(theta, phi))
    assert 0.0 <= out.xi <= 1.0 + 1e-15
    assert abs(out.zeta ** 2 + out.xi - 1.0) <= 1e-12
    assert min(i_subs, f_c, f_coh) >= 0.0
    assert i_subs <= i_subs + f_c <= i_subs + f_c + f_coh


@settings(max_examples=150, deadline=None)
@given(RATIOS, TAUS.filter(lambda tau: tau > 0.0), THETAS, PHIS)
def test_budget_adds_up_to_the_enlarged_system_qfi(gamma_ratio, tau, theta, phi):
    # the budget is taken on the tangent divided by its largest |component|; 2.2e-14 relative
    # measured over 3000 random points, gamma/omega = 1 - 1e-6 included
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    probe = bloch_probe(theta, phi)
    channel = _point(p, t, probe).channel
    peak = np.abs(channel[1]).max()
    f_total = weighted_qfi_scheme1(p, t, probe=probe).f_total
    assert sum(_budget(channel)) * peak * peak == pytest.approx(f_total, rel=1e-12)


@pytest.mark.parametrize("angles", [None, (1.1, 0.7), (2.5, 4.0)])
@pytest.mark.parametrize("gamma_ratio", [0.0, 0.3, 0.9, 1.0 - 1e-6])
def test_xi_is_continuous_at_tau_zero(gamma_ratio, angles):
    # t = 0 is evaluated on the t -> 0 limit of the tangent over t; xi(t) approaches it linearly
    # (slope at most 0.65 measured over 3000 random probes) and stays there down to t = 1e-300
    p = PtParams(1.0, gamma_ratio)
    probe = None if angles is None else bloch_probe(*angles)
    at_zero = _budget_at(p, 0.0, probe)[0]
    assert at_zero.i_total == 0.0 and 0.0 <= at_zero.xi <= 1.0
    for k in range(3, 301):
        t = 10.0 ** -k
        assert abs(_budget_at(p, t, probe)[0].xi - at_zero.xi) <= t + 1e-15, f"t = {t!r}"
