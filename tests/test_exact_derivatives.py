"""Closed-form omega-derivatives of the QFI evaluators and the susceptibilities.

The exact values agree with a Richardson finite-difference oracle wherever a
finite difference is well conditioned (tests/oracles.py), with committed
60-digit references next to the exceptional point, where it is not
(scripts/near_ep_reference.py), and with the limit at the exceptional point.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_qfi_pt, fd_scheme1, fd_scheme2, fd_susceptibilities
from ptsense import (
    PtParams,
    bloch_probe,
    hamiltonian_pt,
    propagator_pt,
    qfi_pt,
    resource_metrics,
    susceptibility_a,
    susceptibility_eff,
    susceptibility_enlarged,
    susceptibility_pt,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from ptsense.linalg import PAULI_X, _cos_sinc, _propagator, _tangent, sinc_slope, su2_like_propagator

REFERENCE = Path(__file__).resolve().parent / "near_ep_reference.json"


def _pair(h, dh, c_squared: float, dc_squared: float, t: float):
    """(U, dU) of H with H^2 = c^2 I at one time: the two propagator kernels on the terms of the phase c t."""
    x = math.sqrt(c_squared) * t
    cos, sinc = _cos_sinc(x)
    return _propagator(h, t, cos, sinc), _tangent(h, dh, dc_squared, t, (cos, sinc, sinc_slope(x)))


def _close(exact: float, fd: float) -> bool:
    # 1e-12 absolute covers the finite difference's roundoff (about 1e-10 * t
    # in the derivative) where a QFI of order t^2 is itself tiny
    return abs(exact - fd) <= 1e-6 * abs(fd) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.0, 4.0 * math.pi, exclude_min=True),
       st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
def test_exact_qfis_equal_finite_difference_oracle(gamma_ratio, tau, theta, phi):
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    probe = bloch_probe(theta, phi)
    r1 = weighted_qfi_scheme1(p, t, probe=probe)
    for field, fd in fd_scheme1(p, t, probe).items():
        assert _close(getattr(r1, field), fd), field
    r2 = weighted_qfi_scheme2(p, t)
    oracle2 = fd_scheme2(p, t)
    assert _close(r2.f_suc, oracle2["f_suc"])
    # the oracle's roundoff enters its f_total as about 1e-19/(1 - p_suc)
    if 1.0 - r2.p_suc >= 1e-6:
        assert _close(r2.f_total, oracle2["f_total"])
    assert _close(qfi_pt(p, t, probe=probe), fd_qfi_pt(p, t, probe))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.0, 4.0 * math.pi))
def test_exact_susceptibilities_equal_finite_difference_oracle(gamma_ratio, tau):
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    four_d = susceptibility_enlarged(p, t, index=(0, 2))
    exact = {"susceptibility_pt": susceptibility_pt(p, t), "susceptibility_a": susceptibility_a(p, t),
             "susceptibility_4d_pt": four_d[0], "susceptibility_4d_a": four_d[1],
             "susceptibility_eff": susceptibility_eff(p, t)}
    for name, fd in fd_susceptibilities(p, t).items():
        assert abs(exact[name] - fd) <= 1e-6 * abs(fd) + 1e-9, name


@pytest.mark.parametrize("gamma_ratio", [1e-215, 1e-100, 1e-30, 1e-12])
def test_scheme2_total_qfi_is_continuous_at_vanishing_gain_loss(gamma_ratio):
    # 1 - p_suc ~ gamma t lies far below the roundoff of |U psi0|^2 here
    for t in (0.1, 3.0):
        assert weighted_qfi_scheme2(PtParams(1.0, gamma_ratio), t).f_total == pytest.approx(t * t, rel=1e-9)


@pytest.mark.parametrize("c_squared", [1e-5, (0.5 * 0.999e-2) ** 2, (0.5 * 1.001e-2) ** 2, 0.16])
def test_tangent_is_continuous_across_the_series_switch(c_squared):
    # c^2 = kappa^2/4 as in propagator_pt; |x| = c t crosses 1e-2 between the middle two cases at t = 2
    h = np.array([[0.3, 0.5j], [-0.2, 0.1]])
    dh = np.array([[0.0, 0.5], [0.5, 0.0]])
    for t in (0.5, 2.0, 7.0):
        step = 1e-5

        def u(s):
            return su2_like_propagator(h + s * dh, c_squared + s * 0.7, t)

        fd = (u(step) - u(-step)) / (2 * step)
        u_pair, exact = _pair(h, dh, c_squared, 0.7, t)
        assert np.array_equal(u_pair, su2_like_propagator(h, c_squared, t))  # bit for bit
        assert np.max(np.abs(exact - fd)) <= 1e-8 * max(1.0, np.max(np.abs(exact)))


def test_near_ep_reference_values():
    points = json.loads(REFERENCE.read_text())["points"]
    assert len(points) == 19
    for point in points:
        p = PtParams(1.0, point["gamma_ratio"])
        t = point["t"]
        probe = None if point["probe"] == "plus_y" else bloch_probe(1.1, 0.7)
        where = f"gamma/omega={point['gamma_ratio']!r} tau={point['tau']!r} {point['probe']}"
        report = weighted_qfi_scheme1(p, t, probe=probe)
        got = {"f_suc": report.f_suc, "f_fail": report.f_fail, "f_total": report.f_total,
               "qfi_pt": qfi_pt(p, t, probe=probe)}
        if "scheme2_p_suc" in point:  # 6 of the 11 have p_suc <= 1e-300, and their values are exact too
            s2 = weighted_qfi_scheme2(p, t)
            got.update(scheme2_f_suc=s2.f_suc, scheme2_f_total=s2.f_total)
        for key, value in got.items():
            assert value == pytest.approx(float(point[key]), rel=1e-8), f"{where}: {key}"
        # the closed-form budget against the 60-digit 1 - i_subs/f_total: within 2e-13 measured; the
        # absolute 1e-12 covers xi of 1e-27 at tau = 2 pi n, where the budget keeps only roundoff
        resources = resource_metrics(p, t, probe=probe)
        for key in ("xi", "zeta"):
            assert getattr(resources, key) == pytest.approx(float(point[key]), rel=1e-8, abs=1e-12), f"{where}: {key}"
        if "susceptibility_pt" in point:
            four_d = susceptibility_enlarged(p, t, index=(0, 2))
            got = {"susceptibility_pt": susceptibility_pt(p, t), "susceptibility_a": susceptibility_a(p, t),
                   "susceptibility_4d_pt": four_d[0], "susceptibility_4d_a": four_d[1],
                   "susceptibility_eff": susceptibility_eff(p, t)}
            for key, value in got.items():
                assert value == pytest.approx(float(point[key]), rel=1e-9), f"{where}: {key}"


def test_tangent_at_the_exceptional_point():
    # U(t) = I - i t H with H^2 = 0, so dU = -(t^2/4)(I - (i t/3) H) - (i t/2) sigma_x
    at_ep, t = PtParams(1.0, 1.0), 0.5
    h = 1j * (propagator_pt(at_ep, 1.0) - np.eye(2))
    expected = -(t * t / 4) * (np.eye(2) - (1j * t / 3) * h) - 0.5j * t * np.array([[0, 1], [1, 0]])
    assert np.max(np.abs(_pair(hamiltonian_pt(at_ep), 0.5 * PAULI_X, 0.0, 0.5, t)[1] - expected)) <= 1e-15


@pytest.mark.parametrize("row", [False, True])
def test_deep_decay_values_are_finite_without_overflow(row):
    # the success rate at (0.9, 793.5) is subnormal, and 1/p_suc would overflow; nothing divides by it
    p, t = PtParams(1.0, 0.9), 793.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = weighted_qfi_scheme2(p, np.array([1.0, t]) if row else t)
    p_suc, f_suc, f_total, i_total = (np.ravel(x)[-1] for x in (
        report.p_suc, report.f_suc, report.f_total, report.i_total))
    assert 0.0 < p_suc < 1e-300
    assert 0.0 < f_suc < math.inf and 0.0 <= f_total < math.inf and 0.0 <= i_total < math.inf
