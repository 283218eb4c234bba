"""Closed-form omega-derivatives of the QFI evaluators.

The exact QFIs agree with a Richardson finite-difference oracle wherever a
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

from conftest import oracle_drho_pt, oracle_rho_pt
from oracles import fd_qfi_pt, fd_scheme1, fd_scheme2
from ptsense import (
    PtParams,
    bloch_probe,
    propagator_pt,
    qfi_pt,
    sld,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from ptsense.errors import InvalidMatrix, PtsenseError
from ptsense.linalg import su2_like_propagator, su2_like_tangent
from ptsense.pt_system import d_propagator_pt
from ptsense.states import PointErrors

REFERENCE = Path(__file__).resolve().parent / "near_ep_reference.json"


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


@pytest.mark.parametrize("gamma_ratio", [1e-215, 1e-100, 1e-30, 1e-12])
def test_scheme2_total_qfi_is_continuous_at_vanishing_gain_loss(gamma_ratio):
    # 1 - p_suc ~ gamma t lies far below the roundoff of |U psi0|^2 here
    for t in (0.1, 3.0):
        assert weighted_qfi_scheme2(PtParams(1.0, gamma_ratio), t).f_total == pytest.approx(t * t, rel=1e-9)


@pytest.mark.parametrize("gamma_ratio, tau", [(0.0, 1.0), (0.3, 2.0), (0.6, 3.0), (0.9, 5.0), (0.9, 2 * math.pi)])
def test_report_sld_is_sld_of_exact_derivative(gamma_ratio, tau):
    p = PtParams(1.0, gamma_ratio)
    t = tau / p.kappa
    expected = sld(oracle_rho_pt(1.0, gamma_ratio, t), oracle_drho_pt(1.0, gamma_ratio, t))
    for report in (weighted_qfi_scheme1(p, t), weighted_qfi_scheme2(p, t)):
        assert np.max(np.abs(report.sld_suc - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


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
        exact = su2_like_tangent(h, dh, c_squared, 0.7, t)
        assert np.max(np.abs(exact - fd)) <= 1e-8 * max(1.0, np.max(np.abs(exact)))


def test_near_ep_reference_values():
    points = json.loads(REFERENCE.read_text())["points"]
    assert len(points) == 16
    for point in points:
        p = PtParams(1.0, point["gamma_ratio"])
        t = point["t"]
        probe = None if point["probe"] == "plus_y" else bloch_probe(1.1, 0.7)
        where = f"gamma/omega={point['gamma_ratio']!r} tau={point['tau']!r} {point['probe']}"
        report = weighted_qfi_scheme1(p, t, probe=probe)
        got = {"f_suc": report.f_suc, "f_fail": report.f_fail, "f_total": report.f_total,
               "qfi_pt": qfi_pt(p, t, probe=probe)}
        if "scheme2_p_suc" in point:
            if float(point["scheme2_p_suc"]) > 1e-300:
                s2 = weighted_qfi_scheme2(p, t)
                got.update(scheme2_f_suc=s2.f_suc, scheme2_f_total=s2.f_total)
            else:  # the decayed state cannot be normalized in double precision
                with pytest.raises(PtsenseError):
                    weighted_qfi_scheme2(p, t)
        for key, value in got.items():
            assert value == pytest.approx(float(point[key]), rel=1e-8), f"{where}: {key}"


def test_tangent_at_the_exceptional_point():
    # U(t) = I - i t H with H^2 = 0, so dU = -(t^2/4)(I - (i t/3) H) - (i t/2) sigma_x
    at_ep, t = PtParams(1.0, 1.0), 0.5
    h = 1j * (propagator_pt(at_ep, 1.0) - np.eye(2))
    expected = -(t * t / 4) * (np.eye(2) - (1j * t / 3) * h) - 0.5j * t * np.array([[0, 1], [1, 0]])
    assert np.max(np.abs(d_propagator_pt(at_ep, t) - expected)) <= 1e-15


@pytest.mark.parametrize("row", [False, True])
def test_deep_decay_normalization_is_rejected_without_overflow(row):
    # the effective trace at (0.9, 793.5) is subnormal; 1/trace would overflow
    p, t = PtParams(1.0, 0.9), 793.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if row:
            errors = PointErrors(2)
            errors.run(weighted_qfi_scheme2, p, np.array([1.0, t]))
            assert errors.errors[0] is None and isinstance(errors.errors[1], InvalidMatrix)
        else:
            with pytest.raises(InvalidMatrix):
                weighted_qfi_scheme2(p, t)
