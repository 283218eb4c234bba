"""Results are valid by construction: the properties that replace the per-call result checks.

A caller's probe, initial state and times are checked once, at entry; a
closed-form result is then only checked for being finite, and is built
without its class's Hermiticity, trace and positivity checks.  The properties
below are those deleted checks, run here over the unbroken phase instead of on
every call: gamma/omega in [0, 1 - 1e-6], tau in [0, 4 pi], deep decay
(gamma t up to 2000) and random Bloch probes.  Each result is finite and
Hermitian, its trace is 1 (normalized), in [0, 1] (the dissipative state) or
non-negative (the amplified state), and its lowest eigenvalue is above a floor
relative to its trace: the state classes' absolute tolerances (1e-12 for
Hermiticity, 1e-10 for eigenvalues), scaled by the trace.  A subnormal trace
keeps no relative precision, so the floors also allow the roundoff of the
smallest normal number.

The three-level state and the effective state keep one check, _survival: a
trace above 1 + 1e-10 raises InvalidMatrix.  A finite input reaches it at
t ~ 1e6 and tiny gamma, where the propagator's norm drifts from 1 by about
1e-10 (CHANGES.md, FOUND); the property asserts that it raises there.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptsense import (
    PtParams,
    analytic_rho_3l,
    artificial_pt,
    bloch_probe,
    dilate_initial,
    effective_evolve,
    evolve_density,
    evolve_enlarged,
    evolve_state,
    plus_y,
    postselect,
    postselect_3l,
    pure_density,
)
from ptsense.errors import InvalidMatrix

RATIOS = st.one_of(st.floats(0.0, 1.0 - 1e-6), st.sampled_from([0.0, 0.9, 1.0 - 1e-5, 1.0 - 1e-6]))
#: ("tau", tau) for a time on the tau = kappa t grid of the presets, ("decay", gamma t) for deep decay
TIMES = st.one_of(st.tuples(st.just("tau"), st.floats(0.0, 4.0 * math.pi)),
                  st.tuples(st.just("decay"), st.floats(0.0, 2000.0)))
ANGLES = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
#: how far the matrix may be from Hermitian, and the lowest eigenvalue below zero, relative to the
#: trace ...
HERMITIAN_FLOOR, EIGENVALUE_FLOOR = 1e-12, 1e-10
#: ... and in absolute terms, for a subnormal trace
ABSOLUTE_FLOOR = 1e-12 * sys.float_info.min


def _time(p: PtParams, kind: str, x: float) -> float:
    return x / p.kappa if kind == "tau" else x / max(p.gamma, 1e-3)  # t capped at 2e6 where gamma is tiny


def assert_state(m, trace_range):
    """m is finite, Hermitian, has its trace in trace_range and is positive semidefinite to the floor."""
    m = np.asarray(m)
    assert np.isfinite(m).all()
    trace = np.trace(m).real
    lo, hi = trace_range
    assert lo <= trace <= hi, trace
    assert np.abs(m - m.conj().T).max() <= HERMITIAN_FLOOR * trace + ABSOLUTE_FLOOR
    assert np.linalg.eigvalsh(m).min() >= -(EIGENVALUE_FLOOR * trace + ABSOLUTE_FLOOR)


NORMALIZED = (1.0 - 1e-12, 1.0 + 1e-12)


def assert_unit(v):
    assert np.isfinite(v.amplitudes).all()
    assert abs(np.linalg.norm(v.amplitudes) - 1.0) <= 1e-12
    assert 0.0 < v.norm_factor < math.inf


@settings(max_examples=150, deadline=None)
@given(RATIOS, TIMES, ANGLES)
@example(0.9999989999999999, ("decay", 1913.40625), (math.pi / 2, math.pi / 2))  # next to |+>_y: trace 1.9e6
@example(0.0, ("decay", 1873.0), (0.0, 0.0))  # t = 1.873e6: |U psi0|^2 = 1 + 1.1e-10
def test_closed_form_results_are_valid_states(gamma_ratio, time, angles):
    p = PtParams(1.0, gamma_ratio)
    t = _time(p, *time)
    probe = bloch_probe(*angles)
    assert_unit(evolve_state(probe, p, t))
    assert_unit(dilate_initial(probe, p))
    assert_state(evolve_density(pure_density(probe), p, t).matrix, NORMALIZED)
    rho4 = evolve_enlarged(probe, p, t)
    assert_state(rho4.matrix, NORMALIZED)
    branches = postselect(rho4)
    assert abs(branches.p_suc + branches.p_fail - 1.0) <= 1e-12
    assert_state(branches.rho_pt.matrix, NORMALIZED)
    assert_state(branches.rho_a.matrix, NORMALIZED)
    assert_state(artificial_pt(probe, p, t).matrix, (0.0, math.inf))
    sink = postselect_3l(p, t)
    assert sink.p_suc >= 0.0 and sink.p_fail == 1.0 - sink.p_suc
    assert_state(sink.rho_pt.matrix, NORMALIZED)
    if sink.p_suc > 1.0 + 1e-10:  # analytic_rho_3l's p_suc, bit for bit: the norm drift at long times
        with pytest.raises(InvalidMatrix):
            analytic_rho_3l(p, t)
    else:
        assert_state(analytic_rho_3l(p, t).matrix, NORMALIZED)
    try:
        effective = effective_evolve(probe, p, t)
    except InvalidMatrix:  # its trace drifted above 1 + 1e-10, as sink.p_suc can
        assert t > 1e5
    else:
        assert_state(effective.matrix, (0.0, 1.0 + 1e-10))


def test_postselect_of_an_enlarged_state_runs_no_eigensolver(monkeypatch):
    # evolve_enlarged's rank-one result is valid by construction, and postselect takes it as it is;
    # a raw matrix (or a row's raw stack) is checked at entry, with eigvalsh for a 4x4
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    p, probe = PtParams(1.0, 0.6), bloch_probe(1.1, 0.7)
    for t in (0.0, 3.0):
        postselect(evolve_enlarged(probe, p, t))
    assert calls == []
    postselect(np.array(evolve_enlarged(probe, p, 3.0).matrix))
    assert calls == [1]


def test_results_are_read_only():
    p = PtParams(1.0, 0.6)
    for t in (1.0, np.array([1.0, 2.0])):
        for out in (evolve_state(plus_y(), p, t), evolve_density(pure_density(plus_y()), p, t),
                    evolve_enlarged(plus_y(), p, t), artificial_pt(plus_y(), p, t)):
            array = getattr(out, "matrix", getattr(out, "amplitudes", out))
            assert not array.flags.writeable


@pytest.mark.parametrize("t", [1e200, np.array([1.0, 1e200])])
def test_an_overflowed_norm_still_raises(t):
    # at the exceptional point |U psi0| grows like t and overflows past t ~ 1e154, which would leave
    # a zero state after normalization: the normalizer is checked as well as the result
    p = PtParams(1.0, 1.0)
    with np.errstate(all="ignore"):
        with pytest.raises(InvalidMatrix):
            evolve_state(plus_y(), p, t)
        with pytest.raises(InvalidMatrix):
            evolve_density(pure_density(plus_y()), p, t)
        with pytest.raises(InvalidMatrix):
            postselect_3l(p, t)
        with pytest.raises(InvalidMatrix):
            evolve_density(pure_density(plus_y()), PtParams(1e10, 0.0), 1e300 * np.ones_like(t))
