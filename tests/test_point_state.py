"""The last-point state of the scalar API (metrology._point).

Consecutive one-point calls at the same (omega, gamma, t, probe) read one
state: its propagators, metric, enlarged amplitudes and channel are built once.
Each result must equal, bit for bit, what a first ("cold") call returns.  A
cold call is made by calling at another point first, which replaces the one
state the memo holds; no test clears it another way.
"""

import gc
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptsense
from ptsense import (
    PtParams,
    bloch_probe,
    evolve_enlarged,
    postselect,
    qfi_pt,
    resource_metrics,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from ptsense import metrology
from ptsense.errors import MetricSingular
from ptsense.metrology import _point

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

#: The quick-start calls at one point, by name: call(p, t, probe).
CALLS = {
    "evolve_enlarged": lambda p, t, probe: evolve_enlarged(probe, p, t),
    "postselect": lambda p, t, probe: postselect(evolve_enlarged(probe, p, t)),
    "weighted_qfi_scheme1": lambda p, t, probe: weighted_qfi_scheme1(p, t, probe=probe),
    "resource_metrics": lambda p, t, probe: resource_metrics(p, t, probe=probe),
    "weighted_qfi_scheme2": lambda p, t, probe: weighted_qfi_scheme2(p, t),
    "qfi_pt": lambda p, t, probe: qfi_pt(p, t, probe),
}
ELSEWHERE = (PtParams(1.0, 0.25), 0.75)


def _bits(result):
    """Every number a result holds, as bytes: a float, a report's fields, a state's matrix, or an outcome's
    rates, populations and conditioned states."""
    if result is None:
        return None
    if hasattr(result, "__dataclass_fields__"):
        return tuple(_bits(getattr(result, name)) for name in result.__dataclass_fields__)
    if isinstance(result, str):
        return result
    return np.asarray(result).tobytes()


def _cold(name, p, t, probe):
    """The result of a call that finds no state of its point: another point is called first."""
    qfi_pt(*ELSEWHERE)
    return CALLS[name](p, t, probe)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0 - 1e-6), st.floats(0.0, 4.0 * math.pi), st.floats(0.0, math.pi),
       st.floats(0.0, 2.0 * math.pi), st.permutations(sorted(CALLS)))
def test_consecutive_calls_equal_cold_calls(gamma_ratio, tau, theta, phi, order):
    p = PtParams(1.0, gamma_ratio)
    t, probe = tau / p.kappa, bloch_probe(theta, phi)
    qfi_pt(*ELSEWHERE)
    warm = {name: _bits(CALLS[name](p, t, probe)) for name in order}
    for name in order:
        assert warm[name] == _bits(_cold(name, p, t, probe)), name


@pytest.mark.parametrize("first, second", [
    ((PtParams(1.0, 0.6), 0.0), (PtParams(1.0, 0.6), -0.0)),
    ((PtParams(1.0, 0.0), 2.0), (PtParams(1.0, -0.0), 2.0)),
])
def test_signed_zeros_are_different_points(first, second):
    probe = bloch_probe(1.1, 0.7)
    assert _point(*first, probe) is not _point(*second, probe)
    for name in CALLS:
        CALLS[name](*first, probe)
        assert _bits(CALLS[name](*second, probe)) == _bits(_cold(name, *second, probe)), name


def test_a_probe_mutated_after_a_call_is_another_point():
    p, t = PtParams(1.0, 0.6), 3.0
    before, after = bloch_probe(1.1, 0.7), bloch_probe(2.5, 4.0)
    probe = before.copy()
    weighted_qfi_scheme1(p, t, probe=probe)
    probe[:] = after
    assert _bits(weighted_qfi_scheme1(p, t, probe=probe)) == _bits(_cold("weighted_qfi_scheme1", p, t, after))
    # the state keeps its own copy of the amplitudes: the channel, built after the probe it was keyed by
    # changed, still reads the amplitudes of the key
    qfi_pt(*ELSEWHERE)
    evolve_enlarged(probe, p, t)
    probe[:] = before
    assert _bits(resource_metrics(p, t, probe=after)) == _bits(_cold("resource_metrics", p, t, after))


def test_an_equal_but_distinct_params_hits():
    probe = bloch_probe(1.1, 0.7)
    assert _point(PtParams(1.0, 0.6), 3.0, probe) is _point(PtParams(1.0, 0.6), 3.0, probe.copy())


@pytest.mark.parametrize("omega, gamma", [(1.0, 0.6), (np.float64(1.0), np.float64(0.6))], ids=["float", "float64"])
def test_numpy_float_times_share_one_state(omega, gamma):
    # a loop over the elements of a times array passes numpy float64 scalars, which the key reads exactly
    probe = bloch_probe(1.1, 0.7)
    p, t = PtParams(omega, gamma), np.float64(3.0)
    qfi_pt(*ELSEWHERE)
    metrics = resource_metrics(p, t, probe=probe)
    state = _point(p, t, probe)
    report = weighted_qfi_scheme1(p, t, probe=probe)
    assert _point(p, t, probe) is state and _point(PtParams(1.0, 0.6), 3.0, probe) is state
    assert _bits(metrics) == _bits(_cold("resource_metrics", PtParams(1.0, 0.6), 3.0, probe))
    assert _bits(report) == _bits(_cold("weighted_qfi_scheme1", PtParams(1.0, 0.6), 3.0, probe))


def test_a_failed_part_is_not_kept():
    # the metric is singular at gamma = omega: a first call raises, keeps no part, and raises again
    p, t, probe = PtParams(1.0, 1.0), 1.0, bloch_probe(1.1, 0.7)
    qfi_pt(*ELSEWHERE)
    for _ in range(2):
        with pytest.raises(MetricSingular):
            weighted_qfi_scheme1(p, t, probe=probe)
        with pytest.raises(MetricSingular):
            evolve_enlarged(probe, p, t)
    assert not {"eta", "enlarged", "branches", "channel", "scheme1"} & set(vars(_point(p, t, probe, False)))


def test_rows_bypass_the_memo_and_it_holds_one_state():
    p, probe = PtParams(1.0, 0.6), bloch_probe(1.1, 0.7)
    first = weakref.ref(_point(p, 3.0, probe))
    last = metrology._last
    for call in CALLS.values():
        call(p, np.array([3.0, 4.0]), probe)
        assert metrology._last is last
    assert _point(p, np.array([3.0]), probe) is not _point(p, np.array([3.0]), probe)
    del last
    _point(p, 4.0, probe)
    gc.collect()
    assert first() is None  # the second point's state replaced the first one's


def _counting(monkeypatch, names, calls, where=lambda *args: True):
    """Wrap every ptsense binding of the functions `names`: each call for which where(*args) holds appends
    its name to calls."""
    modules = [m for key, m in sorted(sys.modules.items()) if key == "ptsense" or key.startswith("ptsense.")]
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if attr in names and callable(fn) and getattr(fn, "__name__", None) == attr:
                def wrapper(*args, _fn=fn, _name=attr, **kwargs):
                    if where(*args):
                        calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, attr, wrapper)


def test_a_quick_start_request_builds_the_metric_and_the_channel_once(monkeypatch):
    # the five calls of perfbench's library request at one point: evolve_enlarged, weighted_qfi_scheme1
    # and resource_metrics read one state (scheme 2's |+>_y probe is another point)
    request = workloads.Request(gamma_ratio=0.6, tau=2.0, theta=1.1, phi=0.7)
    workloads.run_request(ptsense, workloads.Request(0.3, 1.0, 0.4, 0.2), {})  # another point first
    calls = []
    _counting(monkeypatch, ("metric_operator",), calls)
    _counting(monkeypatch, ("_su2_pair",), calls, where=lambda h, *args: np.shape(h) == (4, 4))
    workloads.run_request(ptsense, request, {})
    assert sorted(calls) == ["_su2_pair", "metric_operator"]
