"""Row-batched evaluation equals the scalar API point by point.

A row evaluates one (gamma/omega, probe) row of times in one call (t a 1-D
array); the scalar API is the same code called with one time.  A check raises
for the whole call, so a row either raises an error class that one of its
points raises alone, or returns, bit for bit, the values of its one-point
calls.  No condition depends on the point: resource_metrics has a value at
t = 0 too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptsense import FdConfig, PtParams, bloch_probe
from ptsense import metrology
from ptsense.cli import main
from ptsense.errors import InvalidMatrix, MetricSingular, PtsenseError

FD = FdConfig.for_omega(1.0)

#: (name, evaluator(p, t, probe)) of the row-batched metrology quantities.
EVALUATORS = [
    ("scheme1", lambda p, t, probe: metrology.weighted_qfi_scheme1(p, t, FD, probe=probe)),
    ("scheme2", lambda p, t, probe: metrology.weighted_qfi_scheme2(p, t, FD)),
    ("qfi_pt", lambda p, t, probe: metrology.qfi_pt(p, t, probe=probe)),
    ("resources", lambda p, t, probe: metrology.resource_metrics(p, t, FD, probe=probe)),
    ("susceptibility_pt", lambda p, t, probe: metrology.susceptibility_pt(p, t)),
    ("susceptibility_a", lambda p, t, probe: metrology.susceptibility_a(p, t)),
    ("susceptibility_4d", lambda p, t, probe: metrology.susceptibility_enlarged(p, t, index=(0, 2))),
    ("susceptibility_eff", lambda p, t, probe: metrology.susceptibility_eff(p, t)),
    ("shift_pt", lambda p, t, probe: metrology.population_shift("pt", p, 0.004, t)),
    ("shift_enlarged", lambda p, t, probe: metrology.population_shift("enlarged", p, 0.004, t)),
]


def _fields(value) -> dict:
    """Every number of a result, as arrays (a report's fields, or the value itself)."""
    if hasattr(value, "__dataclass_fields__"):
        return {k: getattr(value, k) for k in value.__dataclass_fields__ if k not in ("scheme", "n_repetitions")}
    return {"value": value}


def _bits(x) -> bytes:
    return b"None" if x is None else np.asarray(x, dtype=complex if np.iscomplexobj(x) else float).tobytes()


def _call(fn, p, t, probe):
    """The result at t (one time or a row), or the type of the PtsenseError it raised; and whether numpy warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            result = fn(p, t, probe)
        except PtsenseError as exc:
            result = type(exc)
    return result, any(issubclass(w.category, RuntimeWarning) for w in caught)


def assert_row_equals_points(gamma_ratio, taus, probe):
    p = PtParams(1.0, gamma_ratio)
    times = [tau / p.kappa for tau in taus]
    t = np.array(times)
    for name, fn in EVALUATORS:
        row, row_warned = _call(fn, p, t, probe)
        points = [_call(fn, p, ti, probe) for ti in times]
        # numpy warns in a row only where some point warns on its own too
        assert not row_warned or any(warned for _, warned in points), name
        if isinstance(row, type):  # the whole row raised: some point raises that class alone
            assert row in [expected for expected, _ in points], f"{name}: {row.__name__}"
            continue
        for i, (expected, _) in enumerate(points):
            where = f"{name} at gamma/omega={gamma_ratio!r}, t={times[i]!r}"
            assert not isinstance(expected, type), f"{where}: {expected.__name__} alone, values in a row"
            for field, value in _fields(expected).items():
                got = _fields(row)[field]
                if np.ndim(got):  # a field the row holds per point (not None or a default)
                    got = got[i]
                assert _bits(got) == _bits(value), f"{where}: {field}"


gamma_ratios = st.one_of(st.floats(0.0, 1.0 - 1e-6), st.sampled_from([0.0, 0.6, 1.0 - 1e-5, 1.0 - 1e-6]))
probes = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
tau_rows = st.lists(st.floats(0.0, 4.0 * math.pi), max_size=4).map(lambda taus: [0.0, 2.0 * math.pi] + taus)


@settings(max_examples=20, deadline=None)
@given(gamma_ratios, tau_rows, probes)
@example(0.11340669506097484, [0.0, 2.0 * math.pi], (0.8389457576750373, 0.0))  # F_coh squared as ** 2 differed
def test_rows_equal_batch_of_one(gamma_ratio, taus, angles):
    assert_row_equals_points(gamma_ratio, taus, bloch_probe(*angles))


@pytest.mark.parametrize("gamma_ratio", [0.3, 0.9, 1.0 - 1e-6])
def test_rows_equal_batch_of_one_at_tau0_and_deep_decay(gamma_ratio):
    # tau = 0 (no information: the resource budget takes its t -> 0 limit) and deep decay
    # (scheme 2's e^{-gamma t} underflows)
    taus = [0.0, 0.7, 2.0 * math.pi, 4.0 * math.pi, 150.0, 600.0]
    assert_row_equals_points(gamma_ratio, taus, bloch_probe(1.1, 0.7))


def test_row_level_error_is_every_points_error():
    # the metric is singular for the whole row: the row raises what each point raises alone
    p, times = PtParams(1.0, 1.0 - 1e-13), [0.0, 1.0, 2.0]
    for t in [np.array(times)] + times:
        with pytest.raises(MetricSingular):
            metrology.weighted_qfi_scheme1(p, t, FD)


@pytest.mark.parametrize("fn", [metrology.weighted_qfi_scheme1, metrology.weighted_qfi_scheme2,
                                metrology.resource_metrics])
def test_row_with_one_bad_time_raises_for_the_whole_call(fn):
    # the NaN point raises alone, so the row raises the same class and returns no values at all
    p = PtParams(1.0, 0.6)
    with np.errstate(all="ignore"):
        with pytest.raises(InvalidMatrix):
            fn(p, np.nan)
        with pytest.raises(InvalidMatrix):
            fn(p, np.array([1.0, np.nan]))


@pytest.mark.parametrize("row", [False, True])
def test_qfi_pt_validates_its_input(row):
    # the probe and the times are checked before anything is computed from them
    p = PtParams(1.0, 0.6)
    at = (lambda t: np.array([1.0, t])) if row else (lambda t: t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probe in (np.zeros(2), np.array([np.nan, 1.0])):
            with pytest.raises(InvalidMatrix):
                metrology.qfi_pt(p, at(1.0), probe=probe)
        for t in (np.nan, np.inf):
            with pytest.raises(InvalidMatrix):
                metrology.qfi_pt(p, at(t))


def test_exceptional_point_qfi_is_the_limit():
    # the exact tangent is regular at gamma = omega: the QFIs are 0 at t = 0 and,
    # at t > 0, finite and equal to their gamma/omega -> 1 limit
    p, near = PtParams(1.0, 1.0), PtParams(1.0, 1.0 - 1e-12)
    assert metrology.qfi_pt(p, 0.0) == 0.0
    report = metrology.weighted_qfi_scheme2(p, 0.0, FD)
    assert report.f_total == 0.0 and report.f_suc == 0.0
    for t in (0.5, 3.0):
        assert metrology.qfi_pt(p, t) == pytest.approx(metrology.qfi_pt(near, t), rel=1e-6)
        at_ep, limit = metrology.weighted_qfi_scheme2(p, t, FD), metrology.weighted_qfi_scheme2(near, t, FD)
        assert at_ep.f_total == pytest.approx(limit.f_total, rel=1e-6)
        assert at_ep.f_suc == pytest.approx(limit.f_suc, rel=1e-6)
    row = metrology.qfi_pt(p, np.array([0.0, 0.5]))
    assert list(row) == [0.0, metrology.qfi_pt(p, 0.5)]


def test_exceptional_point_pt_qfi_sweep_writes_zero_at_tau0(tmp_path, capsys):
    out = tmp_path / "ep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--quantity", "qfi_single", "--scheme", "pt", "--gamma-list", "1.0",
                     "--tau-steps", "2", "--output", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[4], r[5]) for r in rows] == [
        ("0.0", "qfi_pt", "0.0"), ("12.566370614359172", "qfi_single_undefined", "undefined")]
