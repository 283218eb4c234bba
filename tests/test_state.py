"""One stacked state per sweep: every (gamma, delta) entry is a slice of one row.

Every column a sweep writes is read from one PT family (v, dv) over the row
that stacks every entry's times: the tests count the propagators each figure
preset builds, check that the sweep path calls none of the public dynamics
functions, check each column against the public function it stands for, and
check that a sweep equals its one-entry sweeps byte for byte.
"""

import dataclasses
import io
import json
import math
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptsense import (
    PtParams,
    analytic_rho_3l,
    artificial_pt,
    effective_evolve,
    evolve_density,
    evolve_enlarged,
    liouvillian_matrix,
    population_shift,
    postselect,
    postselect_3l,
    pure_density,
    qfi_pt,
    resource_metrics,
    susceptibility_a,
    susceptibility_eff,
    susceptibility_enlarged,
    susceptibility_pt,
    weighted_qfi_scheme1,
    weighted_qfi_scheme2,
)
from ptsense import linalg, pt_system
from ptsense.errors import PtsenseError
from ptsense.sweeps import _PAIRS, QUANTITIES, SCHEMES, SweepConfig, _entries, _Stack, figure_preset, run

#: Propagator builds (su2_like_propagator and _su2_pair, su2_like_pair's kernel, calls) per preset at 129 tau steps: one
#: PT family for the whole sweep, plus the family of the base-omega entries of the shifts (fig4) or the channel
#: propagator of scheme 1's f_total (fig6, fig7).
BUILDS = {"fig2": 1, "fig3": 1, "fig4": 2, "fig5": 1, "fig6": 2, "fig7": 2}

DYNAMICS = ("evolve_density", "evolve_state", "evolve_enlarged", "postselect", "analytic_rho_3l",
            "effective_evolve", "artificial_pt", "postselect_3l")


def _counting(monkeypatch, names, calls):
    """Wrap every ptsense binding of the functions `names` so that each call appends its name to calls."""
    modules = [m for key, m in sorted(sys.modules.items()) if key == "ptsense" or key.startswith("ptsense.")]
    targets = {}
    for module in modules:
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn) and getattr(fn, "__name__", None) == name:
                targets[id(fn)] = (name, fn)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in targets:
                name, fn = targets[id(obj)]
                wrapper = lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)  # noqa: E731
                monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_one_propagator_build_per_family(tmp_path, monkeypatch, capsys, name):
    calls = []
    _counting(monkeypatch, ("su2_like_propagator", "_su2_pair") + DYNAMICS, calls)
    assert pt_system._su2_pair is not linalg._su2_pair  # both bindings are wrapped
    run(figure_preset(name), output_path=str(tmp_path / f"{name}.csv"))
    capsys.readouterr()
    assert [c for c in calls if c in DYNAMICS] == []
    assert len(calls) == BUILDS[name] <= 2


#: Propagator builds of population-shift sweeps at gamma/omega = 0.5: a delta = 0 entry is the
#: per-gamma base, so a delta list holding 0 builds the sweep's family alone, and one without it
#: builds a second family for the bases.
SHIFT_BUILDS = {(0.0, 0.001): 1, (0.001, 0.0): 1, (0.0, 0.001, 0.0): 1, (0.001, 0.002): 2}


@pytest.mark.parametrize("scheme", ["pt", "dilation"])
@pytest.mark.parametrize("deltas", sorted(SHIFT_BUILDS))
def test_a_zero_delta_entry_is_the_shift_base(tmp_path, monkeypatch, capsys, deltas, scheme):
    calls = []
    _counting(monkeypatch, ("su2_like_propagator", "_su2_pair") + DYNAMICS, calls)
    config = SweepConfig(quantities=("population_shift",), schemes=(scheme,), gamma_ratios=(0.5,),
                         delta_ratios=deltas, tau_steps=9)
    run(config, output_path=str(tmp_path / "shift.csv"))
    capsys.readouterr()
    assert len(calls) == SHIFT_BUILDS[deltas]


def test_only_pairs_that_read_the_tangent_build_it(tmp_path, monkeypatch, capsys):
    # fig7 reads scheme 1 alone, whose tangent is the channel's: the sweep builds its PT family
    # without the tangent and its channel with one
    calls = []
    _counting(monkeypatch, ("su2_like_propagator", "_su2_pair"), calls)
    run(figure_preset("fig7"), output_path=str(tmp_path / "fig7.csv"))
    capsys.readouterr()
    assert sorted(calls) == ["_su2_pair", "su2_like_propagator"]


@pytest.mark.parametrize("pair", sorted(_PAIRS), ids="-".join)
def test_the_tangent_flag_says_which_pairs_read_it(monkeypatch, pair):
    # on a stack built without the tangent, a pair marked as reading it builds the PT propagator
    # pair on first read, and a pair marked as reading no tangent never does
    calls = []
    _counting(monkeypatch, ("_pt_pair",), calls)
    config = SweepConfig(quantities=(pair[0],), schemes=(pair[1],), gamma_ratios=(0.5, 0.9),
                         delta_ratios=(0.0, 0.01), tau_steps=3)
    entries, bases = _entries(config, [0.0, 1.0], pair[0] == "population_shift")
    _PAIRS[pair].evaluate(_Stack(config, entries, False, bases))
    assert calls == (["_pt_pair"] if _PAIRS[pair].tangent else [])


# -- every column equals its public function -----------------------------------

GAMMAS = (0.0, 0.6, 1.0 - 1e-6, 1.0)
DELTAS = (0.0, 0.004)
CUSTOM = dict(probe="custom", probe_theta=1.1, probe_phi=0.7)
#: Columns read through another kernel than the public function's, which differ at roundoff.
ROUNDOFF = {("population", "pt"), ("population_eff_1", "lindblad"), ("population_artificial_1", "lindblad")}


def _bound(information):
    return [1.0 / math.sqrt(i) if i > 0.0 else math.inf for i in np.ravel(information)]


def _expected(quantity, scheme, p, base, delta, t, probe):
    """The row names and columns the public API gives for one pair at the times t."""
    if quantity == "population":
        if scheme == "pt":
            return {f"population_{i + 1}": evolve_density(pure_density(probe), p, t)[:, i, i].real for i in range(2)}
        if scheme == "dilation":
            return {f"population_{i + 1}": evolve_enlarged(probe, p, t)[:, i, i].real for i in range(4)}
        rho = analytic_rho_3l(p, t)
        return {**{f"population_{i + 1}": rho[:, i, i].real for i in range(3)},
                "population_eff_1": effective_evolve(probe, p, t)[:, 0, 0].real,
                "population_artificial_1": artificial_pt(probe, p, t)[:, 0, 0].real}
    if quantity == "postselect_rates":
        if scheme == "dilation":
            out = postselect(evolve_enlarged(probe, p, t))
            return {"p_suc": out.p_suc, "p_fail": out.p_fail, "rho_pt_11": out.rho_pt[:, 0, 0].real,
                    "rho_a_11": out.rho_a[:, 0, 0].real}
        out = postselect_3l(p, t)
        return {"p_suc": out.p_suc, "p_fail": out.p_fail, "rho_pt_11": out.rho_pt[:, 0, 0].real}
    if quantity == "population_shift":  # the lindblad shift is that of the renormalized state, the pt one
        return {"population_shift_1": population_shift("enlarged" if scheme == "dilation" else "pt", base, delta, t)}
    if quantity == "susceptibility":
        if scheme == "pt":
            return {"susceptibility_pt": susceptibility_pt(p, t), "susceptibility_a": susceptibility_a(p, t)}
        if scheme == "dilation":
            four_d = susceptibility_enlarged(p, t, index=(0, 2))
            return {"susceptibility_4d_pt": four_d[:, 0], "susceptibility_4d_a": four_d[:, 1]}
        return {"susceptibility_eff": susceptibility_eff(p, t)}
    if quantity == "liouvillian_spectrum":
        values = sorted(liouvillian_matrix(p)[1], key=lambda z: (round(z.imag, 12), round(z.real, 12)))
        return {f"liouvillian_eig_{i + 1}": [complex(z)] for i, z in enumerate(values)}
    if scheme == "pt":
        qfi = qfi_pt(p, t, probe=probe)
        return {"qfi_pt": qfi} if quantity == "qfi_single" else {"delta_omega_pt": _bound(qfi)}
    if quantity == "resources":
        out = resource_metrics(p, t, probe=probe)
        return {"xi": out.xi, "zeta": out.zeta}
    report = weighted_qfi_scheme1(p, t, probe=probe) if scheme == "dilation" else weighted_qfi_scheme2(p, t)
    fields = {
        ("qfi_single", "dilation"): {"qfi_pt": "f_suc", "qfi_a": "f_fail", "qfi_4d": "f_total"},
        ("qfi_single", "lindblad"): {"qfi_eff": "f_total", "qfi_conditioned": "f_suc"},
        ("qfi_weighted", "dilation"): {"i_suc": "i_suc", "i_fail": "i_fail", "i_subs": "i_subs", "i_4d": "i_total"},
        ("qfi_weighted", "lindblad"): {"i_eff": "i_total"},
        ("sensitivity_bound", "dilation"): {"delta_omega_subs": "delta_omega_weighted",
                                            "delta_omega_4d": "delta_omega_total"},
        ("sensitivity_bound", "lindblad"): {"delta_omega_eff": "delta_omega_weighted",
                                            "delta_omega_eff_single": "delta_omega_total"},
    }
    return {row: getattr(report, field) for row, field in fields[quantity, scheme].items()}


def _text(value) -> str:
    if isinstance(value, complex):
        return repr(value).strip("()")
    return repr(float(value))


@pytest.mark.parametrize("custom", [False, True], ids=["plus_y", "custom"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_column_equals_its_public_function(tmp_path, capsys, scheme, custom):
    quantities = tuple(q for (q, s), pair in _PAIRS.items() if s == scheme and not (custom and pair.plus_y_only))
    config = SweepConfig(quantities=quantities, schemes=(scheme,), gamma_ratios=GAMMAS, delta_ratios=DELTAS,
                         tau_steps=9, **(CUSTOM if custom else {}))
    path = run(config, output_path=str(tmp_path / "columns.csv"))
    capsys.readouterr()
    written = defaultdict(dict)  # (gamma, delta, quantity or row name) -> {tau: value text}
    times = defaultdict(dict)
    for line in path.read_text().splitlines()[1:]:
        tau, t, gamma, delta, name, value, _, _ = line.split(",", 7)
        written[float(gamma), float(delta), name][float(tau)] = value
        if t != "inf":
            times[float(gamma)][float(tau)] = float(t)
    probe = config.probe_vector()
    checked = 0
    for gamma in GAMMAS:
        taus = sorted(times[gamma])
        t = np.array([times[gamma][tau] for tau in taus])
        for delta in DELTAS:
            p, base = PtParams(1.0 + delta, gamma), PtParams(1.0, gamma)
            for quantity in quantities:
                where = f"{quantity}/{scheme} at gamma/omega={gamma!r}, delta={delta!r}"
                try:
                    columns = _expected(quantity, scheme, p, base, delta, t, probe)
                except PtsenseError:  # the whole pair is undefined
                    assert set(written[gamma, delta, quantity + "_undefined"].values()) == {"undefined"}, where
                    assert len(written[gamma, delta, quantity + "_undefined"]) == config.tau_steps, where
                    continue
                for name, column in columns.items():
                    got = written[gamma, delta, name]
                    for tau, value in zip(taus, np.atleast_1d(column).tolist()):
                        if (name, scheme) in ROUNDOFF or (quantity, scheme) in ROUNDOFF:
                            assert abs(float(got[tau]) - value) <= 1e-15 * max(1.0, abs(value)), f"{where}: {name}"
                        else:
                            assert got[tau] == _text(value), f"{where}: {name} at tau={tau!r}"
                        checked += 1
    assert checked > 0


# -- the moved population columns against 60-digit references ------------------

REFERENCE = "near_ep_reference.json"
#: Largest relative error measured for these columns: 9.2e-16 at gamma/omega = 0.5, and 7.0e-13
#: (population_artificial_1 and population/pt at tau = 4 pi) next to the EP, where the exact
#: populations move by about 1e-6 under a 1-ulp change of gamma.
POPULATION_RTOL = {0.5: 2e-15, 1.0 - 1e-5: 1e-12}


def test_population_columns_match_the_60_digit_reference(tmp_path, capsys):
    points = json.loads((Path(__file__).resolve().parent / REFERENCE).read_text())["populations"]
    written = {}
    for tau_max, steps in ((2.0, 2), (4.0 * math.pi, 3)):  # tau = 2, and tau = 2 pi and 4 pi
        for scheme in ("lindblad", "pt"):
            config = SweepConfig(quantities=("population",), schemes=(scheme,), gamma_ratios=tuple(POPULATION_RTOL),
                                 tau_max=tau_max, tau_steps=steps)
            path = run(config, output_path=str(tmp_path / "pop.csv"))
            for line in path.read_text().splitlines()[1:]:
                tau, t, gamma, _, name, value, _, _ = line.split(",", 7)
                key = "pt_" + name if scheme == "pt" else name
                written[float(gamma), float(tau), key] = (float(t), float(value))
    capsys.readouterr()
    assert len(points) == 6
    for point in points:
        g, tau = point["gamma_ratio"], point["tau"]
        for key, text in point.items():
            if key.startswith(("population", "pt_population")):
                t, got = written[g, tau, key]
                assert t == point["t"]
                ref = float(text)
                assert abs(got - ref) <= POPULATION_RTOL[g] * abs(ref), f"{key} at gamma/omega={g!r}, tau={tau!r}"


# -- a sweep equals its one-entry sweeps ----------------------------------------

#: gamma/omega and delta/omega values, equal ones (0 and 0.0, 1 and 1.0) and the exceptional point included
GAMMA_VALUES = st.one_of(st.sampled_from([0, 0.0, 0.6, 1.0 - 1e-6, 1, 1.0]), st.floats(0.0, 1.0))
DELTA_VALUES = st.one_of(st.sampled_from([0, 0.0, 0.001]), st.floats(0.0, 0.1))


def _dataset(config, path) -> str:
    with redirect_stdout(io.StringIO()):
        return run(config, output_path=str(path)).read_text()


def _merged(config, texts: list[str]) -> str:
    """The one-entry datasets texts (in config order) as one sweep writes them: ordered by (gamma, delta, tau,
    quantity, scheme), stably."""
    if config.format == "json":
        objects = [o for text in texts for o in json.loads(text)]
        objects.sort(key=lambda o: (o["gamma_ratio"], o["delta_ratio"], float(o["tau"]), o["quantity"], o["scheme"]))
        return "[" + ",".join(json.dumps(o, separators=(",", ":")) for o in objects) + "]\n"
    lines = [line for text in texts for line in text.splitlines()[1:]]
    fields = [line.split(",", 7) for line in lines]
    order = sorted(range(len(lines)), key=lambda i: (float(fields[i][2]), float(fields[i][3]), float(fields[i][0]),
                                                     fields[i][4], fields[i][6]))
    return "\n".join([texts[0].splitlines()[0]] + [lines[i] for i in order]) + "\n"


@st.composite
def _configs(draw):
    schemes = tuple(draw(st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=3, unique=True)))
    custom = draw(st.booleans())
    valid = [q for q in QUANTITIES
             if all((q, s) in _PAIRS and not (custom and _PAIRS[q, s].plus_y_only) for s in schemes)]
    assume(valid)
    return SweepConfig(
        quantities=tuple(draw(st.lists(st.sampled_from(valid), min_size=1, max_size=3, unique=True))),
        schemes=schemes,
        gamma_ratios=tuple(draw(st.lists(GAMMA_VALUES, min_size=1, max_size=3))),
        delta_ratios=tuple(draw(st.lists(DELTA_VALUES, min_size=1, max_size=3))),
        tau_steps=draw(st.integers(2, 5)),
        format=draw(st.sampled_from(["csv", "json"])),
        **(CUSTOM if custom else {}),
    )


def _config(quantities, schemes, gammas, deltas, fmt="csv", **kwargs):
    return SweepConfig(quantities=quantities, schemes=schemes, gamma_ratios=gammas, delta_ratios=deltas,
                       tau_steps=4, format=fmt, **kwargs)


@settings(max_examples=40, deadline=None)
@given(_configs())
@example(_config(("population_shift", "population"), SCHEMES, (0.6, 0, 1.0, 0.0), (0.001, 0, 0.0)))
@example(_config(("population_shift", "susceptibility"), ("pt", "dilation"), (1, 0.5, 1), (0.002, 0.001), "json"))
@example(_config(("liouvillian_spectrum", "qfi_single"), ("lindblad",), (1.0, 0.3, 0.3), (0.0, 0.05), "json"))
@example(_config(("qfi_weighted", "resources"), ("dilation",), (1.0, 0.9, 0), (0.0, 0.0, 0.01), **CUSTOM))
def test_a_sweep_equals_its_one_entry_sweeps(config):
    # the stack's rows, its per-entry re-evaluation after a failure (gamma/omega = 1) and its shift bases
    # give each entry the bytes that a sweep of that entry alone writes
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / f"out.{config.format}"
        whole = _dataset(config, path)
        alone = [_dataset(dataclasses.replace(config, gamma_ratios=(g,), delta_ratios=(d,)), path)
                 for g in config.gamma_ratios for d in config.delta_ratios]
    assert whole == _merged(config, alone)


# -- scale covariance ------------------------------------------------------------

def _power(name: str) -> int:
    """The power of omega a row's values carry: rates of change 1/omega (susceptibilities), QFIs 1/omega^2,
    Cramer-Rao bounds and eigenvalues omega, populations, rates and the budget ratios none."""
    if name.startswith("susceptibility"):
        return -1
    if name.startswith(("qfi", "i_")):
        return -2
    return 1 if name.startswith(("delta_omega", "liouvillian")) else 0


def _rows(config, path) -> dict:
    """(tau, gamma, delta, row name, scheme) -> (t, value) texts of the sweep's CSV dataset."""
    rows = {}
    for line in _dataset(config, path).splitlines()[1:]:
        tau, t, gamma, delta, name, value, scheme, _ = line.split(",", 7)
        rows[tau, gamma, delta, name, scheme] = (t, value)
    return rows


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SCHEMES), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       st.lists(st.one_of(st.floats(0.0, 0.99), st.just(1.0)), min_size=1, max_size=3),
       st.lists(st.one_of(st.just(0.0), st.floats(0.02, 0.1)), min_size=1, max_size=2))
def test_a_sweep_at_omega_s_is_the_sweep_at_omega_1_scaled(scheme, s, gammas, deltas):
    # every value carries omega to a known power and tau is dimensionless, so the dataset at omega = s is the
    # one at omega = 1 with t/s, QFIs/s^2 and susceptibilities/s, and the same undefined rows.  Each value is
    # compared to 1e-12 of its size or, for those that are roundoff of zero, of its row's unit (1, t or t^2), and
    # subnormal values to their absolute precision.
    # Next to the EP the rounding of gamma = (gamma/omega) s alone moves values by more than 1e-12, so gamma/omega
    # and gamma/(omega + delta) stay below 0.99, or the entry is the EP itself
    quantities = tuple(q for q in QUANTITIES if (q, scheme) in _PAIRS)
    config = SweepConfig(quantities=quantities, schemes=(scheme,), gamma_ratios=tuple(gammas),
                         delta_ratios=tuple(deltas), tau_steps=7)
    with tempfile.TemporaryDirectory() as folder:
        unit = _rows(config, Path(folder) / "unit.csv")
        scaled = _rows(dataclasses.replace(config, omega=s), Path(folder) / "scaled.csv")
    assert unit.keys() == scaled.keys()
    for key, (t, value) in unit.items():
        t_s, value_s = scaled[key]
        assert (t == "inf") == (t_s == "inf") and (value in ("undefined", "inf")) == (value_s in ("undefined", "inf"))
        if t != "inf":
            assert float(t_s) * s == pytest.approx(float(t), rel=1e-12, abs=0.0), key
        if value in ("undefined", "inf"):
            assert value_s == value, key
            continue
        power = _power(key[3])
        x, y = complex(value), complex(value_s) * s ** -power
        scale = float(t) ** -power if power < 0 else (1.0 if power == 0 else 0.0)
        assert abs(x - y) <= 1e-12 * max(abs(x), scale) + sys.float_info.min * max(1.0, s ** -power), key  # subnormals
