"""One state per (gamma, delta) entry of a sweep.

Every column a sweep writes is read from one PT family (v, dv) per entry:
the tests count the propagators each figure preset builds, check that the
sweep path calls none of the public dynamics functions, and check each
column against the public function it stands for.
"""

import math
import sys
from collections import defaultdict

import numpy as np
import pytest

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
from ptsense.sweeps import _PAIRS, SCHEMES, SweepConfig, _Entry, figure_preset, run

#: Propagator builds (su2_like_propagator and _su2_pair, su2_like_pair's kernel, calls) per preset at 129 tau steps: one
#: per (gamma, delta) family, plus one base-omega family per gamma for the shifts (fig4) and the
#: channel propagator of scheme 1's f_total (fig6, fig7).
BUILDS = {"fig2": 4, "fig3": 4, "fig4": 12, "fig5": 12, "fig6": 10, "fig7": 10}

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
    assert len(calls) == BUILDS[name]


#: Propagator builds of population-shift sweeps at gamma/omega = 0.5: a delta = 0 entry is the
#: per-gamma base, so a delta list holding 0 builds one family per distinct delta.
SHIFT_BUILDS = {(0.0, 0.001): 2, (0.001, 0.0): 2, (0.0, 0.001, 0.0): 2, (0.001, 0.002): 3}


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
    # fig7 reads scheme 1 alone, whose tangent is the channel's: each gamma builds its PT family
    # without the tangent and its channel with one
    calls = []
    _counting(monkeypatch, ("su2_like_propagator", "_su2_pair"), calls)
    run(figure_preset("fig7"), output_path=str(tmp_path / "fig7.csv"))
    capsys.readouterr()
    gammas = len(figure_preset("fig7").gamma_ratios)
    assert sorted(calls) == ["_su2_pair"] * gammas + ["su2_like_propagator"] * gammas


@pytest.mark.parametrize("pair", sorted(_PAIRS), ids="-".join)
def test_the_tangent_flag_says_which_pairs_read_it(monkeypatch, pair):
    # on an entry built without the tangent, a pair marked as reading it builds the PT propagator
    # pair on first read, and a pair marked as reading no tangent never does
    calls = []
    _counting(monkeypatch, ("_pt_pair",), calls)
    config = SweepConfig(quantities=(pair[0],), schemes=(pair[1],), gamma_ratios=(0.5,), tau_steps=3)
    _PAIRS[pair].evaluate(_Entry(config, 0.5, 0.0, np.array([0.0, 1.0]), False, None))
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
    import json
    from pathlib import Path

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
