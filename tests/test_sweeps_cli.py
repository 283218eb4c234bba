"""Sweep engine and command-line interface."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ptsense.cli import main
from ptsense.errors import ConfigError
from ptsense.sweeps import _PAIRS, CSV_HEADER, QUANTITIES, SCHEMES, SweepConfig, figure_preset, run

BASE = dict(quantities=("population",), schemes=("pt",), gamma_ratios=(0.0,))


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="quantity"):
        SweepConfig(quantities=("bogus",), schemes=("pt",), gamma_ratios=(0.0,))
    with pytest.raises(ConfigError, match="scheme"):
        SweepConfig(quantities=("population",), schemes=("nope",), gamma_ratios=(0.0,))
    with pytest.raises(ConfigError, match="gamma_list"):
        SweepConfig(quantities=("population",), schemes=("pt",), gamma_ratios=(1.5,))
    with pytest.raises(ConfigError, match="delta_list"):
        SweepConfig(**BASE, delta_ratios=(0.5,))
    with pytest.raises(ConfigError, match="tau_steps"):
        SweepConfig(**BASE, tau_steps=1)
    with pytest.raises(ConfigError, match="probe"):
        SweepConfig(**BASE, probe="custom")


def test_incompatible_quantity_scheme_pairs(tmp_path):
    cfg = SweepConfig(quantities=("resources",), schemes=("pt",), gamma_ratios=(0.3,),
                      output_path=str(tmp_path / "x.csv"))
    with pytest.raises(ConfigError, match="resources"):
        run(cfg)


def test_plus_y_only_pair_rejects_custom_probe_before_writing(tmp_path):
    out = tmp_path / "shift.csv"
    cfg = SweepConfig(quantities=("population_shift",), schemes=("pt",), gamma_ratios=(0.3,),
                      probe="custom", probe_theta=0.4, probe_phi=1.1, output_path=str(out))
    with pytest.raises(ConfigError, match="plus_y probe only"):
        run(cfg)
    assert not out.exists()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("quantity", QUANTITIES)
def test_every_pair_runs_or_is_rejected(tmp_path, quantity, scheme):
    out = tmp_path / "pair.csv"
    cfg = SweepConfig(quantities=(quantity,), schemes=(scheme,), gamma_ratios=(0.6,),
                      tau_max=1.0, tau_steps=2, output_path=str(out))
    pair = _PAIRS.get((quantity, scheme))
    if pair is None:
        with pytest.raises(ConfigError, match=f"quantity: {quantity} requires scheme"):
            run(cfg)
        assert not out.exists()
        return
    rows = read_rows(run(cfg))
    names = {tau: [r["quantity"] for r in rows if float(r["tau"]) == tau] for tau in (0.0, 1.0)}
    if pair.time_independent:
        assert names == {0.0: sorted(pair.rows), 1.0: []}
    else:  # every quantity has a value at tau = 0 too
        assert names == {0.0: sorted(pair.rows), 1.0: sorted(pair.rows)}


def test_population_reproduces_rabi(tmp_path):
    cfg = SweepConfig(**BASE, tau_max=2 * math.pi, tau_steps=17,
                      output_path=str(tmp_path / "rabi.csv"))
    rows = read_rows(run(cfg))
    pops = [r for r in rows if r["quantity"] == "population_1"]
    assert len(pops) == 17
    for r in pops:
        tau = float(r["tau"])
        assert float(r["value"]) == pytest.approx((1 + math.sin(tau)) / 2, abs=1e-10)


def test_resources_zeta_at_2pi(tmp_path):
    cfg = SweepConfig(quantities=("resources",), schemes=("dilation",), gamma_ratios=(0.6,),
                      tau_max=4 * math.pi, tau_steps=129, output_path=str(tmp_path / "res.csv"))
    rows = read_rows(run(cfg))
    zeta_2pi = [r for r in rows if r["quantity"] == "zeta"
                and abs(float(r["tau"]) - 2 * math.pi) < 1e-12]
    assert len(zeta_2pi) == 1
    assert float(zeta_2pi[0]["value"]) == pytest.approx(1.0, abs=1e-3)


def test_resources_undefined_rows_do_not_depend_on_the_unit_of_omega(tmp_path):
    # the information scales as 1/omega^2 at fixed tau, and xi and zeta, ratios of it, have a
    # value at every point in every unit of omega, tau = 0 included
    def undefined(omega):
        cfg = dataclasses.replace(figure_preset("fig7"), omega=omega, tau_steps=33)
        rows = read_rows(run(cfg, str(tmp_path / f"fig7-{omega}.csv")))
        assert len(rows) == 5 * 33 * 6
        return {(r["tau"], r["gamma_ratio"], r["quantity"]) for r in rows if r["value"] == "undefined"}

    assert undefined(1.0) == set()
    assert undefined(2 * math.pi * 1e6) == set()


def test_liouvillian_spectrum_rows(tmp_path):
    cfg = SweepConfig(quantities=("liouvillian_spectrum",), schemes=("lindblad",),
                      gamma_ratios=(0.6,), tau_steps=5, output_path=str(tmp_path / "sp.csv"))
    rows = read_rows(run(cfg))
    key = lambda z: (round(z.imag, 9), round(z.real, 9))
    eigs = sorted((complex(r["value"]) for r in rows if r["quantity"].startswith("liouvillian_eig")),
                  key=key)
    expected = sorted([-0.6 + 0.8j, -0.6 - 0.8j, -0.6 + 0j, -0.6 + 0j], key=key)
    assert len(eigs) == 4
    assert np.max(np.abs(np.array(eigs) - np.array(expected))) < 1e-10


def test_exceptional_point_rows_are_undefined(tmp_path):
    cfg = SweepConfig(**BASE | dict(gamma_ratios=(1.0,)), tau_steps=3,
                      output_path=str(tmp_path / "ep.csv"))
    rows = read_rows(run(cfg))
    beyond = [r for r in rows if float(r["tau"]) > 0]
    assert beyond and all(r["value"] == "undefined" for r in beyond)
    at_zero = [r for r in rows if float(r["tau"]) == 0 and r["quantity"] == "population_1"]
    assert at_zero and float(at_zero[0]["value"]) == pytest.approx(0.5, abs=1e-12)


def test_determinism(tmp_path):
    cfg = SweepConfig(quantities=("population", "postselect_rates"), schemes=("dilation",),
                      gamma_ratios=(0.0, 0.6), tau_steps=17,
                      output_path=str(tmp_path / "a.csv"))
    a = run(cfg).read_bytes()
    b = run(cfg, output_path=str(tmp_path / "b.csv")).read_bytes()
    assert a == b


def test_json_format(tmp_path):
    cfg = SweepConfig(**BASE, tau_steps=3, format="json",
                      output_path=str(tmp_path / "out.json"))
    payload = json.loads(run(cfg).read_text())
    assert isinstance(payload, list) and len(payload) == 6
    assert set(payload[0]) == set(CSV_HEADER.split(","))
    assert isinstance(payload[0]["value"], float)


def test_csv_and_json_agree_row_for_row_in_sorted_order(tmp_path, capsys):
    # unsorted gamma lists with repeats, ints and the exceptional point (t = inf, undefined rows)
    base = SweepConfig(quantities=("postselect_rates", "population"), schemes=("lindblad", "dilation"),
                       gamma_ratios=(1.0, 0.6, 0, 0.6, 0.0, 1), delta_ratios=(0.005, 0), tau_steps=5)
    summaries = []
    for fmt in ("csv", "json"):
        run(dataclasses.replace(base, format=fmt), str(tmp_path / f"d.{fmt}"))
        summaries.append(capsys.readouterr().out.split(" ", 2)[2])
    assert summaries[0] == summaries[1]
    csv_rows = read_rows(tmp_path / "d.csv")
    json_rows = json.loads((tmp_path / "d.json").read_text())
    assert len(json_rows) == len(csv_rows) == int(summaries[0].split()[0].removeprefix("rows="))
    for c, j in zip(csv_rows, json_rows):
        assert list(j) == CSV_HEADER.split(",")
        assert c == {key: value if isinstance(value, str) else repr(float(value)) for key, value in j.items()}
    keys = [(float(r["gamma_ratio"]), float(r["delta_ratio"]), float(r["tau"]), r["quantity"], r["scheme"])
            for r in csv_rows]
    assert keys == sorted(keys)
    assert {r["t"] for r in json_rows if r["gamma_ratio"] == 1.0 and r["tau"] > 0} == {"inf"}
    assert {r["value"] for r in json_rows if r["t"] == "inf"} == {"undefined"}


def test_int_and_float_gamma_twins_keep_their_json_text_in_config_order(tmp_path):
    # 0 and 0.0 are one (gamma, delta) group but JSON writes them apart; the float() compare above cannot see it
    cfg = SweepConfig(quantities=("population", "postselect_rates"), schemes=("dilation", "lindblad"),
                      gamma_ratios=(0, 0.0, 0.5), tau_steps=3, format="json", output_path=str(tmp_path / "d.json"))
    objects = run(cfg).read_text().removeprefix("[{").removesuffix("}]\n").split("},{")
    gammas = [obj.split('"gamma_ratio":', 1)[1].split(",", 1)[0] for obj in objects]
    n = gammas.count("0") + gammas.count("0.0")
    assert n > 0 and gammas == ["0", "0.0"] * (n // 2) + ["0.5"] * (len(objects) - n)
    for twin_int, twin_float in zip(objects[:n:2], objects[1:n:2]):
        assert '"gamma_ratio":0,"delta_ratio":0.0,"quantity":' in twin_int
        assert twin_int.replace('"gamma_ratio":0,', '"gamma_ratio":0.0,', 1) == twin_float


def test_rows_at_repeated_subnormal_taus_stay_in_key_order(tmp_path, capsys):
    # tau_max = 1e-323 on 5 steps rounds to the tau grid [0.0, 0.0, 5e-324, 1e-323, 1e-323]
    base = SweepConfig(quantities=("postselect_rates", "population"), schemes=("lindblad", "dilation"),
                       gamma_ratios=(0.6, 0.0), tau_max=1e-323, tau_steps=5)
    run(dataclasses.replace(base, format="csv"), str(tmp_path / "d.csv"))
    run(dataclasses.replace(base, format="json"), str(tmp_path / "d.json"))
    capsys.readouterr()
    csv_rows = read_rows(tmp_path / "d.csv")
    json_rows = json.loads((tmp_path / "d.json").read_text())
    assert sorted({float(r["tau"]) for r in csv_rows}) == [0.0, 5e-324, 1e-323]
    for rows in (csv_rows, json_rows):
        keys = [(float(r["gamma_ratio"]), float(r["delta_ratio"]), float(r["tau"]), r["quantity"], r["scheme"])
                for r in rows]
        assert len(keys) == 2 * 5 * (4 + 3 + 4 + 5) and keys == sorted(keys)


def test_default_output_name_follows_format(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "fig7", "--format", "json", "--tau-steps", "3"]) == 0
    assert isinstance(json.loads((tmp_path / "fig7.json").read_text()), list)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"quantity": "population", "scheme": "pt", "gamma_list": [0.0],
                                    "tau_steps": 3, "format": "json"}))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert len(json.loads((tmp_path / "sweep.json").read_text())) == 6
    assert main(["figure", "fig2", "--tau-steps", "3"]) == 0
    assert (tmp_path / "fig2.csv").read_text().startswith(CSV_HEADER)
    # an explicit path is used as given
    assert main(["sweep", "--config", str(cfg_path), "--output", "explicit.csv"]) == 0
    assert isinstance(json.loads((tmp_path / "explicit.csv").read_text()), list)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "explicit.csv", "fig2.csv", "fig7.json", "sweep.json"]
    capsys.readouterr()


def test_from_mapping_round_trip():
    cfg = SweepConfig.from_mapping({
        "quantity": ["population"], "scheme": "pt", "gamma_list": [0.0, 0.5],
        "tau_max": 6.0, "tau_steps": 7, "N": 3, "output_path": "x.csv",
    })
    assert cfg.gamma_ratios == (0.0, 0.5)
    assert cfg.repetitions == 3
    with pytest.raises(ConfigError, match="unknown config field"):
        SweepConfig.from_mapping({"quantity": "population", "scheme": "pt",
                                  "gamma_list": [0], "bogus": 1})
    with pytest.raises(ConfigError, match="quantity"):
        SweepConfig.from_mapping({"scheme": "pt", "gamma_list": [0]})


@pytest.mark.parametrize("flags", [("--probe-theta", "nan", "--probe-phi", "0.3"),
                                   ("--probe-theta", "0.3", "--probe-phi", "inf"),
                                   ("--probe-theta=-inf", "--probe-phi", "nan")])
def test_non_finite_custom_probe_is_a_config_error(tmp_path, capsys, flags):
    out = tmp_path / "out.csv"
    assert main(["sweep", "--quantity", "qfi_weighted", "--scheme", "dilation", "--gamma-list", "0.5",
                 "--tau-steps", "3", "--probe", "custom", *flags, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: probe_")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("tau_steps", 3.7), ("N", 2.9), ("tau_steps", math.inf)])
def test_non_integral_config_integer_is_a_config_error(tmp_path, capsys, field, value):
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"quantity": "population", "scheme": "pt", "gamma_list": [0.0],
                                    "tau_steps": 3, field: value, "output_path": str(out)}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()
    # an integral float is the integer it names
    assert SweepConfig.from_mapping({"quantity": "population", "scheme": "pt", "gamma_list": [0.0],
                                     "tau_steps": 3.0, "N": 2.0}).tau_steps == 3


@pytest.mark.parametrize("field, value", [("tau_steps", 3.7), ("tau_steps", 3.0), ("repetitions", 2.5),
                                          ("repetitions", "2")])
def test_library_config_integer_must_be_an_int(field, value):
    # before, tau_steps=3.7 passed and run() then failed with an untyped TypeError, and
    # repetitions=2.5 was accepted silently
    with pytest.raises(ConfigError, match="is not an integer"):
        SweepConfig(**BASE, **{field: value})
    assert SweepConfig(**BASE, **{field: np.int64(3)}).tau_steps in (3, 129)


@pytest.mark.parametrize("field, value, flag", [("quantities", ("population", "population"), "--quantity"),
                                                ("schemes", ("pt", "pt"), "--scheme")])
def test_repeated_quantity_or_scheme_is_a_config_error(tmp_path, capsys, field, value, flag):
    # before, each repeat wrote every line again: rows=16 instead of 4 for a two-fold repeat of both
    with pytest.raises(ConfigError, match="repeated"):
        SweepConfig(**{**BASE, field: value})
    out = tmp_path / "out.csv"
    argv = ["sweep", "--quantity", "population", "--scheme", "pt", "--gamma-list", "0.0", "--tau-steps", "2"]
    assert main([*argv, flag, value[0], "--output", str(out)]) == 2
    assert "repeated" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_gamma_and_delta_still_repeat_rows(tmp_path, capsys):
    out = tmp_path / "out.csv"
    run(SweepConfig(**{**BASE, "gamma_ratios": (0.3, 0.3)}, delta_ratios=(0.0, 0.0), tau_steps=2,
                    output_path=str(out)))
    assert "rows=16" in capsys.readouterr().out  # 2 taus x 2 populations x 2 gammas x 2 deltas


def test_threads_config_field_is_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "quantity": "population", "scheme": "pt", "gamma_list": [0.0], "tau_steps": 3,
        "threads": 2, "output_path": str(tmp_path / "out.csv"),
    }))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "threads: unknown config field" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_fd_h_config_field_is_rejected(tmp_path, capsys):
    # every omega-derivative is exact, so the finite-difference step is gone
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "quantity": "susceptibility", "scheme": "pt", "gamma_list": [0.5], "tau_steps": 3,
        "fd_h": 1e-6, "output_path": str(tmp_path / "out.csv"),
    }))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "fd_h: unknown config field" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_fd_h_flag_is_rejected(tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "--tau-steps", "3", "--fd-h", "1e-6", "--output", str(out)]) == 2
    assert "unrecognized arguments: --fd-h 1e-6" in capsys.readouterr().err
    assert not out.exists()


def test_figure_presets():
    fig2 = figure_preset("fig2")
    assert fig2.quantities == ("population", "postselect_rates")
    assert fig2.schemes == ("dilation",)
    fig3 = figure_preset("fig3")
    assert fig3.schemes == ("lindblad",)
    assert "population" in fig3.quantities
    fig7 = figure_preset("fig7")
    assert "resources" in fig7.quantities
    assert fig7.repetitions == 1 and fig7.probe == "plus_y"
    with pytest.raises(ConfigError):
        figure_preset("fig99")


def test_cli_sweep_with_config_and_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "quantity": "population", "scheme": "pt", "gamma_list": [0.0],
        "tau_max": 3.14, "tau_steps": 5, "output_path": str(tmp_path / "from_file.csv"),
    }))
    out_path = tmp_path / "flagged.csv"
    assert main(["sweep", "--config", str(cfg_path), "--output", str(out_path)]) == 0
    assert out_path.exists() and not (tmp_path / "from_file.csv").exists()
    assert "rows=" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"quantity": "nope", "scheme": "pt", "gamma_list": [0]}))
    assert main(["sweep", "--config", str(bad_cfg)]) == 2
    good = ["sweep", "--quantity", "population", "--scheme", "pt", "--gamma-list", "0",
            "--tau-steps", "3"]
    assert main(good + ["--output", str(tmp_path / "sub" / "missing" / "x.csv")]) == 3
    assert main(good + ["--output", str(tmp_path / "ok.csv")]) == 0
    capsys.readouterr()


def test_cli_unknown_flag_returns_usage_exit_code(capsys):
    # argparse's SystemExit stays inside main, so in-process callers get the code
    assert main(["figure", "fig2", "--threads", "4"]) == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cli_figure_runs_small(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code = main(["figure", "fig3", "--output", str(out), "--tau-steps", "9",
                 "--gamma-list", "0,0.6"])
    assert code == 0
    rows = read_rows(out)
    assert any(r["quantity"] == "p_suc" for r in rows)
    capsys.readouterr()


def test_inf_sentinel_in_csv(tmp_path):
    # at tau = 0 the total (channel) bound is infinite: literal "inf" appears
    cfg = SweepConfig(quantities=("sensitivity_bound",), schemes=("dilation",),
                      gamma_ratios=(0.6,), tau_steps=3, tau_max=1.0,
                      output_path=str(tmp_path / "inf.csv"))
    rows = read_rows(run(cfg))
    at_zero = [r for r in rows if float(r["tau"]) == 0.0 and r["quantity"] == "delta_omega_4d"]
    assert at_zero and all(r["value"] == "inf" for r in at_zero)


def test_empty_delta_list_is_a_config_error(tmp_path, capsys):
    # an empty list would write a header-only dataset and exit 0
    out = tmp_path / "empty.csv"
    argv = ["sweep", "--quantity", "population", "--scheme", "pt", "--gamma-list", "0.5", "--delta-list", "",
            "--output", str(out)]
    assert main(argv) == 2
    assert "delta_list: at least one ratio required" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"quantity": "population", "scheme": "pt", "gamma_list": [0.5],
                                    "delta_list": [], "output_path": str(out)}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "delta_list: at least one ratio required" in capsys.readouterr().err
    assert not out.exists()
