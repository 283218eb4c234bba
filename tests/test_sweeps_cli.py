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
    else:  # at tau = 0 some quantities are undefined (no information yet)
        assert names[1.0] == sorted(pair.rows)


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
    # i_total scales as 1/omega^2 at fixed tau; the cutoff scales with it, so only tau = 0 is undefined
    def undefined(omega):
        cfg = dataclasses.replace(figure_preset("fig7"), omega=omega, tau_steps=33)
        rows = read_rows(run(cfg, str(tmp_path / f"fig7-{omega}.csv")))
        return {(r["tau"], r["gamma_ratio"], r["quantity"]) for r in rows if r["value"] == "undefined"}

    at_one = undefined(1.0)
    assert at_one == {("0.0", g, "resources_undefined") for g in ("0.0", "0.3", "0.6", "0.9", "0.999999")}
    assert undefined(2 * math.pi * 1e6) == at_one


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
