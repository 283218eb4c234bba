"""The benchmark's own test: each output check must catch a doctored output.

    python3 perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from checks import (DigestLog, branch_tangent, check_dataset, check_request,  # noqa: E402
                    qfi_forms_agree)
from ptsense import PtParams, bloch_probe, evolve_enlarged, postselect  # noqa: E402
from ptsense.metrology import qfi_sld, qfi_spectral, qfi_two_level  # noqa: E402
from ptsense.sweeps import SweepConfig, run  # noqa: E402
from workloads import Grid  # noqa: E402

FORMS = (qfi_sld, qfi_spectral, qfi_two_level)


def _dataset(fmt: str) -> tuple[bytes, Grid]:
    config = SweepConfig(
        quantities=("population", "postselect_rates", "qfi_single", "qfi_weighted", "resources"),
        schemes=("dilation",), gamma_ratios=(0.3,), tau_max=4.0 * math.pi, tau_steps=5, format=fmt)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = run(config, output_path=str(Path(tmp) / f"d.{fmt}"))
        return path.read_bytes(), Grid.of(config)


class DatasetChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.csv, cls.grid = _dataset("csv")
        cls.lines = cls.csv.decode().split("\n")

    def failures(self, data: bytes, fmt: str = "csv") -> int:
        return sum(check_dataset(data, fmt, self.grid).failures.values())

    def doctor(self, quantity: str, value: str, tau: str = "3.141592653589793") -> bytes:
        """The dataset with one row's value replaced."""
        lines = list(self.lines)
        for i, line in enumerate(lines[1:], 1):
            parts = line.split(",")
            if parts[0] == tau and parts[4] == quantity:
                parts[5] = value
                lines[i] = ",".join(parts)
                return "\n".join(lines).encode()
        raise AssertionError(f"no {quantity} row at tau = {tau}")

    def test_pristine_datasets_pass(self) -> None:
        self.assertEqual(self.failures(self.csv), 0)
        data, _ = _dataset("json")
        self.assertEqual(self.failures(data, "json"), 0)
        self.assertGreater(check_dataset(self.csv, "csv", self.grid).rows, 0)

    def test_unparseable_dataset(self) -> None:
        self.assertGreater(self.failures(self.csv.replace(b",dilation,", b";dilation;", 1)), 0)
        self.assertGreater(self.failures(b"[{\"tau\": 0.0}]\n", "json"), 0)

    def test_missing_row(self) -> None:
        lines = self.lines[:3] + self.lines[4:]
        self.assertGreater(self.failures("\n".join(lines).encode()), 0)

    def test_missing_grid_point(self) -> None:
        kept = [ln for ln in self.lines if not ln.startswith("3.141592653589793,")]
        self.assertGreater(self.failures("\n".join(kept).encode()), 0)

    def test_rates_sum_to_one(self) -> None:
        self.assertGreater(self.failures(self.doctor("p_suc", "0.50001")), 0)

    def test_populations(self) -> None:
        self.assertGreater(self.failures(self.doctor("population_1", "1.5")), 0)

    def test_zeta_squared_plus_xi(self) -> None:
        self.assertGreater(self.failures(self.doctor("zeta", "0.5")), 0)

    def test_qfi_nonnegative(self) -> None:
        self.assertGreater(self.failures(self.doctor("qfi_4d", "-1.0")), 0)

    def test_weighted_information_sums(self) -> None:
        self.assertGreater(self.failures(self.doctor("i_subs", "123.0")), 0)

    def test_xi_defect_is_counted_not_failed(self) -> None:
        report = check_dataset(self.doctor("xi", "-0.5"), "csv", self.grid)
        self.assertEqual(report.xi_bad, 1)
        self.assertEqual(set(report.failures), {"zeta^2+xi=1"})


class OtherChecks(unittest.TestCase):
    def test_rewrite_must_be_identical(self) -> None:
        log = DigestLog()
        self.assertTrue(log.record("fig2", "aa"))
        self.assertTrue(log.record("fig2", "aa"))
        self.assertFalse(log.record("fig2", "ab"))
        self.assertEqual(log.mismatches["fig2"], 1)

    def test_qfi_forms_must_agree(self) -> None:
        p = PtParams(omega=1.0, gamma=0.4)
        rho = postselect(evolve_enlarged(bloch_probe(0.7, 1.1), p, 2.0)).rho_pt.matrix
        drho = branch_tangent(rho)
        self.assertTrue(qfi_forms_agree(rho, drho, FORMS))
        doctored = FORMS[:2] + (lambda r, d: 1.01 * qfi_two_level(r, d),)
        self.assertFalse(qfi_forms_agree(rho, drho, doctored))

    def test_library_request_checks(self) -> None:
        branches = SimpleNamespace(p_suc=0.6, p_fail=0.4, rho_pt=None, rho_a=None)
        report = SimpleNamespace(p_suc=0.6, p_fail=0.4, f_suc=1.0, f_fail=2.0, f_total=3.0,
                                 i_suc=0.6, i_fail=0.8, i_subs=1.4, i_total=3.0)
        resources = SimpleNamespace(xi=0.36, zeta=0.8)
        self.assertEqual(sum(check_request({"branches": branches, "scheme1": report,
                                            "resources": resources}, FORMS).values()), 0)
        for out in ({"branches": SimpleNamespace(**{**vars(branches), "p_fail": 0.5})},
                    {"scheme1": SimpleNamespace(**{**vars(report), "f_fail": -1.0})},
                    {"scheme1": SimpleNamespace(**{**vars(report), "i_subs": 1.5})},
                    {"resources": SimpleNamespace(xi=0.4, zeta=0.8)}):
            self.assertGreater(sum(check_request(out, FORMS).values()), 0, out)


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_metrics_match_run_py(self) -> None:
        from run import per_layer_units

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(listed, per_layer_units())


if __name__ == "__main__":
    unittest.main()
