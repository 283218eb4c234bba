"""Golden datasets match their committed snapshots byte for byte.

The snapshots in tests/golden/ are the six figure presets on a 33-step tau
grid (tau = 2*pi and 4*pi stay on it) and a custom-probe scheme-1 sweep; the
command line of each is `SNAPSHOTS` in scripts/golden.py.  A change that
moves values on purpose regenerates them from the repository root with

    python scripts/golden.py snapshot

and pastes `python scripts/golden.py diff OLD NEW` into CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import golden  # noqa: E402


@pytest.mark.parametrize("name", sorted(name.removesuffix(".csv") for name in golden.SNAPSHOTS))
def test_preset_matches_snapshot(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    golden.write_snapshot(out.name, out)
    assert out.read_bytes() == (golden.GOLDEN / out.name).read_bytes()


def test_diff_reports_no_change_for_identical_datasets():
    path = golden.GOLDEN / "fig7.csv"
    assert golden.diff_datasets(path, path) == ["no change"]


def test_diff_reports_moved_and_undefined_values(tmp_path):
    lines = (golden.GOLDEN / "custom_probe.csv").read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if ",0.37,0.0,zeta," in line and not line.startswith("0.0,"))
    j = next(k for k, line in enumerate(lines) if ",0.37,0.0,xi," in line and not line.startswith("0.0,"))
    fields = lines[i].split(",")
    fields[5] = repr(float(fields[5]) * 2.0)
    lines[i] = ",".join(fields)
    fields = lines[j].split(",")
    fields[5] = "undefined"
    lines[j] = ",".join(fields)
    changed = tmp_path / "changed.csv"
    changed.write_text("\n".join(lines[:-1]) + "\n")  # drops the last row too
    report = golden.diff_datasets(golden.GOLDEN / "custom_probe.csv", changed)
    rows = {tuple(line.split()[:3]): line.split()[3:] for line in report[1:]}
    assert rows[("zeta", "dilation", "0.37")][0] == "1"
    assert float(rows[("zeta", "dilation", "0.37")][2]) == pytest.approx(1.0)
    assert rows[("xi", "dilation", "0.37")][-2:] == ["1", "0"]
    assert sum(int(r[4]) for r in rows.values()) == 1  # one row removed
