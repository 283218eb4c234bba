"""Golden datasets match their committed snapshots byte for byte.

The snapshots in tests/golden/ are the six figure presets on a 33-step tau
grid (tau = 2*pi and 4*pi stay on it), a custom-probe scheme-1 sweep, two
JSON datasets (dynamics and Liouvillian spectrum, gamma/omega = 1 included)
and one sweep in both formats that pins the row order (unsorted and repeated
gammas, deltas and schemes given in reverse order); the command line of each
is `SNAPSHOTS` in scripts/golden.py.  requests.json holds the repr of every
field the README quick-start calls return at fixed points (`request_fields`),
so the one-point API is pinned bit for bit as well.  A change that
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


@pytest.mark.parametrize("name", sorted(golden.SNAPSHOTS), ids=lambda name: Path(name).stem)
def test_preset_matches_snapshot(tmp_path, name):
    out = tmp_path / name
    golden.write_snapshot(out.name, out)
    snapshot = golden.GOLDEN / out.name
    same = out.read_bytes() == snapshot.read_bytes()
    # on failure, the per-column report of scripts/golden.py diff rather than a bytes diff
    assert same, "\n".join([f"{name} differs from its snapshot:"] + golden.diff_datasets(snapshot, out))


def test_requests_match_snapshot(tmp_path):
    out = tmp_path / golden.REQUESTS
    golden.write_requests(out)
    snapshot = golden.GOLDEN / golden.REQUESTS
    same = out.read_bytes() == snapshot.read_bytes()
    assert same, "\n".join(["requests.json differs from its snapshot:"] + golden.diff_requests(snapshot, out))


def test_diff_requests_reports_each_moved_field(tmp_path):
    import json

    points = json.loads((golden.GOLDEN / golden.REQUESTS).read_text())
    point = next(iter(points))
    points[point]["postselect"]["p_suc"] = "0.25"
    del points[point]["pure_density"]
    moved = tmp_path / golden.REQUESTS
    moved.write_text(json.dumps(points, indent=1) + "\n")
    assert golden.diff_requests(golden.GOLDEN / golden.REQUESTS, golden.GOLDEN / golden.REQUESTS) == ["no change"]
    lines = golden.diff_requests(golden.GOLDEN / golden.REQUESTS, moved)
    assert len(lines) == 2
    assert any(line.startswith(f"{point} postselect p_suc: ") and line.endswith(" -> 0.25") for line in lines)
    assert any(line.startswith(f"{point} pure_density matrix: ") and line.endswith(" -> (absent)") for line in lines)


def test_diff_reports_no_change_for_identical_datasets():
    path = golden.GOLDEN / "fig7.csv"
    assert golden.diff_datasets(path, path) == ["no change"]


def test_diff_reads_json_and_csv_datasets_alike(tmp_path, capsys):
    # the CSV run of the dynamics.json command line holds the same rows and values
    from ptsense.cli import main

    out = tmp_path / "dynamics.csv"
    argv = [arg for arg in golden.SNAPSHOTS["dynamics.json"] if arg not in ("--format", "json")]
    assert main([*argv, "--output", str(out)]) == 0
    capsys.readouterr()
    assert golden.diff_datasets(golden.GOLDEN / "dynamics.json", out) == ["no change"]


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


def test_diff_exit_code_says_whether_a_dataset_changed(tmp_path, capsys):
    same, moved = tmp_path / "same", tmp_path / "moved"
    for d in (same, moved):
        d.mkdir()
        for name in ("fig7.csv", "spectrum.json"):
            (d / name).write_bytes((golden.GOLDEN / name).read_bytes())
    lines = (moved / "fig7.csv").read_text().splitlines()
    fields = lines[-1].split(",")
    fields[5] = repr(float(fields[5]) + 1.0)
    (moved / "fig7.csv").write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert golden.main(["diff", str(golden.GOLDEN / "fig7.csv"), str(same / "fig7.csv")]) == 0
    assert golden.main(["diff", str(same), str(same)]) == 0
    assert golden.main(["diff", str(same / "fig7.csv"), str(moved / "fig7.csv")]) == 1
    assert golden.main(["diff", str(same), str(moved)]) == 1  # one of two datasets moved
    (moved / "fig7.csv").unlink()
    assert golden.main(["diff", str(same), str(moved)]) == 1  # a dataset missing on one side
    out = capsys.readouterr().out
    assert "no change" in out and "only in" in out
