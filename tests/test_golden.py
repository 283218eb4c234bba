"""Figure presets match their committed snapshots byte for byte.

The snapshots in tests/golden/ are the presets on a 33-step tau grid (tau =
2*pi and 4*pi stay on it).  A change that moves values on purpose regenerates
them from the repository root with

    for f in fig2 fig3 fig4 fig7; do
        PYTHONPATH=src python -m ptsense.cli figure $f --tau-steps 33 --output tests/golden/$f.csv
    done

and states every moved column in CHANGES.md.  fig5 and fig6 have no
snapshot yet.
"""

from pathlib import Path

import pytest

from ptsense.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig7"])
def test_preset_matches_snapshot(tmp_path, capsys, name):
    out = tmp_path / f"{name}.csv"
    assert main(["figure", name, "--tau-steps", "33", "--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
