"""Golden dataset snapshots and a per-column diff of two datasets.

    python scripts/golden.py snapshot            # rewrite every file in tests/golden/
    python scripts/golden.py diff OLD NEW        # two CSV datasets, or two directories of them

`snapshot` runs each command line of SNAPSHOTS through `ptsense.cli.main` from
the sources under src/.  `diff` prints, per (quantity, scheme, gamma_ratio),
how many values changed and their largest absolute and relative change, the
rows added or removed, and the undefined rows that appeared or vanished; it
prints "no change" when the datasets hold the same rows and values.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: Snapshot file name -> ptsense command line (without --output).  The figure
#: presets run on a 33-step tau grid, which keeps tau = 2*pi and 4*pi.
SNAPSHOTS = {
    **{f"{name}.csv": ("figure", name, "--tau-steps", "33")
       for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")},
    "custom_probe.csv": ("sweep", "--quantity", "qfi_weighted", "--quantity", "sensitivity_bound",
                         "--quantity", "resources", "--scheme", "dilation", "--gamma-list", "0.37,0.99999",
                         "--probe", "custom", "--probe-theta", "1.1", "--probe-phi", "0.7",
                         "--tau-steps", "33"),
}


def write_snapshot(name: str, output: Path) -> None:
    """Run the command line of snapshot `name`, writing its dataset to `output`."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from ptsense.cli import main

    with redirect_stdout(StringIO()):
        code = main([*SNAPSHOTS[name], "--output", str(output)])
    if code != 0:
        raise SystemExit(f"{name}: ptsense exited with {code}")


def _parse(path: Path) -> dict[tuple, str]:
    """(gamma_ratio, delta_ratio, tau, quantity, scheme, probe) -> value text of a CSV dataset."""
    lines = path.read_text().splitlines()
    rows = {}
    for line in lines[1:]:
        tau, _, gamma, delta, quantity, value, scheme, probe = line.split(",", 7)
        rows[(float(gamma), float(delta), float(tau), quantity, scheme, probe)] = value
    return rows


def _number(text: str) -> complex:
    return complex(text) if "j" in text else float(text)


def _change(old: str, new: str) -> tuple[float, float]:
    a, b = _number(old), _number(new)
    if a == b:
        return 0.0, 0.0
    diff = abs(b - a)
    if math.isnan(diff):  # inf against inf of the other sign
        return math.inf, math.inf
    return diff, diff / abs(a) if a != 0 else math.inf


def diff_datasets(old_path: Path, new_path: Path) -> list[str]:
    """Report lines of one dataset pair; ["no change"] when they agree."""
    old, new = _parse(old_path), _parse(new_path)
    groups = defaultdict(lambda: {"changed": 0, "abs": 0.0, "rel": 0.0, "added": 0, "removed": 0,
                                  "undef+": 0, "undef-": 0})

    def group(key):
        return groups[(key[3], key[4], key[0])]

    for key in old.keys() - new.keys():
        g = group(key)
        g["removed"] += 1
        g["undef-"] += old[key] == "undefined"
    for key in new.keys() - old.keys():
        g = group(key)
        g["added"] += 1
        g["undef+"] += new[key] == "undefined"
    for key in old.keys() & new.keys():
        a, b = old[key], new[key]
        if a == b:
            continue
        g = group(key)
        if "undefined" in (a, b):
            g["undef+" if b == "undefined" else "undef-"] += 1
            continue
        abs_change, rel_change = _change(a, b)
        g["changed"] += 1
        g["abs"] = max(g["abs"], abs_change)
        g["rel"] = max(g["rel"], rel_change)
    if not groups:
        return ["no change"]
    lines = [f"{'quantity':<24} {'scheme':<9} {'gamma_ratio':<12} {'changed':>7} {'max_abs':>10} "
             f"{'max_rel':>10} {'added':>5} {'removed':>7} {'undef+':>6} {'undef-':>6}"]
    for (quantity, scheme, gamma), g in sorted(groups.items()):
        lines.append(f"{quantity:<24} {scheme:<9} {gamma!r:<12} {g['changed']:>7} {g['abs']:>10.3g} "
                     f"{g['rel']:>10.3g} {g['added']:>5} {g['removed']:>7} {g['undef+']:>6} {g['undef-']:>6}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    snap = sub.add_parser("snapshot", help="regenerate every golden dataset")
    snap.add_argument("--dir", type=Path, default=GOLDEN, help="output directory (default tests/golden)")
    diff = sub.add_parser("diff", help="compare two datasets, or two directories of them")
    diff.add_argument("old", type=Path)
    diff.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    if args.command == "snapshot":
        args.dir.mkdir(parents=True, exist_ok=True)
        for name in SNAPSHOTS:
            write_snapshot(name, args.dir / name)
            print(f"wrote {args.dir / name}")
        return 0
    if args.old.is_dir():
        names = sorted({p.name for p in args.old.glob("*.csv")} | {p.name for p in args.new.glob("*.csv")})
        pairs = [(args.old / n, args.new / n) for n in names]
    else:
        pairs = [(args.old, args.new)]
    for old, new in pairs:
        if not (old.is_file() and new.is_file()):
            print(f"{old.name}: only in {new.parent if new.is_file() else old.parent}")
            continue
        print(f"{old.name}:" if len(pairs) > 1 else f"{old} -> {new}:")
        for line in diff_datasets(old, new):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
