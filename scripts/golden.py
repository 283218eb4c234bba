"""Golden dataset snapshots and a per-column diff of two datasets.

    python scripts/golden.py snapshot            # rewrite every file in tests/golden/
    python scripts/golden.py diff OLD NEW        # two datasets (CSV or JSON), or two directories of them

`snapshot` runs each command line of SNAPSHOTS through `ptsense.cli.main` from
the sources under src/, and writes requests.json: the repr of every field the
README quick-start calls return at the fixed points of the REQUEST_* grids.
`diff` prints, per (quantity, scheme, gamma_ratio), how many values changed
and their largest absolute and relative change, the rows added or removed,
and the undefined rows that appeared or vanished; it prints "no change" when
the datasets hold the same rows and values.  Two requests.json snapshots are
compared field by field.  `diff` exits with 1 when any dataset changed or is
missing on one side, and 0 when every one reads "no change".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: Snapshot file name -> ptsense command line (without --output).  The figure
#: presets run on a 33-step tau grid, which keeps tau = 2*pi and 4*pi.  The JSON
#: snapshots hold gamma/omega = 1, where t = inf and the rows beyond tau = 0 are
#: undefined, and (spectrum.json) complex values.  order.csv and order.json pin
#: the row order: unsorted and repeated gammas, deltas and schemes given in
#: reverse order, and gamma/omega = 1.
SNAPSHOTS = {
    **{f"{name}.csv": ("figure", name, "--tau-steps", "33")
       for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")},
    "custom_probe.csv": ("sweep", "--quantity", "qfi_weighted", "--quantity", "sensitivity_bound",
                         "--quantity", "resources", "--scheme", "dilation", "--gamma-list", "0.37,0.99999",
                         "--probe", "custom", "--probe-theta", "1.1", "--probe-phi", "0.7",
                         "--tau-steps", "33"),
    "dynamics.json": ("sweep", "--quantity", "population", "--quantity", "postselect_rates",
                      "--scheme", "dilation", "--scheme", "lindblad", "--gamma-list", "0.6,1.0",
                      "--delta-list", "0.0,0.005", "--tau-steps", "33", "--format", "json"),
    "spectrum.json": ("sweep", "--quantity", "liouvillian_spectrum", "--scheme", "lindblad",
                      "--gamma-list", "0.6,1.0,0.0", "--delta-list", "0.0,0.005", "--tau-steps", "33",
                      "--format", "json"),
    **{f"order.{fmt}": ("sweep", "--quantity", "population", "--quantity", "postselect_rates",
                        "--scheme", "lindblad", "--scheme", "dilation",
                        "--gamma-list", "0.9,0.0,1.0,0.3,0.9,0.0", "--delta-list", "0.005,0.0",
                        "--tau-steps", "9", "--format", fmt)
       for fmt in ("csv", "json")},
}

#: requests.json: the README quick-start calls at omega = 1 on every (gamma/omega, tau, probe) of
#: these, the near-EP ratios of the dynamics (1 - 1e-5) and resource (1 - 1e-6) presets included;
#: "custom" is bloch_probe(1.1, 0.7).
REQUESTS = "requests.json"
REQUEST_GAMMAS = (0.0, 0.3, 0.6, 0.9, 1.0 - 1e-5, 0.999999)
REQUEST_TAUS = (0.0, 1.3, 2.0 * math.pi)
REQUEST_PROBES = ("plus_y", "custom")


def _ptsense():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import ptsense

    return ptsense


def write_snapshot(name: str, output: Path) -> None:
    """Run the command line of snapshot `name`, writing its dataset to `output`."""
    _ptsense()
    from ptsense.cli import main

    with redirect_stdout(StringIO()):
        code = main([*SNAPSHOTS[name], "--output", str(output)])
    if code != 0:
        raise SystemExit(f"{name}: ptsense exited with {code}")


def _text(value) -> str:
    """repr of a returned field: a state as its matrix, an array or numpy scalar as Python numbers."""
    value = getattr(value, "matrix", value)
    return repr(value.tolist() if hasattr(value, "tolist") else value)


def request_fields(gamma_ratio: float, tau: float, probe_name: str) -> dict[str, dict[str, str]]:
    """call -> field -> repr of what each quick-start call returns at one point; a call that
    raises records its error class and message."""
    api = _ptsense()
    p = api.PtParams(omega=1.0, gamma=gamma_ratio)
    t = tau / p.kappa
    probe = api.plus_y() if probe_name == "plus_y" else api.bloch_probe(1.1, 0.7)
    calls = {
        "pure_density": lambda: api.pure_density(probe),
        "evolve_density": lambda: api.evolve_density(api.pure_density(probe), p, t),
        "postselect": lambda: api.postselect(api.evolve_enlarged(probe, p, t)),
        "weighted_qfi_scheme1": lambda: api.weighted_qfi_scheme1(p, t, probe=probe),
        "resource_metrics": lambda: api.resource_metrics(p, t, probe=probe),
        "weighted_qfi_scheme2": lambda: api.weighted_qfi_scheme2(p, t),
        "susceptibility_pt": lambda: api.susceptibility_pt(p, t),
    }
    out = {}
    for name, call in calls.items():
        try:
            value = call()
        except api.errors.PtsenseError as exc:
            out[name] = {"raises": f"{type(exc).__name__}: {exc}"}
            continue
        fields = vars(value) if hasattr(value, "__dataclass_fields__") else {"value": value}
        out[name] = {key: _text(field) for key, field in fields.items()}
    return out


def write_requests(output: Path) -> None:
    """Write the requests.json snapshot: request_fields at every point of the REQUEST_* grids."""
    points = {f"gamma_ratio={g!r} tau={tau!r} probe={probe}": request_fields(g, tau, probe)
              for g in REQUEST_GAMMAS for tau in REQUEST_TAUS for probe in REQUEST_PROBES}
    output.write_text(json.dumps(points, indent=1) + "\n")


def _parse(path: Path) -> dict[tuple, str]:
    """(gamma_ratio, delta_ratio, tau, quantity, scheme, probe) -> value text of a CSV or JSON dataset."""
    if path.suffix == ".json":  # numbers back to the CSV's repr text, sentinels as they are
        return {(float(r["gamma_ratio"]), float(r["delta_ratio"]), float(r["tau"]), r["quantity"], r["scheme"],
                 r["probe"]): r["value"] if isinstance(r["value"], str) else repr(float(r["value"]))
                for r in json.loads(path.read_text())}
    rows = {}
    for line in path.read_text().splitlines()[1:]:
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


def diff_requests(old_path: Path, new_path: Path) -> list[str]:
    """One line per field of two requests.json snapshots that differs; ["no change"] when none does."""
    def fields(path):
        return {(point, call, field): text for point, calls in json.loads(path.read_text()).items()
                for call, values in calls.items() for field, text in values.items()}

    old, new = fields(old_path), fields(new_path)
    lines = [f"{' '.join(key)}: {old.get(key, '(absent)')} -> {new.get(key, '(absent)')}"
             for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    return lines or ["no change"]


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
        write_requests(args.dir / REQUESTS)
        print(f"wrote {args.dir / REQUESTS}")
        return 0
    if args.old.is_dir():
        names = sorted({p.name for d in (args.old, args.new) for p in d.iterdir() if p.suffix in (".csv", ".json")})
        pairs = [(args.old / n, args.new / n) for n in names]
    else:
        pairs = [(args.old, args.new)]
    changed = False
    for old, new in pairs:
        if not (old.is_file() and new.is_file()):
            print(f"{old.name}: only in {new.parent if new.is_file() else old.parent}")
            changed = True
            continue
        print(f"{old.name}:" if len(pairs) > 1 else f"{old} -> {new}:")
        lines = (diff_requests if old.name == REQUESTS else diff_datasets)(old, new)
        changed |= lines != ["no change"]
        for line in lines:
            print(f"  {line}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
