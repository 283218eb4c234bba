"""Benchmark of ptsense: one workload, one seed, one run.

    python3 perfbench/run.py --workload metrology-sweeps --seed 1 --seconds 30 --trace 0

The untraced run (--trace 0) times whole operations for --seconds and prints
the end-to-end metrics; the traced run (--trace 1) makes one untraced and one
traced pass of the same operations and prints the per-layer metrics.  Both
check every output and print a table, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPS = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "points_per_s": "pt/s", "peak_rss_mb": "MB"}

_SETUP = ("import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
          "import ptsense, ptsense.cli, workloads; "
          "workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))")

# Functions whose median microseconds per call the traced run reports.
METROLOGY_US = ("weighted_qfi_scheme1", "weighted_qfi_scheme2", "resource_metrics", "susceptibility_pt",
                "susceptibility_a", "susceptibility_enlarged", "susceptibility_eff", "population_shift",
                "qfi_two_level", "qfi_sld", "sld")
PER_CALL = {"dilation": ("evolve_enlarged", "postselect", "propagator_4d"),
            "lindblad": ("analytic_rho_3l", "effective_evolve", "postselect_3l"),
            "pt_system": ("propagator_pt", "evolve_density", "evolve_state")}
#: ROADMAP's baseline, microseconds per call (integrate_nh_master: per RK4 step).
ROADMAP_US = {"pt_system.propagator_pt": 20, "pt_system.evolve_density": 78, "dilation.postselect": 80,
              "lindblad.analytic_rho_3l": 79, "metrology.weighted_qfi_scheme2": 1040,
              "pt_system.integrate_nh_master": 2.2}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    m = {"cli.main.self_ms": ("ms", "lower"), "sweeps.run.self_s": ("s", "lower"),
         "sweeps.rows_per_pt": ("rows/pt", "higher"), "sweeps.bytes_written": ("B", "lower"),
         "sweeps.parallelism": ("ratio", "higher"),
         "metrology.weighted_qfi_scheme1.calls_per_pt": ("calls/pt", "lower"),
         "metrology.weighted_qfi_scheme2.calls_per_pt": ("calls/pt", "lower"),
         "metrology.state_evals_per_pt": ("calls/pt", "lower")}
    m.update({f"metrology.{fn}.us": ("us", "lower") for fn in METROLOGY_US})
    for layer, fns in PER_CALL.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls_per_pt"] = ("calls/pt", "lower")
            m[f"{layer}.{fn}.us"] = ("us", "lower")
    m.update({"dilation.dilate_initial.us": ("us", "lower"), "lindblad.liouvillian_matrix.us": ("us", "lower"),
              "pt_system.integrate_nh_master.us_per_step": ("us/step", "lower"),
              "states.validations_per_pt": ("calls/pt", "lower"), "states.validate_us": ("us", "lower"),
              "linalg.su2_like_propagator.calls_per_pt": ("calls/pt", "lower"),
              "linalg.su2_like_propagator.us": ("us", "lower"), "linalg.eig.calls_per_pt": ("calls/pt", "lower")})
    m.update({f"{layer}.self_share": ("frac", "lower") for layer in tracing.LAYERS})
    m.update({"trace.overhead_frac": ("frac", "lower"), "log.warning_lines": ("count", "lower"),
              "repo.src_lines": ("lines", "lower")})
    return m


class _WarningCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class Tally:
    """Operations attempted and failed, and what the outputs held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.undefined = 0
        self.outputs = 0  # rows (sweeps) or requests (library) of the first pass
        self.xi_bad = 0
        self.bytes = 0
        self.datasets = {}

    def fail(self, reasons) -> None:
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)


class SweepRunner:
    """Runs one SweepOp through `ptsense.cli.main` and checks what it wrote."""

    def __init__(self, ops, tally: Tally, digests) -> None:
        import ptsense.cli

        self.cli = ptsense.cli
        self.ops, self.tally, self.digests = ops, tally, digests
        self.points = sum(op.grid.points() for op in ops)
        self.printed = io.StringIO()

    def __call__(self, i: int, check: bool) -> float:
        op, tally = self.ops[i], self.tally
        tally.attempted += 1
        code = None
        t0 = perf_counter()
        try:
            with redirect_stdout(self.printed), redirect_stderr(self.printed):
                code = self.cli.main(list(op.argv))
        except Exception as exc:  # an exception escaping main fails this operation
            tally.fail([f"{op.name}: {type(exc).__name__}"])
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        if code != 0:
            tally.fail([f"{op.name}: exit {code}"])
            return elapsed
        data = op.output.read_bytes()
        reasons = []
        if check:
            report = checks.check_dataset(data, op.fmt, op.grid)
            tally.datasets[op.name] = report
            tally.outputs += report.rows
            tally.undefined += report.undefined
            tally.xi_bad += report.xi_bad
            tally.bytes += report.bytes
            reasons += [f"{op.name}: {r}" for r in report.failures]
            sha = report.sha256
        else:
            sha = hashlib.sha256(data).hexdigest()
        if not self.digests.record(op.name, sha):
            reasons.append(f"{op.name}: rewrite differs")
        tally.fail(reasons)
        return elapsed


class LibraryRunner:
    """Runs one library Request through the `ptsense` package attributes."""

    def __init__(self, requests, tally: Tally, digests) -> None:
        import ptsense
        from ptsense.errors import PtsenseError
        from ptsense.metrology import qfi_sld, qfi_spectral, qfi_two_level

        self.api, self.typed = ptsense, PtsenseError
        self.forms = (qfi_sld, qfi_spectral, qfi_two_level)  # unwrapped: checks stay untraced
        self.requests, self.tally, self.digests = requests, tally, digests
        self.points = len(requests)
        self.latencies: list[float] = []

    def __call__(self, i: int, check: bool) -> float:
        tally = self.tally
        tally.attempted += 1
        out, error = {}, None
        t0 = perf_counter()
        try:
            workloads.run_request(self.api, self.requests[i], out)
        except self.typed as exc:
            error = type(exc).__name__
        except Exception as exc:  # untyped: a failed request
            error = f"untyped {type(exc).__name__}"
        elapsed = perf_counter() - t0
        self.latencies.append(elapsed)
        reasons = [f"request: {error}"] if error and error.startswith("untyped") else []
        if check:
            tally.outputs += 1
            tally.undefined += error is not None and not error.startswith("untyped")
            tally.xi_bad += checks.request_xi_bad(out)
            reasons += [f"request: {r}" for r in checks.check_request(out, self.forms)]
        if not self.digests.record(f"request{i}", checks.request_digest(out, error)):
            reasons.append("request: repeat differs")
        tally.fail(reasons)
        return elapsed


def time_setup(workload: str, seed: int, scratch: Path) -> list[float]:
    """Seconds from a fresh interpreter to ptsense imported and configs built."""
    times = []
    for k in range(SETUP_REPS):
        target = scratch / f"setup{k}"
        target.mkdir()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP, str(SRC), str(BENCH), workload, str(seed), str(target)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def measure(runner, n_ops: int, seconds: float) -> list[list[float]]:
    """Cycle over the operations until `seconds` have passed, each at least once."""
    samples = [[] for _ in range(n_ops)]
    start, k = perf_counter(), 0
    while k < n_ops or perf_counter() - start < seconds:
        i = k % n_ops
        samples[i].append(runner(i, check=k < n_ops))
        k += 1
    return samples


def nh_master_us_per_step() -> float:
    """Direct, untraced calls of the RK4 integrator: median microseconds per step."""
    from ptsense import PtParams, integrate_nh_master, plus_y, pure_density

    rho0, p, steps = pure_density(plus_y()), PtParams(omega=1.0, gamma=0.5), 2000
    times = []
    for _ in range(5):
        t0 = perf_counter()
        integrate_nh_master(rho0, p, 20.0, 20.0 / steps)
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times) / steps


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "ptsense").rglob("*.py")))


def layer_metrics(summary, runner, tally: Tally, untraced_s: float, traced_s: float,
                  warning_lines: int, us_per_step: float) -> dict[str, float]:
    points = runner.points
    sweeps = isinstance(runner, SweepRunner)

    def per_pt(name: str) -> float:
        return summary.calls.get(name, 0) / points

    m = {"cli.main.self_ms": 1e3 * summary.self_time.get("cli.main", 0.0),
         "sweeps.run.self_s": summary.self_time.get("sweeps.run", 0.0),
         "sweeps.rows_per_pt": tally.outputs / points if sweeps else 0.0,
         "sweeps.bytes_written": float(tally.bytes),
         "sweeps.parallelism": summary.parallelism,
         "metrology.weighted_qfi_scheme1.calls_per_pt": per_pt("metrology.weighted_qfi_scheme1"),
         "metrology.weighted_qfi_scheme2.calls_per_pt": per_pt("metrology.weighted_qfi_scheme2"),
         "metrology.state_evals_per_pt": summary.state_evals / points}
    m.update({f"metrology.{fn}.us": summary.us(f"metrology.{fn}") for fn in METROLOGY_US})
    for layer, fns in PER_CALL.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls_per_pt"] = per_pt(f"{layer}.{fn}")
            m[f"{layer}.{fn}.us"] = summary.us(f"{layer}.{fn}")
    m.update({"dilation.dilate_initial.us": summary.us("dilation.dilate_initial"),
              "lindblad.liouvillian_matrix.us": summary.us("lindblad.liouvillian_matrix"),
              "pt_system.integrate_nh_master.us_per_step": us_per_step,
              "states.validations_per_pt": summary.validations / points,
              "states.validate_us": summary.validate_us,
              "linalg.su2_like_propagator.calls_per_pt": per_pt("linalg.su2_like_propagator"),
              "linalg.su2_like_propagator.us": summary.us("linalg.su2_like_propagator"),
              "linalg.eig.calls_per_pt": per_pt("linalg.eig")})
    m.update({f"{layer}.self_share": summary.self_share(layer) for layer in summary.module_self})
    m.update({"trace.overhead_frac": traced_s / untraced_s - 1.0, "log.warning_lines": float(warning_lines),
              "repo.src_lines": float(src_lines())})
    return m


def _row(name: str, value, unit: str, note: str = "") -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<46} {text:>14} {unit:<9} {note}".rstrip()


def print_outputs(tally: Tally, runner, digests) -> None:
    print("correctness")
    print(_row("error_frac", tally.failed / max(tally.attempted, 1), "frac",
               f"{tally.failed} of {tally.attempted} operations"))
    what = "rows" if isinstance(runner, SweepRunner) else "requests"
    print(_row("undefined_frac", tally.undefined / max(tally.outputs, 1), "frac",
               f"{tally.undefined} of {tally.outputs} {what}, one pass"))
    print(_row("xi_bad_rows", tally.xi_bad, "count", "known defect, ROADMAP item 1"))
    for reason, count in sorted(tally.reasons.items()):
        print(f"  FAILED {reason} x{count}")
    for name, report in tally.datasets.items():
        print(f"  dataset {name:<6} rows={report.rows} undefined={report.undefined} xi_bad={report.xi_bad} "
              f"bytes={report.bytes} writes={digests.writes[name]} "
              f"identical={'no' if digests.mismatches[name] else 'yes'} sha256={report.sha256}")
    if isinstance(runner, LibraryRunner):
        repeats = sum(digests.writes.values()) - len(digests.writes)
        print(f"  requests repeated={repeats} differing={sum(digests.mismatches.values())}")


def run(args, scratch: Path) -> dict:
    import numpy
    import ptsense
    import ptsense.cli  # noqa: F401  part of set-up on every workload

    setup = time_setup(args.workload, args.seed, scratch)
    ops = workloads.build(args.workload, args.seed, scratch)
    tally, digests = Tally(), checks.DigestLog()
    runner = (LibraryRunner if args.workload == "library-calls" else SweepRunner)(ops, tally, digests)

    logger = logging.getLogger("ptsense")
    counter = _WarningCounter()
    logger.addHandler(counter)
    logger.propagate = False
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    cpus, usable = os.cpu_count(), len(os.sched_getaffinity(0))
    print(f"  python={platform.python_version()} numpy={numpy.__version__} ptsense={ptsense.__version__} "
          f"cpu_count={cpus} sched_getaffinity={usable}"
          f"{' OVERSUBSCRIBED: the default pool sizes from cpu_count' if cpus != usable else ''} "
          f"repo.src_lines={src_lines()}")

    if not args.trace:
        samples = measure(runner, len(ops), args.seconds)
        warning_lines = counter.count
        wall = sum(min(s) for s in samples)
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall, "points_per_s": runner.points / wall,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        passes = min(len(s) for s in samples)
        notes = {"setup_s": f"median of {SETUP_REPS} fresh interpreters",
                 "wall_s": f"sum of per-operation minima; {len(ops)} ops, {passes}+ passes",
                 "points_per_s": f"{runner.points} points per pass"}
        print("end to end")
        for name, unit in END_TO_END.items():
            print(_row(name, metrics[name], unit, notes.get(name, "")))
        if isinstance(runner, LibraryRunner):
            lat = sorted(runner.latencies)
            cuts = statistics.quantiles(lat, n=100)
            print(_row("call_p50_us", 1e6 * cuts[49], "us", f"{len(lat)} requests"))
            print(_row("call_p99_us", 1e6 * cuts[98], "us", f"{len(lat) - int(0.99 * len(lat))} beyond it"))
        print(_row("log.warning_lines", warning_lines, "count", "ptsense logging warnings, all passes"))
        if isinstance(runner, SweepRunner):
            for op, s in zip(ops, samples):
                print(f"  op {op.name:<6} min={min(s):.4f} s median={statistics.median(s):.4f} "
                      f"max={max(s):.4f} n={len(s)}")
        print_outputs(tally, runner, digests)
        return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}

    untraced_s = sum(runner(i, check=True) for i in range(len(ops)))
    us_per_step = nh_master_us_per_step()
    tracer = tracing.Tracer()
    wrapped = tracing.install(tracer)
    warnings_before = counter.count
    op_starts, traced_s = [], 0.0
    for i in range(len(ops)):
        op_starts.append(perf_counter())
        traced_s += runner(i, check=False)
    warning_lines = counter.count - warnings_before
    summary = tracing.Summary(tracer, op_starts)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}.spans")
    metrics = layer_metrics(summary, runner, tally, untraced_s, traced_s, warning_lines, us_per_step)
    units = per_layer_units()

    print(f"traced pass: {wrapped} functions wrapped, {tracer.span_count()} spans, "
          f"{traced_s:.3f} s traced vs {untraced_s:.3f} s untraced")
    print("per layer")
    for name, value in metrics.items():
        print(_row(name, value, units[name][0]))
    print("ROADMAP item 3 baseline vs this run (traced us include wrapper cost of nested spans)")
    for name, then in ROADMAP_US.items():
        now = us_per_step if name.endswith("integrate_nh_master") else summary.us(name)
        print(f"  {name:<46} roadmap={then:<8} now={now:.4g}")
    if isinstance(runner, SweepRunner):
        print("per operation: calls per grid point of the scheme each function serves")
        for op, calls, evals in zip(ops, summary.op_calls, summary.op_state_evals):
            dil, lin = op.grid.points(("dilation",)), op.grid.points(("lindblad",))
            s1, s2 = calls.get("metrology.weighted_qfi_scheme1", 0), calls.get("metrology.weighted_qfi_scheme2", 0)
            print(f"  {op.name:<6} points={op.grid.points():<6} scheme1/dilation_pt="
                  f"{s1 / dil if dil else 0:.4g} scheme2/lindblad_pt={s2 / lin if lin else 0:.4g} "
                  f"state_evals/pt={evals / op.grid.points():.4g} "
                  f"validations/pt={sum(v for k, v in calls.items() if k.startswith('states.')) / op.grid.points():.4g}")
    print("module self-time shares: " + " ".join(f"{k}={summary.self_share(k):.3f}" for k in summary.module_self))
    print_outputs(tally, runner, digests)
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ptsense" / "__init__.py").is_file():
        print(f"perfbench: no ptsense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            result = run(args, scratch)
        print(f"  python warnings during the run (first of each kind): {len(caught)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
