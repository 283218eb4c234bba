"""Per-call cost of the README quick-start calls and of the kernels they run.

    python scripts/call_costs.py

Times each call with timeit, 15 repeats of 200 calls, and prints the best
repeat in microseconds per call.  Each row alternates between two points
(gamma/omega = 0.6, omega = 1, t = 3 and t = 3.5, the probe
bloch_probe(1.1, 0.7)), so that no call reads the state its predecessor left
(metrology._point): every row times a first call at its point.  The row
"quick-start request" is the five calls of one library request of the
benchmark (perfbench/workloads.py), in which three calls share one state.
The sources under src/ are timed.
Best-of-N is the least noisy statistic for a call of this size on a shared
host, but per-call times still move by several percent between processes;
compare two trees by alternating runs.

A second table times each figure preset in process (sweeps.run, best of
REPEAT runs, the dataset written to a temporary directory) at 2 and at 33
tau steps, so the difference shows the part of a sweep that does not depend
on its number of points, and counts the propagator builds of one run at 129
steps (calls of linalg._propagator, the one kernel of every propagator).
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import time
import timeit
from contextlib import redirect_stdout
from io import StringIO
from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
REPEAT, NUMBER = 15, 200


def calls() -> dict:
    """name -> zero-argument callable alternating between two points, the quick-start calls first, then
    their kernels."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import ptsense as api
    from ptsense import dilation, linalg, pt_system, states

    def point(t):
        p, probe = api.PtParams(omega=1.0, gamma=0.6), api.bloch_probe(1.1, 0.7)
        rho0, rho4 = api.pure_density(probe), api.evolve_enlarged(probe, p, t)
        phase = pt_system._phase(p, t)
        terms = (*linalg._cos_sinc(phase), linalg.sinc_slope(phase))
        return SimpleNamespace(p=p, t=t, probe=probe, rho0=rho0, rho4=rho4, h=api.hamiltonian_pt(p),
                               c2=(0.5 * p.kappa) ** 2, phase=phase, terms=terms, m2=np.array(rho0.matrix),
                               m4=np.array(rho4.matrix))

    def request(x):
        api.evolve_density(api.pure_density(x.probe), x.p, x.t)
        api.postselect(api.evolve_enlarged(x.probe, x.p, x.t))
        api.weighted_qfi_scheme1(x.p, x.t, probe=x.probe)
        api.resource_metrics(x.p, x.t, probe=x.probe)
        api.weighted_qfi_scheme2(x.p, x.t)

    table = {
        "quick-start request": request,
        "pure_density": lambda x: api.pure_density(x.probe),
        "evolve_density": lambda x: api.evolve_density(x.rho0, x.p, x.t),
        "evolve_enlarged": lambda x: api.evolve_enlarged(x.probe, x.p, x.t),
        "postselect": lambda x: api.postselect(x.rho4),
        "weighted_qfi_scheme1": lambda x: api.weighted_qfi_scheme1(x.p, x.t, probe=x.probe),
        "weighted_qfi_scheme2": lambda x: api.weighted_qfi_scheme2(x.p, x.t),
        "resource_metrics": lambda x: api.resource_metrics(x.p, x.t, probe=x.probe),
        "susceptibility_pt": lambda x: api.susceptibility_pt(x.p, x.t),
        "linalg.su2_like_propagator": lambda x: linalg.su2_like_propagator(x.h, x.c2, x.t),
        "linalg._cos_sinc": lambda x: linalg._cos_sinc(x.phase),
        "linalg._propagator": lambda x: linalg._propagator(x.h, x.t, *x.terms[:2]),
        "linalg._tangent": lambda x: linalg._tangent(x.h, 0.5 * linalg.PAULI_X, 0.5, x.t, x.terms),
        "pt_system.propagator_pt": lambda x: pt_system.propagator_pt(x.p, x.t),
        "pt_system.norm_growth": lambda x: pt_system.norm_growth(x.p, x.t, x.probe),
        "dilation.propagator_4d": lambda x: dilation.propagator_4d(x.p, x.t),
        "dilation.metric_operator": lambda x: dilation.metric_operator(x.p),
        "dilation.d_metric": lambda x: dilation.d_metric(x.p),
        "states.DensityMatrix2": lambda x: states.DensityMatrix2(x.m2),
        "states.DensityMatrix4": lambda x: states.DensityMatrix4(x.m4),
        "states.UnnormalizedMatrix2": lambda x: states.UnnormalizedMatrix2(x.m2),
    }
    points = (point(3.0), point(3.5))
    return {name: (lambda fn=fn, turn=cycle(points): fn(next(turn))) for name, fn in table.items()}


def builds(run, config) -> int:
    """Propagator builds of one sweep: calls of _propagator, through every ptsense binding."""
    count = []
    modules = [m for key, m in sorted(sys.modules.items()) if key == "ptsense" or key.startswith("ptsense.")]
    saved = [(m, "_propagator", m._propagator) for m in modules if hasattr(m, "_propagator")]
    for module, name, fn in saved:
        setattr(module, name, lambda *a, _fn=fn, **k: count.append(1) or _fn(*a, **k))
    try:
        run(config)
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    return len(count)


def sweeps() -> dict:
    """preset -> (best ms at 2 tau steps, best ms at 33, propagator builds at 129)."""
    from ptsense.sweeps import FIGURE_NAMES, figure_preset
    from ptsense.sweeps import run as run_sweep

    out = {}
    with tempfile.TemporaryDirectory() as folder, redirect_stdout(StringIO()):
        def run(config):
            run_sweep(config, output_path=str(Path(folder) / "out.csv"))

        def best(config):
            times = []
            for _ in range(REPEAT):
                start = time.perf_counter()
                run(config)
                times.append(time.perf_counter() - start)
            return min(times) * 1e3

        for name in FIGURE_NAMES:
            preset = figure_preset(name)
            out[name] = (*(best(dataclasses.replace(preset, tau_steps=n)) for n in (2, 33)), builds(run, preset))
    return out


def main() -> int:
    table = calls()
    width = max(map(len, table))
    print(f"{'call':<{width}}  us/call (best of {REPEAT} x {NUMBER})")
    for name, call in table.items():
        best = min(timeit.Timer(call).repeat(repeat=REPEAT, number=NUMBER)) / NUMBER
        print(f"{name:<{width}}  {best * 1e6:8.2f}")
    print()
    print(f"{'preset':<{width}}  ms at 2 tau  ms at 33 tau  builds at 129 (best of {REPEAT})")
    for name, (two, many, count) in sweeps().items():
        print(f"{name:<{width}}  {two:11.2f}  {many:12.2f}  {count:13d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
