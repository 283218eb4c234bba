"""Per-call cost of the README quick-start calls and of the kernels they run.

    python scripts/call_costs.py

Times each call at one fixed point (gamma/omega = 0.6, omega = 1, t = 3, the
probe bloch_probe(1.1, 0.7)) with timeit, 15 repeats of 200 calls, and prints
the best repeat in microseconds per call.  The sources under src/ are timed.
Best-of-N is the least noisy statistic for a call of this size on a shared
host, but per-call times still move by several percent between processes;
compare two trees by alternating runs.
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT, NUMBER = 15, 200


def calls() -> dict:
    """name -> zero-argument callable, the quick-start calls first, then their kernels."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import ptsense as api
    from ptsense import dilation, linalg, pt_system, states

    p, t = api.PtParams(omega=1.0, gamma=0.6), 3.0
    probe = api.bloch_probe(1.1, 0.7)
    rho0 = api.pure_density(probe)
    rho4 = api.evolve_enlarged(probe, p, t)
    h, c2 = api.hamiltonian_pt(p), (0.5 * p.kappa) ** 2
    m2, m4 = np.array(rho0.matrix), np.array(rho4.matrix)
    return {
        "pure_density": lambda: api.pure_density(probe),
        "evolve_density": lambda: api.evolve_density(rho0, p, t),
        "evolve_enlarged": lambda: api.evolve_enlarged(probe, p, t),
        "postselect": lambda: api.postselect(rho4),
        "weighted_qfi_scheme1": lambda: api.weighted_qfi_scheme1(p, t, probe=probe),
        "weighted_qfi_scheme2": lambda: api.weighted_qfi_scheme2(p, t),
        "resource_metrics": lambda: api.resource_metrics(p, t, probe=probe),
        "susceptibility_pt": lambda: api.susceptibility_pt(p, t),
        "linalg.su2_like_propagator": lambda: linalg.su2_like_propagator(h, c2, t),
        "linalg.su2_like_pair": lambda: linalg.su2_like_pair(h, 0.5 * linalg.PAULI_X, c2, 0.5, t),
        "pt_system.propagator_pt_pair": lambda: pt_system.propagator_pt_pair(p, t),
        "pt_system.norm_growth": lambda: pt_system.norm_growth(p, t, probe),
        "dilation.propagator_4d_pair": lambda: dilation.propagator_4d_pair(p, t),
        "dilation.metric_operator": lambda: dilation.metric_operator(p),
        "dilation.d_metric": lambda: dilation.d_metric(p),
        "states.DensityMatrix2": lambda: states.DensityMatrix2(m2),
        "states.DensityMatrix4": lambda: states.DensityMatrix4(m4),
        "states.UnnormalizedMatrix2": lambda: states.UnnormalizedMatrix2(m2),
    }


def main() -> int:
    table = calls()
    width = max(map(len, table))
    print(f"{'call':<{width}}  us/call (best of {REPEAT} x {NUMBER})")
    for name, call in table.items():
        best = min(timeit.Timer(call).repeat(repeat=REPEAT, number=NUMBER)) / NUMBER
        print(f"{name:<{width}}  {best * 1e6:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
