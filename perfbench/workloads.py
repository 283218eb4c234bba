"""Seeded inputs of the benchmark workloads, and one operation of each.

A sweep workload is a list of `SweepOp`s, each one in-process call of
`ptsense.cli.main` that writes one dataset.  `library-calls` is a list of
`Request`s, each one pass through the README quick-start API.  Only the
generated configs and points reach the program; the seed never does.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("dynamics-sweeps", "metrology-sweeps", "library-calls")

DYNAMICS_FIGURES = ("fig2", "fig3", "fig4")
METROLOGY_FIGURES = ("fig5", "fig6", "fig7")

#: Requests in one pass of library-calls; the measuring loop cycles over them.
LIBRARY_REQUESTS = 200
#: Share of library requests placed next to the exceptional point (EP).
NEAR_EP_SHARE = 0.2

# tau = 2*pi and 4*pi lie on this grid, where zeta = 1 must hold.
TAU_MAX = 4.0 * math.pi
TAU_STEPS = 129
#: fig5-fig7 run on every fourth tau of their 129-step grid (2*pi and 4*pi
#: stay on it), so that a run executes each preset several times and its
#: fastest execution is not hostage to one burst of host contention.
METROLOGY_FIGURE_TAU_STEPS = 33


def near_ep_ratio(rng: random.Random) -> float:
    """gamma/omega = 1 - 10^-u with u in [4, 6]."""
    return 1.0 - 10.0 ** -rng.uniform(4.0, 6.0)


@dataclass(frozen=True)
class Grid:
    """The (gamma/omega, delta/omega, tau, scheme) grid one dataset covers."""

    gamma_ratios: tuple[float, ...]
    delta_ratios: tuple[float, ...]
    schemes: tuple[str, ...]
    quantities: tuple[str, ...]
    tau_max: float
    tau_steps: int
    plus_y: bool

    @staticmethod
    def of(config) -> "Grid":
        """Grid of a `ptsense.SweepConfig`."""
        return Grid(
            gamma_ratios=tuple(config.gamma_ratios),
            delta_ratios=tuple(config.delta_ratios),
            schemes=tuple(config.schemes),
            quantities=tuple(config.quantities),
            tau_max=config.tau_max,
            tau_steps=config.tau_steps,
            plus_y=config.probe == "plus_y",
        )

    def points(self, schemes: tuple[str, ...] | None = None) -> int:
        """Grid points (scheme x gamma x delta x tau), optionally of some schemes."""
        n_schemes = len(self.schemes if schemes is None else [s for s in self.schemes if s in schemes])
        return n_schemes * len(self.gamma_ratios) * len(self.delta_ratios) * self.tau_steps


@dataclass(frozen=True)
class SweepOp:
    """One `ptsense` command line, run in process, and the dataset it writes."""

    name: str
    argv: tuple[str, ...]
    output: Path
    fmt: str
    grid: Grid


@dataclass(frozen=True)
class Request:
    """One library request: a (gamma/omega, tau, Bloch probe) point at omega = 1."""

    gamma_ratio: float
    tau: float
    theta: float
    phi: float


def _figure_op(name: str, out_dir: Path, tau_steps: int | None = None) -> SweepOp:
    from ptsense.sweeps import figure_preset

    output = out_dir / f"{name}.csv"
    argv = ("figure", name, "--output", str(output))
    config = figure_preset(name)
    if tau_steps is not None:
        argv += ("--tau-steps", str(tau_steps))
        config = dataclasses.replace(config, tau_steps=tau_steps)
    return SweepOp(name, argv, output, "csv", Grid.of(config))


def _sweep_op(raw: dict, out_dir: Path) -> SweepOp:
    from ptsense.sweeps import SweepConfig

    config_path = out_dir / "sweep-config.json"
    config_path.write_text(json.dumps(raw, indent=1) + "\n")
    return SweepOp("sweep", ("sweep", "--config", str(config_path)), Path(raw["output_path"]),
                   raw["format"], Grid.of(SweepConfig.from_mapping(raw)))


def dynamics_sweep_config(rng: random.Random, out_dir: Path) -> dict:
    """Populations and post-selection rates on both constructions, JSON output."""
    gammas = sorted([rng.uniform(0.0, 0.95) for _ in range(3)] + [near_ep_ratio(rng)])
    deltas = sorted(rng.uniform(0.0, 0.01) for _ in range(2))
    return {
        "quantity": ["population", "postselect_rates"],
        "scheme": ["dilation", "lindblad"],
        "gamma_list": gammas,
        "delta_list": deltas,
        "tau_max": TAU_MAX,
        "tau_steps": TAU_STEPS,
        "format": "json",
        "output_path": str(out_dir / "sweep.json"),
    }


def metrology_sweep_config(rng: random.Random, out_dir: Path) -> dict:
    """Weighted QFI, Cramer-Rao bounds and xi/zeta for a custom Bloch probe."""
    return {
        "quantity": ["qfi_weighted", "sensitivity_bound", "resources"],
        "scheme": ["dilation"],
        "gamma_list": [rng.uniform(0.0, 0.95), near_ep_ratio(rng)],
        "probe": "custom",
        "probe_theta": math.acos(rng.uniform(-1.0, 1.0)),
        "probe_phi": rng.uniform(0.0, 2.0 * math.pi),
        "tau_max": TAU_MAX,
        "tau_steps": TAU_STEPS,
        "format": "csv",
        "output_path": str(out_dir / "sweep.csv"),
    }


def library_requests(rng: random.Random) -> list[Request]:
    """A fixed share of near-EP points; the rest have gamma/omega in [0, 0.95]."""
    n_near = round(NEAR_EP_SHARE * LIBRARY_REQUESTS)
    near = [True] * n_near + [False] * (LIBRARY_REQUESTS - n_near)
    rng.shuffle(near)
    return [
        Request(
            gamma_ratio=near_ep_ratio(rng) if is_near else rng.uniform(0.0, 0.95),
            tau=rng.uniform(0.0, TAU_MAX),
            theta=math.acos(rng.uniform(-1.0, 1.0)),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        for is_near in near
    ]


def build(workload: str, seed: int, out_dir: Path) -> list:
    """The operations of one pass of `workload`; writes configs into out_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dynamics-sweeps":
        return [_figure_op(n, out_dir) for n in DYNAMICS_FIGURES] + [
            _sweep_op(dynamics_sweep_config(rng, out_dir), out_dir)]
    if workload == "metrology-sweeps":
        # the cheap seeded sweep first, so that a run's second pass writes it again
        return [_sweep_op(metrology_sweep_config(rng, out_dir), out_dir)] + [
            _figure_op(n, out_dir, METROLOGY_FIGURE_TAU_STEPS) for n in METROLOGY_FIGURES]
    if workload == "library-calls":
        return library_requests(rng)
    raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")


def run_request(api, request: Request, out: dict) -> None:
    """The README quick-start calls for one point, filling `out` as they return.

    `api` is the `ptsense` package; calls go through its attributes so that
    the traced run sees them.
    """
    p = api.PtParams(omega=1.0, gamma=request.gamma_ratio)
    t = request.tau / p.kappa
    probe = api.bloch_probe(request.theta, request.phi)
    fd = api.FdConfig.for_omega(p.omega)
    out["rho"] = api.evolve_density(api.pure_density(probe), p, t)
    out["branches"] = api.postselect(api.evolve_enlarged(probe, p, t))
    out["scheme1"] = api.weighted_qfi_scheme1(p, t, fd, probe=probe)
    out["resources"] = api.resource_metrics(p, t, fd, probe=probe)
    out["scheme2"] = api.weighted_qfi_scheme2(p, t, fd)
