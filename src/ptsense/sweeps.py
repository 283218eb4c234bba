"""Parameter sweeps over (gamma/omega, tau, delta) producing flat datasets.

Which (quantity, scheme) pairs exist, the rows each writes per grid point and
how they are evaluated is one table, `_PAIRS`.  Points are evaluated serially:
the work is Python-level arithmetic on 2x2-4x4 matrices that holds the
interpreter lock, so a thread pool was no faster than one thread on any figure
preset (README).  Rows are sorted before writing, so reruns are byte-identical.
Floats are serialized with repr() (shortest round-trip, at most 17 significant
digits); non-finite or failed entries are the literal strings
"inf"/"undefined"; complex spectra are serialized like "-0.6+0.8j".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrology
from .dilation import evolve_enlarged, postselect
from .errors import ConfigError, PtsenseError, WriteError
from .lindblad import analytic_rho_3l, artificial_pt, effective_evolve, liouvillian_matrix, postselect_3l
from .metrology import FdConfig, qfi_two_level
from .params import PtParams
from .pt_system import evolve_density
from .states import bloch_probe, minus_y, plus_y, pure_density

__all__ = ["SweepConfig", "RecordRow", "run", "figure_preset", "QUANTITIES", "SCHEMES", "FIGURE_NAMES"]

SCHEMES = ("pt", "dilation", "lindblad")
CSV_HEADER = "tau,t,gamma_ratio,delta_ratio,quantity,value,scheme,probe"

# gamma/omega grids used by the figure presets: a dynamics set and a denser
# resource set with a near-exceptional-point member each (the exact near-EP
# offsets are recorded in the run summary).
DYNAMICS_GAMMAS = (0.0, 0.5, 0.9, 1.0 - 1e-5)
RESOURCE_GAMMAS = (0.0, 0.3, 0.6, 0.9, 1.0 - 1e-6)


@dataclass(frozen=True)
class SweepConfig:
    quantities: tuple[str, ...]
    schemes: tuple[str, ...]
    gamma_ratios: tuple[float, ...]
    omega: float = 1.0
    delta_ratios: tuple[float, ...] = (0.0,)
    tau_max: float = 4.0 * math.pi
    tau_steps: int = 129
    probe: str = "plus_y"
    probe_theta: float | None = None
    probe_phi: float | None = None
    repetitions: int = 1
    fd_h: float = 1e-6  # relative to omega
    output_path: str = "sweep.csv"
    format: str = "csv"

    def __post_init__(self) -> None:
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ConfigError(f"quantity: unknown value {q!r}")
        if not self.quantities:
            raise ConfigError("quantity: at least one required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"scheme: unknown value {s!r}")
        if not self.schemes:
            raise ConfigError("scheme: at least one required")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ConfigError("omega: must be positive")
        if not self.gamma_ratios:
            raise ConfigError("gamma_list: at least one ratio required")
        for g in self.gamma_ratios:
            if not (0.0 <= g <= 1.0):
                raise ConfigError(f"gamma_list: ratio {g!r} outside [0, 1]")
        for d in self.delta_ratios:
            if not (0.0 <= d <= 0.1):
                raise ConfigError(f"delta_list: ratio {d!r} outside [0, 0.1]")
        if self.tau_steps < 2:
            raise ConfigError("tau_steps: must be at least 2")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0):
            raise ConfigError("tau_max: must be positive")
        if self.probe not in ("plus_y", "minus_y", "custom"):
            raise ConfigError(f"probe: unknown value {self.probe!r}")
        if self.probe == "custom" and (self.probe_theta is None or self.probe_phi is None):
            raise ConfigError("probe: custom probe requires probe_theta and probe_phi")
        if self.repetitions < 1:
            raise ConfigError("N: repetitions must be >= 1")
        if not (0.0 < self.fd_h <= 1e-3):
            raise ConfigError("fd_h: relative step must be in (0, 1e-3]")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format: unknown value {self.format!r}")

    @staticmethod
    def from_mapping(data: dict) -> "SweepConfig":
        """Build from a flat key-value document (the JSON config format)."""
        known = {
            "quantity", "scheme", "omega", "gamma_list", "delta_list", "tau_max",
            "tau_steps", "probe", "probe_theta", "probe_phi", "N", "fd_h",
            "output_path", "format",
        }
        for key in data:
            if key not in known:
                raise ConfigError(f"{key}: unknown config field")

        def as_tuple(value):
            if isinstance(value, (list, tuple)):
                return tuple(value)
            return (value,)

        kwargs = {}
        if "quantity" in data:
            kwargs["quantities"] = as_tuple(data["quantity"])
        else:
            raise ConfigError("quantity: required field missing")
        if "scheme" in data:
            kwargs["schemes"] = as_tuple(data["scheme"])
        else:
            raise ConfigError("scheme: required field missing")
        if "gamma_list" not in data:
            raise ConfigError("gamma_list: required field missing")
        kwargs["gamma_ratios"] = tuple(float(g) for g in as_tuple(data["gamma_list"]))
        if "delta_list" in data:
            kwargs["delta_ratios"] = tuple(float(d) for d in as_tuple(data["delta_list"]))
        for src, dst, conv in (
            ("omega", "omega", float), ("tau_max", "tau_max", float),
            ("tau_steps", "tau_steps", int), ("probe", "probe", str),
            ("probe_theta", "probe_theta", float), ("probe_phi", "probe_phi", float),
            ("N", "repetitions", int), ("fd_h", "fd_h", float),
            ("output_path", "output_path", str), ("format", "format", str),
        ):
            if src in data and data[src] is not None:
                try:
                    kwargs[dst] = conv(data[src])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{src}: {exc}") from exc
        return SweepConfig(**kwargs)

    def probe_vector(self) -> np.ndarray:
        if self.probe == "plus_y":
            return plus_y()
        if self.probe == "minus_y":
            return minus_y()
        return bloch_probe(self.probe_theta, self.probe_phi)

    def probe_label(self) -> str:
        if self.probe == "custom":
            return f"custom({self.probe_theta!r},{self.probe_phi!r})"
        return self.probe


@dataclass(frozen=True)
class RecordRow:
    tau: float
    t: float
    gamma_ratio: float
    delta_ratio: float
    quantity: str
    value: object  # float, complex, or None for "undefined"
    scheme: str
    probe: str

    def sort_key(self):
        return (self.gamma_ratio, self.delta_ratio, self.tau, self.quantity, self.scheme, self.probe)


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, complex):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return "undefined"
        return repr(value).strip("()")
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "undefined"
    return repr(v)


class _Point:
    """One (scheme, gamma/omega, delta/omega, tau) grid point.

    The scheme's QFI report is evaluated at most once and shared by every
    quantity that reads it; a PtsenseError it raised is shared the same way,
    so each of those quantities still becomes its own undefined row.
    """

    def __init__(self, config: SweepConfig, scheme: str, gamma_ratio: float,
                 delta_ratio: float, tau: float) -> None:
        omega = config.omega
        self.scheme = scheme
        self.base = PtParams(omega=omega, gamma=gamma_ratio * omega)
        self.delta = delta_ratio * omega
        self.op = PtParams(omega=omega + self.delta, gamma=self.base.gamma)  # operating point
        kappa = self.base.kappa
        self.t = tau / kappa if kappa > 0.0 else (0.0 if tau == 0.0 else math.inf)
        self.probe = config.probe_vector()
        self.fd = FdConfig(h=config.fd_h * omega)
        self.n_rep = config.repetitions
        self._report = None

    def report(self):
        """The pt-scheme QFI, or the QfiReport of the dilation or lindblad scheme."""
        if self._report is None:
            try:
                if self.scheme == "dilation":
                    self._report = metrology.weighted_qfi_scheme1(
                        self.op, self.t, self.fd, probe=self.probe, n_repetitions=self.n_rep)
                elif self.scheme == "lindblad":
                    self._report = metrology.weighted_qfi_scheme2(
                        self.op, self.t, self.fd, n_repetitions=self.n_rep)
                else:
                    self._report = _qfi_pt(self)
            except PtsenseError as exc:
                self._report = exc
        if isinstance(self._report, PtsenseError):
            raise self._report
        return self._report


def _qfi_pt(pt: _Point) -> float:
    """QFI of the normalized PT state in omega, at fixed t."""
    rho0 = pure_density(pt.probe)
    h = metrology._ep_safe_step(pt.op, pt.fd)
    d_rho = metrology._derivative(lambda omega: evolve_density(rho0, pt.op.with_omega(omega), pt.t).matrix,
                                  pt.op.omega, h, pt.fd.richardson)
    return qfi_two_level(evolve_density(rho0, pt.op, pt.t), d_rho)


def _population_pt(pt: _Point):
    m = evolve_density(pure_density(pt.probe), pt.op, pt.t).matrix
    return m[0, 0].real, m[1, 1].real


def _population_lindblad(pt: _Point):
    pops = analytic_rho_3l(pt.op, pt.t).populations
    eff = effective_evolve(pt.probe, pt.op, pt.t)
    artificial = None
    if pt.op.gamma * pt.t <= 700.0:
        artificial = float(artificial_pt(pt.op, pt.t, eff).matrix[0, 0].real)
    return float(pops[0]), float(pops[1]), float(pops[2]), float(eff.matrix[0, 0].real), artificial


def _postselect_rates_dilation(pt: _Point):
    out = postselect(evolve_enlarged(pt.probe, pt.op, pt.t))
    rho_a_11 = out.rho_a.matrix[0, 0].real if out.rho_a else None
    return out.p_suc, out.p_fail, out.rho_pt.matrix[0, 0].real, rho_a_11


def _postselect_rates_lindblad(pt: _Point):
    out = postselect_3l(analytic_rho_3l(pt.op, pt.t))
    return out.p_suc, out.p_fail, out.rho_pt.matrix[0, 0].real


def _population_shift(pt: _Point):
    kind = {"pt": "pt", "dilation": "enlarged", "lindblad": "eff"}[pt.scheme]
    return (metrology.population_shift(kind, pt.base, pt.delta, pt.t),)


def _resources(pt: _Point):
    metrics = metrology.resource_report(pt.report())
    return metrics.xi, metrics.zeta


def _liouvillian_spectrum(pt: _Point):
    _, values = liouvillian_matrix(pt.op)
    ordered = sorted(values, key=lambda z: (round(z.imag, 12), round(z.real, 12)))
    return [complex(z) for z in ordered]


@dataclass(frozen=True)
class _Pair:
    """What one (quantity, scheme) pair writes at each grid point.

    `evaluate(point)` returns one value per row name (None for an undefined
    entry).  A time-independent pair is written once, at tau = 0.
    """

    rows: tuple[str, ...]
    evaluate: object
    plus_y_only: bool = False
    time_independent: bool = False


def _reported(fields: dict[str, str], plus_y_only: bool = False) -> _Pair:
    """Pair whose rows, keyed by row name, are fields of the point's shared report."""

    def evaluate(pt: _Point):
        report = pt.report()
        return [getattr(report, name) for name in fields.values()]

    return _Pair(tuple(fields), evaluate, plus_y_only)


_POP = ("population_1", "population_2", "population_3", "population_4")

#: Every valid (quantity, scheme) pair: its row names, its evaluator and, as True, whether it needs
#: the plus_y probe.  A pair missing here is rejected.  Evaluators look ptsense functions up when they run.
_PAIRS = {
    ("population", "pt"): _Pair(_POP[:2], _population_pt),
    ("population", "dilation"): _Pair(
        _POP, lambda pt: [float(v) for v in evolve_enlarged(pt.probe, pt.op, pt.t).populations]),
    ("population", "lindblad"): _Pair(
        _POP[:3] + ("population_eff_1", "population_artificial_1"), _population_lindblad, True),
    ("postselect_rates", "dilation"): _Pair(
        ("p_suc", "p_fail", "rho_pt_11", "rho_a_11"), _postselect_rates_dilation),
    ("postselect_rates", "lindblad"): _Pair(
        ("p_suc", "p_fail", "rho_pt_11"), _postselect_rates_lindblad, True),
    ("population_shift", "pt"): _Pair(("population_shift_1",), _population_shift, True),
    ("population_shift", "dilation"): _Pair(("population_shift_1",), _population_shift, True),
    ("population_shift", "lindblad"): _Pair(("population_shift_1",), _population_shift, True),
    ("susceptibility", "pt"): _Pair(("susceptibility_pt", "susceptibility_a"), lambda pt: [
        f(pt.op, pt.t, pt.fd) for f in (metrology.susceptibility_pt, metrology.susceptibility_a)], True),
    ("susceptibility", "dilation"): _Pair(("susceptibility_4d_pt", "susceptibility_4d_a"), lambda pt: [
        metrology.susceptibility_enlarged(pt.op, pt.t, pt.fd, index=i) for i in (0, 2)], True),
    ("susceptibility", "lindblad"): _Pair(
        ("susceptibility_eff",), lambda pt: (metrology.susceptibility_eff(pt.op, pt.t, pt.fd),), True),
    ("qfi_single", "pt"): _Pair(("qfi_pt",), lambda pt: (pt.report(),)),
    ("qfi_single", "dilation"): _reported({"qfi_pt": "f_suc", "qfi_a": "f_fail", "qfi_4d": "f_total"}),
    ("qfi_single", "lindblad"): _reported({"qfi_eff": "f_total", "qfi_conditioned": "f_suc"}, True),
    ("qfi_weighted", "dilation"): _reported(
        {"i_suc": "i_suc", "i_fail": "i_fail", "i_subs": "i_subs", "i_4d": "i_total"}),
    ("qfi_weighted", "lindblad"): _reported({"i_eff": "i_total"}, True),
    ("sensitivity_bound", "pt"): _Pair(
        ("delta_omega_pt",), lambda pt: (metrology._bound(pt.report(), pt.n_rep),)),
    ("sensitivity_bound", "dilation"): _reported(
        {"delta_omega_subs": "delta_omega_weighted", "delta_omega_4d": "delta_omega_total"}),
    ("sensitivity_bound", "lindblad"): _reported(
        {"delta_omega_eff": "delta_omega_weighted", "delta_omega_eff_single": "delta_omega_total"}, True),
    ("resources", "dilation"): _Pair(("xi", "zeta"), _resources),
    ("liouvillian_spectrum", "lindblad"): _Pair(
        tuple(f"liouvillian_eig_{i}" for i in range(1, 5)), _liouvillian_spectrum, time_independent=True),
}

QUANTITIES = tuple(dict.fromkeys(quantity for quantity, _ in _PAIRS))


def _check_pairs(config: SweepConfig) -> None:
    """Reject every requested pair the table lacks or the probe rules out."""
    for quantity in config.quantities:
        for scheme in config.schemes:
            pair = _PAIRS.get((quantity, scheme))
            if pair is None:
                allowed = " or ".join(s for s in SCHEMES if (quantity, s) in _PAIRS)
                raise ConfigError(f"quantity: {quantity} requires scheme {allowed}")
            if pair.plus_y_only and config.probe != "plus_y":
                raise ConfigError(f"probe: quantity {quantity!r} is defined for the plus_y probe only")


def _evaluate_point(config: SweepConfig, scheme: str, gamma_ratio: float,
                    delta_ratio: float, tau: float) -> list[RecordRow]:
    """All rows of one grid point; a quantity that fails becomes one undefined row."""
    pt = _Point(config, scheme, gamma_ratio, delta_ratio, tau)
    probe = config.probe_label()
    reachable = pt.base.kappa > 0.0 or tau == 0.0  # kappa = 0 at the exceptional point
    rows: list[RecordRow] = []
    for quantity in config.quantities:
        pair = _PAIRS[quantity, scheme]
        if pair.time_independent and tau != 0.0:
            continue
        values = None
        if reachable:
            try:
                values = pair.evaluate(pt)
            except PtsenseError:
                pass
        named = (zip(pair.rows, values, strict=True) if values is not None
                 else [(f"{quantity}_undefined", None)])
        for name, value in named:
            rows.append(RecordRow(tau, pt.t, gamma_ratio, delta_ratio, name, value, scheme, probe))
    return rows


def run(config: SweepConfig, output_path: str | None = None) -> Path:
    """Execute the sweep and write the dataset; returns the output path.

    Prints a one-line summary (row count and min/max of the finite values)
    plus the grid parameters, so preset choices are recorded alongside the
    dataset without touching the byte-stable CSV itself.
    """
    _check_pairs(config)
    path = Path(output_path if output_path is not None else config.output_path)

    taus = [config.tau_max * i / (config.tau_steps - 1) for i in range(config.tau_steps)]
    rows = [
        row
        for g in config.gamma_ratios
        for d in config.delta_ratios
        for tau in taus
        for scheme in config.schemes
        for row in _evaluate_point(config, scheme, g, d, tau)
    ]
    rows.sort(key=RecordRow.sort_key)

    try:
        if config.format == "csv":
            lines = [CSV_HEADER]
            for r in rows:
                lines.append(",".join([
                    _fmt(r.tau), _fmt(r.t), _fmt(r.gamma_ratio), _fmt(r.delta_ratio),
                    r.quantity, _fmt(r.value), r.scheme, r.probe,
                ]))
            path.write_text("\n".join(lines) + "\n")
        else:
            payload = []
            for r in rows:
                value = r.value
                if isinstance(value, complex) or value is None or not math.isfinite(float(value)):
                    value = _fmt(r.value)
                else:
                    value = float(value)
                payload.append({
                    "tau": r.tau, "t": r.t if math.isfinite(r.t) else _fmt(r.t),
                    "gamma_ratio": r.gamma_ratio, "delta_ratio": r.delta_ratio,
                    "quantity": r.quantity, "value": value,
                    "scheme": r.scheme, "probe": r.probe,
                })
            path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc

    finite = [float(r.value) for r in rows
              if isinstance(r.value, (int, float)) and math.isfinite(float(r.value))]
    lo = min(finite) if finite else math.nan
    hi = max(finite) if finite else math.nan
    print(f"wrote {path} rows={len(rows)} value_min={_fmt(lo)} value_max={_fmt(hi)}")
    print(f"grid: omega={config.omega!r} gamma_ratios={list(config.gamma_ratios)!r} "
          f"delta_ratios={list(config.delta_ratios)!r} tau_max={config.tau_max!r} "
          f"tau_steps={config.tau_steps} probe={config.probe_label()} N={config.repetitions}")
    return path


_FIGURE_PRESETS = {
    # population and post-selection dynamics of the enlarged system
    "fig2": dict(quantities=("population", "postselect_rates"), schemes=("dilation",),
                 gamma_ratios=DYNAMICS_GAMMAS),
    # dissipative three-level populations and success rate
    "fig3": dict(quantities=("population", "postselect_rates"), schemes=("lindblad",),
                 gamma_ratios=DYNAMICS_GAMMAS),
    # population response to a coupling perturbation, all three systems
    "fig4": dict(quantities=("population_shift",), schemes=("pt", "dilation", "lindblad"),
                 gamma_ratios=DYNAMICS_GAMMAS, delta_ratios=(0.001, 0.005)),
    # susceptibilities, with and without perturbation offsets
    "fig5": dict(quantities=("susceptibility",), schemes=("pt", "dilation", "lindblad"),
                 gamma_ratios=DYNAMICS_GAMMAS, delta_ratios=(0.0, 0.001, 0.005)),
    # QFI and sensitivity bounds for both schemes
    "fig6": dict(quantities=("qfi_single", "qfi_weighted", "sensitivity_bound", "postselect_rates"),
                 schemes=("dilation", "lindblad"), gamma_ratios=RESOURCE_GAMMAS),
    # information cost and sensitivity loss of post-selection
    "fig7": dict(quantities=("qfi_weighted", "resources"), schemes=("dilation",),
                 gamma_ratios=RESOURCE_GAMMAS),
}

FIGURE_NAMES = tuple(sorted(_FIGURE_PRESETS))


def figure_preset(name: str) -> SweepConfig:
    """Sweep configuration reproducing one of the standard figure datasets."""
    try:
        preset = _FIGURE_PRESETS[name]
    except KeyError:
        raise ConfigError(f"figure: unknown preset {name!r}; pick one of {', '.join(FIGURE_NAMES)}") from None
    return SweepConfig(
        omega=1.0,
        tau_max=4.0 * math.pi,
        tau_steps=129,
        probe="plus_y",
        repetitions=1,
        output_path=f"{name}.csv",
        **preset,
    )
