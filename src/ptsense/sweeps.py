"""Parameter sweeps over (gamma/omega, tau, delta) producing flat datasets.

Which (quantity, scheme) pairs exist, the rows each writes per grid point and
how they are evaluated is one table, `_PAIRS`.  Evaluation is row-batched: each
pair evaluates a whole (scheme, gamma/omega, delta/omega) row of the tau grid
in one call of the layer functions, on stacked 2x2-4x4 states, and gets back
one value per point plus the typed error of each point that failed
(states.PointErrors).  The values equal, bit for bit, those of the scalar API
called point by point.  Rows are sorted before writing, so reruns are
byte-identical.
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
from .errors import ConfigError, WriteError
from .lindblad import analytic_rho_3l, artificial_pt, effective_evolve, liouvillian_matrix, postselect_3l
from .params import PtParams
from .pt_system import evolve_density
from .states import PointErrors, bloch_probe, minus_y, plus_y, pure_density

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
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format: unknown value {self.format!r}")

    @staticmethod
    def from_mapping(data: dict) -> "SweepConfig":
        """Build from a flat key-value document (the JSON config format)."""
        known = {
            "quantity", "scheme", "omega", "gamma_list", "delta_list", "tau_max",
            "tau_steps", "probe", "probe_theta", "probe_phi", "N", "output_path",
            "format",
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
            ("N", "repetitions", int),
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


class _Row:
    """One (scheme, gamma/omega, delta/omega) row of the tau grid.

    `times` holds the physical time of every tau of the grid (inf where it is
    unreachable) and `t` the array of the reachable ones, the only points
    evaluated: kappa = 0 at the exceptional point leaves tau = 0 alone, so
    `t` can be shorter than the grid; its points are the first ones.
    The scheme's QFI report is evaluated at most once per row and shared,
    with the error of each point it failed at, by every quantity that reads
    it, so each of those quantities still writes its own undefined rows.
    """

    def __init__(self, config: SweepConfig, scheme: str, gamma_ratio: float,
                 delta_ratio: float, taus: list[float]) -> None:
        omega = config.omega
        self.scheme = scheme
        self.base = PtParams(omega=omega, gamma=gamma_ratio * omega)
        self.delta = delta_ratio * omega
        self.op = PtParams(omega=omega + self.delta, gamma=self.base.gamma)  # operating point
        kappa = self.base.kappa
        self.times = [tau / kappa if kappa > 0.0 else (0.0 if tau == 0.0 else math.inf) for tau in taus]
        self.t = np.array([t for tau, t in zip(taus, self.times) if kappa > 0.0 or tau == 0.0])
        self.probe = config.probe_vector()
        self.n_rep = config.repetitions
        self._report = None

    def errors(self) -> PointErrors:
        return PointErrors(len(self.t))

    def report(self):
        """(the pt-scheme QFI or the QfiReport of the row's scheme, its PointErrors)."""
        if self._report is None:
            errors = self.errors()
            if self.scheme == "dilation":
                value = errors.run(metrology.weighted_qfi_scheme1, self.op, self.t,
                                   probe=self.probe, n_repetitions=self.n_rep)
            elif self.scheme == "lindblad":
                value = errors.run(metrology.weighted_qfi_scheme2, self.op, self.t, n_repetitions=self.n_rep)
            else:
                value = errors.run(metrology.qfi_pt, self.op, self.t, probe=self.probe)
            self._report = value, errors
        return self._report


def _diagonal(m: np.ndarray, n: int) -> list[np.ndarray]:
    return [m[:, i, i].real for i in range(n)]


def _population_lindblad(row: _Row, errors: PointErrors):
    pops = _diagonal(analytic_rho_3l(row.op, row.t, errors), 3)
    eff = effective_evolve(row.probe, row.op, row.t, errors)
    # e^{gamma t} overflows beyond gamma t = 700: no artificial population there
    amplified = np.flatnonzero(row.op.gamma * row.t <= 700.0)
    artificial = np.full(len(row.t), None, dtype=object)
    if len(amplified):
        part = PointErrors(len(amplified))
        m = artificial_pt(row.op, row.t[amplified], eff[amplified], part)
        artificial[amplified] = [float(v) for v in m[:, 0, 0].real]
        errors.merge(amplified, part)
    return pops + [eff[:, 0, 0].real, artificial]


def _postselect_rates_dilation(row: _Row, errors: PointErrors):
    out = postselect(evolve_enlarged(row.probe, row.op, row.t, errors), errors)
    return [out.p_suc, out.p_fail, out.rho_pt[:, 0, 0].real, out.rho_a[:, 0, 0].real]


def _postselect_rates_lindblad(row: _Row, errors: PointErrors):
    out = postselect_3l(analytic_rho_3l(row.op, row.t, errors), errors)
    return [out.p_suc, out.p_fail, out.rho_pt[:, 0, 0].real]


def _population_shift(row: _Row, errors: PointErrors):
    kind = {"pt": "pt", "dilation": "enlarged", "lindblad": "eff"}[row.scheme]
    return [metrology.population_shift(kind, row.base, row.delta, row.t, errors)]


def _liouvillian_spectrum(row: _Row, errors: PointErrors):
    """The four eigenvalues, which do not depend on time (only tau = 0 is written)."""
    _, values = liouvillian_matrix(row.op)
    ordered = sorted(values, key=lambda z: (round(z.imag, 12), round(z.real, 12)))
    return [[complex(z)] * len(row.t) for z in ordered]


@dataclass(frozen=True)
class _Pair:
    """What one (quantity, scheme) pair writes at each grid point.

    `evaluate(row)` returns (columns, errors): one sequence of values per row
    name over the row's points (None for an undefined entry; no columns at
    all when every point failed) and the PointErrors of those points.  A
    time-independent pair is written once, at tau = 0.
    """

    rows: tuple[str, ...]
    evaluate: object
    plus_y_only: bool = False
    time_independent: bool = False


def _batched(rows: tuple[str, ...], columns, plus_y_only: bool = False, time_independent: bool = False) -> _Pair:
    """Pair evaluated for a whole row in one call: columns(row, errors) returns its columns."""

    def evaluate(row: _Row):
        errors = row.errors()
        return errors.run(columns, row), errors

    return _Pair(rows, evaluate, plus_y_only, time_independent)


def _from_report(rows: tuple[str, ...], read, plus_y_only: bool = False) -> _Pair:
    """Pair whose columns read(report, row, errors) takes from the row's shared report."""

    def evaluate(row: _Row):
        report, shared = row.report()
        errors = shared.copy()
        return (None if report is None else errors.run(read, report, row)), errors

    return _Pair(rows, evaluate, plus_y_only)


def _reported(fields: dict[str, str], plus_y_only: bool = False) -> _Pair:
    """Pair whose rows, keyed by row name, are fields of the row's shared report."""
    return _from_report(tuple(fields), lambda report, row, errors: [getattr(report, f) for f in fields.values()],
                        plus_y_only)


def _resources(report, row: _Row, errors: PointErrors):
    metrics = metrology.resource_report(report, row.t, errors)
    return [metrics.xi, metrics.zeta]


_POP = ("population_1", "population_2", "population_3", "population_4")

#: Every valid (quantity, scheme) pair: its row names, its evaluator and, as True, whether it needs
#: the plus_y probe.  A pair missing here is rejected.  Evaluators look ptsense functions up when they run.
_PAIRS = {
    ("population", "pt"): _batched(_POP[:2], lambda row, errors: _diagonal(
        evolve_density(pure_density(row.probe), row.op, row.t, errors), 2)),
    ("population", "dilation"): _batched(_POP, lambda row, errors: _diagonal(
        evolve_enlarged(row.probe, row.op, row.t, errors), 4)),
    ("population", "lindblad"): _batched(
        _POP[:3] + ("population_eff_1", "population_artificial_1"), _population_lindblad, True),
    ("postselect_rates", "dilation"): _batched(
        ("p_suc", "p_fail", "rho_pt_11", "rho_a_11"), _postselect_rates_dilation),
    ("postselect_rates", "lindblad"): _batched(
        ("p_suc", "p_fail", "rho_pt_11"), _postselect_rates_lindblad, True),
    ("population_shift", "pt"): _batched(("population_shift_1",), _population_shift, True),
    ("population_shift", "dilation"): _batched(("population_shift_1",), _population_shift, True),
    ("population_shift", "lindblad"): _batched(("population_shift_1",), _population_shift, True),
    ("susceptibility", "pt"): _batched(("susceptibility_pt", "susceptibility_a"), lambda row, errors: [
        f(row.op, row.t, errors=errors) for f in (metrology.susceptibility_pt, metrology.susceptibility_a)],
        True),
    ("susceptibility", "dilation"): _batched(("susceptibility_4d_pt", "susceptibility_4d_a"), lambda row, errors: list(
        np.moveaxis(metrology.susceptibility_enlarged(row.op, row.t, index=(0, 2), errors=errors), -1, 0)),
        True),
    ("susceptibility", "lindblad"): _batched(("susceptibility_eff",), lambda row, errors: [
        metrology.susceptibility_eff(row.op, row.t, errors=errors)], True),
    ("qfi_single", "pt"): _from_report(("qfi_pt",), lambda qfi, row, errors: [qfi]),
    ("qfi_single", "dilation"): _reported({"qfi_pt": "f_suc", "qfi_a": "f_fail", "qfi_4d": "f_total"}),
    ("qfi_single", "lindblad"): _reported({"qfi_eff": "f_total", "qfi_conditioned": "f_suc"}, True),
    ("qfi_weighted", "dilation"): _reported(
        {"i_suc": "i_suc", "i_fail": "i_fail", "i_subs": "i_subs", "i_4d": "i_total"}),
    ("qfi_weighted", "lindblad"): _reported({"i_eff": "i_total"}, True),
    ("sensitivity_bound", "pt"): _from_report(
        ("delta_omega_pt",), lambda qfi, row, errors: [metrology._bound(qfi, row.n_rep)]),
    ("sensitivity_bound", "dilation"): _reported(
        {"delta_omega_subs": "delta_omega_weighted", "delta_omega_4d": "delta_omega_total"}),
    ("sensitivity_bound", "lindblad"): _reported(
        {"delta_omega_eff": "delta_omega_weighted", "delta_omega_eff_single": "delta_omega_total"}, True),
    ("resources", "dilation"): _from_report(("xi", "zeta"), _resources),
    ("liouvillian_spectrum", "lindblad"): _batched(
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


def _evaluate_row(config: SweepConfig, scheme: str, gamma_ratio: float,
                  delta_ratio: float, taus: list[float]) -> list[RecordRow]:
    """All rows of one (scheme, gamma, delta) row of the tau grid; a quantity
    that fails at a point becomes one undefined row there."""
    row = _Row(config, scheme, gamma_ratio, delta_ratio, taus)
    probe = config.probe_label()
    records: list[RecordRow] = []
    for quantity in config.quantities:
        pair = _PAIRS[quantity, scheme]
        columns, errors = pair.evaluate(row)
        for i, (tau, t) in enumerate(zip(taus, row.times)):
            if pair.time_independent and tau != 0.0:
                continue
            if i < len(row.t) and errors.errors[i] is None:
                named = [(name, column[i]) for name, column in zip(pair.rows, columns, strict=True)]
            else:
                named = [(f"{quantity}_undefined", None)]
            for name, value in named:
                records.append(RecordRow(tau, t, gamma_ratio, delta_ratio, name, value, scheme, probe))
    return records


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
        record
        for g in config.gamma_ratios
        for d in config.delta_ratios
        for scheme in config.schemes
        for record in _evaluate_row(config, scheme, g, d, taus)
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
