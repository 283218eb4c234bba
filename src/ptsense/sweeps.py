"""Parameter sweeps over (gamma/omega, tau, delta) producing flat datasets.

Which (quantity, scheme) pairs exist, the rows each writes per grid point and
how they are evaluated is one table, `_PAIRS`.  Evaluation is row-batched: each
pair evaluates a whole (scheme, gamma/omega, delta/omega) row of the tau grid
in one call of the layer functions, on stacked 2x2-4x4 states, and gets back
one value per point, equal bit for bit to those of the scalar API called
point by point.  A check fails for a whole row: a pair whose call raises a
PtsenseError (the dilation's MetricSingular at gamma/omega = 1) writes the
single row "<quantity>_undefined" at every point.  The one per-point gap is
the resource cutoff at vanishing information (metrology.resource_ratios),
written as "resources_undefined" where its mask is False.

The writer is columnar: each (gamma/omega, delta/omega) group of rows is
formatted a column (row name and scheme) at a time, on one prefix per point,
and emitted already in (gamma/omega, delta/omega, tau, quantity, scheme)
order, equal keys in config order, so reruns are byte-identical.  Floats are
written as float repr() (shortest round-trip, at most 17 significant digits);
non-finite or failed entries are the sentinels "inf"/"undefined", and complex
spectra are written like "-0.6+0.8j".  A JSON dataset is an array of objects
with the CSV's keys, in compact separators, where finite floats are numbers
and sentinels strings.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, groupby, zip_longest
from pathlib import Path

import numpy as np

from . import metrology
from .dilation import evolve_enlarged, postselect
from .errors import ConfigError, PtsenseError, WriteError
from .lindblad import analytic_rho_3l, artificial_pt, effective_evolve, liouvillian_matrix, postselect_3l
from .params import PtParams
from .pt_system import evolve_density
from .states import bloch_probe, minus_y, plus_y, pure_density

__all__ = ["SweepConfig", "run", "figure_preset", "QUANTITIES", "SCHEMES", "FIGURE_NAMES"]

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
    output_path: str | None = None  # None: <name>.<format>
    format: str = "csv"
    name: str = "sweep"

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
        for field, angle in (("probe_theta", self.probe_theta), ("probe_phi", self.probe_phi)):
            if angle is not None and not math.isfinite(angle):
                raise ConfigError(f"{field}: must be finite")
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
                    if conv is int and kwargs[dst] != float(data[src]):  # int() would truncate 3.7
                        raise ValueError(f"{data[src]!r} is not an integer")
                except (TypeError, ValueError, OverflowError) as exc:
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


def _fmt(value) -> str:
    """Dataset text of a number: float repr(), "undefined" for NaN, a complex one without parentheses."""
    if isinstance(value, complex):
        return repr(value).strip("()") if value - value == 0 else "undefined"  # finite
    return repr(float(value)) if value == value else "undefined"


class _Row:
    """One (scheme, gamma/omega, delta/omega) row of the tau grid.

    `times` holds the physical time of every tau of the grid (inf where it is
    unreachable) and `t` the array of the reachable ones, the only points
    evaluated: kappa = 0 at the exceptional point leaves tau = 0 alone, so
    `t` can be shorter than the grid; its points are the first ones.
    The scheme's QFI report is evaluated at most once per row and shared by
    every quantity that reads it; if it raised, each of those quantities
    writes its own undefined rows.
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

    @cached_property
    def report(self):
        """The pt-scheme QFI or the QfiReport of the row's scheme; None if it raised."""
        try:
            if self.scheme == "dilation":
                return metrology.weighted_qfi_scheme1(self.op, self.t, probe=self.probe, n_repetitions=self.n_rep)
            if self.scheme == "lindblad":
                return metrology.weighted_qfi_scheme2(self.op, self.t, n_repetitions=self.n_rep)
            return metrology.qfi_pt(self.op, self.t, probe=self.probe)
        except PtsenseError:
            return None


def _diagonal(m: np.ndarray, n: int) -> list[np.ndarray]:
    return [m[:, i, i].real for i in range(n)]


def _population_lindblad(row: _Row):
    pops = _diagonal(analytic_rho_3l(row.op, row.t), 3)
    eff = effective_evolve(row.probe, row.op, row.t)
    artificial = artificial_pt(row.probe, row.op, row.t)
    return pops + [eff[:, 0, 0].real, artificial[:, 0, 0].real]


def _postselect_rates_dilation(row: _Row):
    out = postselect(evolve_enlarged(row.probe, row.op, row.t))
    return [out.p_suc, out.p_fail, out.rho_pt[:, 0, 0].real, out.rho_a[:, 0, 0].real]


def _postselect_rates_lindblad(row: _Row):
    out = postselect_3l(row.op, row.t)
    return [out.p_suc, out.p_fail, out.rho_pt[:, 0, 0].real]


def _population_shift(row: _Row):
    kind = {"pt": "pt", "dilation": "enlarged", "lindblad": "eff"}[row.scheme]
    return [metrology.population_shift(kind, row.base, row.delta, row.t)]


def _liouvillian_spectrum(row: _Row):
    """The four eigenvalues, which do not depend on time (only tau = 0 is written)."""
    _, values = liouvillian_matrix(row.op)
    ordered = sorted(values, key=lambda z: (round(z.imag, 12), round(z.real, 12)))
    return [[complex(z)] * len(row.t) for z in ordered]


@dataclass(frozen=True)
class _Pair:
    """What one (quantity, scheme) pair writes at each grid point.

    `evaluate(row)` returns (columns, defined): one sequence of values per
    row name over the row's points, or None when the row's call raised, and
    a boolean mask of the points with values, or None for all of them.  A
    time-independent pair is written once, at tau = 0.
    """

    rows: tuple[str, ...]
    evaluate: object
    plus_y_only: bool = False
    time_independent: bool = False


def _batched(rows: tuple[str, ...], columns, plus_y_only: bool = False, time_independent: bool = False) -> _Pair:
    """Pair evaluated for a whole row in one call: columns(row) returns its columns."""

    def evaluate(row: _Row):
        try:
            return columns(row), None
        except PtsenseError:
            return None, None

    return _Pair(rows, evaluate, plus_y_only, time_independent)


def _from_report(rows: tuple[str, ...], read, plus_y_only: bool = False) -> _Pair:
    """Pair whose (columns, defined) read(report, row) takes from the row's shared report."""
    return _Pair(rows, lambda row: (None, None) if row.report is None else read(row.report, row), plus_y_only)


def _reported(fields: dict[str, str], plus_y_only: bool = False) -> _Pair:
    """Pair whose rows, keyed by row name, are fields of the row's shared report."""
    return _from_report(tuple(fields), lambda report, row: ([getattr(report, f) for f in fields.values()], None),
                        plus_y_only)


def _resources(report, row: _Row):
    xi, zeta, defined = metrology.resource_ratios(report, row.t)
    return [xi, zeta], defined


_POP = ("population_1", "population_2", "population_3", "population_4")

#: Every valid (quantity, scheme) pair: its row names, its evaluator and, as True, whether it needs
#: the plus_y probe.  A pair missing here is rejected.  Evaluators look ptsense functions up when they run.
_PAIRS = {
    ("population", "pt"): _batched(_POP[:2], lambda row: _diagonal(
        evolve_density(pure_density(row.probe), row.op, row.t), 2)),
    ("population", "dilation"): _batched(_POP, lambda row: _diagonal(
        evolve_enlarged(row.probe, row.op, row.t), 4)),
    ("population", "lindblad"): _batched(
        _POP[:3] + ("population_eff_1", "population_artificial_1"), _population_lindblad, True),
    ("postselect_rates", "dilation"): _batched(
        ("p_suc", "p_fail", "rho_pt_11", "rho_a_11"), _postselect_rates_dilation),
    ("postselect_rates", "lindblad"): _batched(
        ("p_suc", "p_fail", "rho_pt_11"), _postselect_rates_lindblad, True),
    ("population_shift", "pt"): _batched(("population_shift_1",), _population_shift, True),
    ("population_shift", "dilation"): _batched(("population_shift_1",), _population_shift, True),
    ("population_shift", "lindblad"): _batched(("population_shift_1",), _population_shift, True),
    ("susceptibility", "pt"): _batched(("susceptibility_pt", "susceptibility_a"), lambda row: [
        f(row.op, row.t) for f in (metrology.susceptibility_pt, metrology.susceptibility_a)], True),
    ("susceptibility", "dilation"): _batched(("susceptibility_4d_pt", "susceptibility_4d_a"), lambda row: list(
        np.moveaxis(metrology.susceptibility_enlarged(row.op, row.t, index=(0, 2)), -1, 0)), True),
    ("susceptibility", "lindblad"): _batched(("susceptibility_eff",), lambda row: [
        metrology.susceptibility_eff(row.op, row.t)], True),
    ("qfi_single", "pt"): _from_report(("qfi_pt",), lambda qfi, row: ([qfi], None)),
    ("qfi_single", "dilation"): _reported({"qfi_pt": "f_suc", "qfi_a": "f_fail", "qfi_4d": "f_total"}),
    ("qfi_single", "lindblad"): _reported({"qfi_eff": "f_total", "qfi_conditioned": "f_suc"}, True),
    ("qfi_weighted", "dilation"): _reported(
        {"i_suc": "i_suc", "i_fail": "i_fail", "i_subs": "i_subs", "i_4d": "i_total"}),
    ("qfi_weighted", "lindblad"): _reported({"i_eff": "i_total"}, True),
    ("sensitivity_bound", "pt"): _from_report(
        ("delta_omega_pt",), lambda qfi, row: ([metrology._bound(qfi, row.n_rep)], None)),
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


def _column(column, keep: list[bool], prefixes: list[str], head: str, end: str, quote) -> tuple[list, list]:
    """The lines and finite values of one row name at the first len(column) points of the tau grid.

    A finite float is written as its repr(), any other entry (complex, inf, NaN) as its quoted _fmt
    text with no value; a point where `keep` is False has neither.
    """
    array = np.asarray(column)
    values = [v if k else None for v, k in zip(array.tolist(), keep)]  # python floats, or complex
    lines = [f"{p}{head}{v!r}{end}" if v is not None else None for p, v in zip(prefixes, values)]
    for i in np.flatnonzero(np.iscomplexobj(array) | ~np.isfinite(array)).tolist():
        if values[i] is not None:
            lines[i], values[i] = f"{prefixes[i]}{head}{quote(_fmt(values[i]))}{end}", None
    return lines, values


def _columns(config: SweepConfig, gamma_ratio: float, delta_ratio: float, taus: list[float],
             tau_texts: list[str]) -> list[tuple]:
    """The columns (row name, scheme, lines, values) of one (gamma, delta) entry of the config, every
    scheme: the line and the finite value of the name at each tau, None where it has none, in tau
    order; a column may end early.  A quantity undefined at a point has one "<quantity>_undefined"
    line there.  The (tau, t, gamma, delta) prefix of each point is formatted once.
    """
    rows = [_Row(config, scheme, gamma_ratio, delta_ratio, taus) for scheme in config.schemes]
    t_texts = map(_fmt, rows[0].times)  # the times depend on gamma/omega alone
    if config.format == "json":
        quote = json.dumps  # escapes strings; writes an int gamma as an int
        grid = f'"gamma_ratio":{quote(gamma_ratio)},"delta_ratio":{quote(delta_ratio)},"quantity":'
        prefixes = [f'{{"tau":{tau},"t":{quote(t) if t == "inf" else t},{grid}' for tau, t in zip(tau_texts, t_texts)]
        middle, suffix = ',"value":', ',"scheme":{},"probe":{}}}'
    else:
        quote = str
        grid = f"{_fmt(gamma_ratio)},{_fmt(delta_ratio)},"
        prefixes = [f"{tau},{t},{grid}" for tau, t in zip(tau_texts, t_texts)]
        middle, suffix = ",", ",{},{}"
    out = []
    for row in rows:
        end = suffix.format(quote(row.scheme), quote(config.probe_label()))
        for quantity in config.quantities:
            pair = _PAIRS[quantity, row.scheme]
            columns, mask = pair.evaluate(row)
            defined = [] if columns is None else [True] * len(row.t) if mask is None else mask.tolist()
            written = [tau == 0.0 or not pair.time_independent for tau in taus]
            keep = [w and d for w, d in zip(written, defined)]
            for name, column in zip(pair.rows, columns, strict=True) if any(keep) else ():
                out.append((name, row.scheme, *_column(column, keep, prefixes, quote(name) + middle, end, quote)))
            failed = [w and not d for w, d in zip_longest(written, defined)]
            if any(failed):  # NaN is written as "undefined"
                name, nan = quantity + "_undefined", [math.nan] * len(failed)
                out.append((name, row.scheme, *_column(nan, failed, prefixes, quote(name) + middle, end, quote)))
    return out


def run(config: SweepConfig, output_path: str | None = None) -> Path:
    """Execute the sweep and write the dataset; returns the output path.

    Prints a one-line summary (row count and min/max of the finite values)
    plus the grid parameters, so preset choices are recorded alongside the
    dataset without touching the byte-stable dataset itself.
    """
    _check_pairs(config)
    path = Path(output_path or config.output_path or f"{config.name}.{config.format}")

    taus = [config.tau_max * i / (config.tau_steps - 1) for i in range(config.tau_steps)]
    tau_texts = [_fmt(tau) for tau in taus]
    groups: dict[tuple, list] = {}  # equal (gamma, delta) values share a group: 0 and 0.0 keep their own text
    for g in config.gamma_ratios:
        for d in config.delta_ratios:
            groups.setdefault((g, d), []).extend(_columns(config, g, d, taus, tau_texts))
    sizes = [len(list(equal)) for _, equal in groupby(taus)]
    repeats = [(end - size, end) for size, end in zip(sizes, accumulate(sizes)) if size > 1]
    texts, values = [], []
    for key in sorted(groups):
        columns = sorted(groups[key], key=operator.itemgetter(0, 1))  # stable: equal names keep config order
        width = len(columns)
        for out, field in ((texts, 2), (values, 3)):
            flat = list(chain.from_iterable(zip_longest(*(column[field] for column in columns))))
            for a, b in repeats:  # equal taus (a subnormal tau_max): their lines go column by column
                block = flat[a * width:b * width]
                flat[a * width:b * width] = [x for c in range(width) for x in block[c::width]]
            out += flat
    texts = list(filter(None, texts))
    head, sep, tail = (CSV_HEADER + "\n", "\n", "\n") if config.format == "csv" else ("[", ",", "]\n")
    try:
        with path.open("w") as handle:  # three writes, so the joined lines are not copied again
            handle.write(head)
            handle.write(sep.join(texts))
            handle.write(tail)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc

    finite = [v for v in values if v is not None]  # in row order, which picks -0.0 or 0.0
    lo = min(finite) if finite else math.nan
    hi = max(finite) if finite else math.nan
    print(f"wrote {path} rows={len(texts)} value_min={_fmt(lo)} value_max={_fmt(hi)}")
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
        name=name,
        **preset,
    )
