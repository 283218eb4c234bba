"""Parameter sweeps over (gamma/omega, tau, delta) producing flat datasets.

Which (quantity, scheme) pairs exist, the rows each writes per grid point and
how they are evaluated is one table, `_PAIRS`.  Each (gamma/omega,
delta/omega) entry of the config has one _State, which every scheme and
quantity reads: the PT family v = U_pt psi0 over the entry's tau row and its
exact omega-tangent, and the parts built from them on first use by the
kernels of the scalar API.  Each pair is a closed-form read of the state with
one value per point.  A check fails for a whole row: a pair whose read raises
a PtsenseError (the dilation's MetricSingular at gamma/omega = 1) writes the
single row "<quantity>_undefined" at every point, as does a pair at the
points of the tau grid that the entry cannot reach (t = inf at the
exceptional point).

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

from .dilation import _branches, metric_operator
from .errors import ConfigError, PtsenseError, WriteError
from .linalg import _abs2
from .lindblad import _decayed, _survival, liouvillian_matrix
from .metrology import (
    _bound, _budget, _channel, _eff_slope, _enlarged_slope, _fail_family, _level1, _population_slope, _pt_family, _qfi,
    _resources, _scheme1, _scheme2,
)
from .params import PtParams
from .pt_system import _direction
from .states import bloch_probe, minus_y, plus_y

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
        for field, values, known in (("quantity", self.quantities, QUANTITIES), ("scheme", self.schemes, SCHEMES)):
            for value in values:
                if value not in known:
                    raise ConfigError(f"{field}: unknown value {value!r}")
            if not values:
                raise ConfigError(f"{field}: at least one required")
            if len(set(values)) < len(values):  # a repeat would only write every line again
                raise ConfigError(f"{field}: repeated value")
        for field, value in (("tau_steps", self.tau_steps), ("N", self.repetitions)):
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{field}: {value!r} is not an integer")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ConfigError("omega: must be positive")
        if not self.gamma_ratios:
            raise ConfigError("gamma_list: at least one ratio required")
        for g in self.gamma_ratios:
            if not (0.0 <= g <= 1.0):
                raise ConfigError(f"gamma_list: ratio {g!r} outside [0, 1]")
        if not self.delta_ratios:
            raise ConfigError("delta_list: at least one ratio required")
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


class _State:
    """The one state of a (gamma/omega, delta/omega) entry of the config, which every pair reads.

    It holds the PT family v = U_pt(omega + delta) psi0 at the reachable times t and, when a
    requested quantity reads it, the exact tangent dv, from one propagator build; each other part
    is built from them on first use, by the kernels (and checks) of the scalar API.  A part that
    raises (the metric at gamma/omega = 1) raises at each read.  `base` is the state at delta = 0 of
    the entry's gamma, which the population shifts subtract: the state itself at delta = 0.
    """

    def __init__(self, config: SweepConfig, gamma_ratio: float, delta_ratio: float, t, tangent: bool, base) -> None:
        self.config, self.gamma_ratio, self.t, self.tangent = config, gamma_ratio, t, tangent
        self.delta = delta_ratio * config.omega
        self.base = self if self.delta == 0.0 else base
        self.p = PtParams(omega=config.omega + self.delta, gamma=gamma_ratio * config.omega)
        self.probe = config.probe_vector()

    @cached_property
    def family(self):  # (v, dv), with dv None unless a requested quantity reads it
        return _pt_family(self.p, self.t, self.probe, self.tangent)

    @cached_property
    def unit(self):  # (v/|v|, dv/|v|)
        return _direction(*self.family)

    @cached_property
    def eta(self):
        return metric_operator(self.p)

    @cached_property
    def fail(self):  # (eta v, d(eta v)), the susceptibilities' failure family
        return _fail_family(self.p, self.eta, *self.family)

    @cached_property
    def branches(self):  # (|a_i|^2, p_suc, p_fail) of the enlarged state
        return _branches(self.unit[0], self.eta)

    @cached_property
    def decayed(self):  # (e^{-gamma t/2} v, p_suc) of the three-level state
        return _decayed(self.p, self.t, self.family[0])

    @cached_property
    def channel(self):  # (U_4d psi4_0, its tangent, the tangent's t -> 0 limit over t)
        return _channel(self.p, self.t, self.probe, self.eta)

    @cached_property
    def scheme1(self):
        return _scheme1(*self.branches[1:], self.channel, self.config.repetitions)

    @cached_property
    def scheme2(self):
        return _scheme2(self.p, self.t, self.unit, self.decayed[1], self.config.repetitions)

    @cached_property
    def level1(self):  # population_shift's level-1 population of v/|v|
        return _level1("pt", self.p, self.unit[0])

    def shift(self, level1) -> list:
        """The population_shift column of the level-1 population level1(state)."""
        base = level1(self.base)
        return [np.zeros_like(base) if self.delta == 0.0 else level1(self) - base]


def _populations_3l(s: _State):
    """|phi_i|^2, the sink's 1 - p_suc, and the level-1 populations of the effective state
    (|phi_1|^2, trace p_suc, checked as effective_evolve checks it) and of the amplified one (|v_1|^2)."""
    phi, p_suc = s.decayed
    pops = _abs2(phi)
    return [pops[:, 0], pops[:, 1], 1.0 - _survival(p_suc), pops[:, 0], _abs2(s.family[0])[:, 0]]


def _rates_dilation(s: _State):
    """p_suc, p_fail and rho_pt_11, rho_a_11 as postselect divides them: by a reciprocal."""
    pops, p_suc, p_fail = s.branches
    return [p_suc, p_fail, pops[:, 0] * (1.0 / p_suc), pops[:, 2] * (1.0 / p_fail)]


def _resources_dilation(s: _State):
    """xi and zeta of the channel's budget, after the rate checks that resource_metrics runs too."""
    _ = s.branches
    return list(_resources(*_budget(s.channel)))


def _liouvillian_spectrum(s: _State):
    """The four eigenvalues, which do not depend on time (only tau = 0 is written)."""
    _, values = liouvillian_matrix(s.p)
    ordered = sorted(values, key=lambda z: (round(z.imag, 12), round(z.real, 12)))
    return [[complex(z)] * len(s.t) for z in ordered]


@dataclass(frozen=True)
class _Pair:
    """What one (quantity, scheme) pair writes at each grid point.

    `evaluate(state)` returns one sequence of values per row name over the
    state's points; if it raises a PtsenseError the pair is undefined at every
    point.  A time-independent pair is written once, at tau = 0.
    """

    rows: tuple[str, ...]
    evaluate: object
    plus_y_only: bool = False
    time_independent: bool = False


def _fields(report: str, fields: dict[str, str], plus_y_only: bool = False) -> _Pair:
    """Pair whose rows, keyed by row name, are fields of the state's report ("scheme1" or "scheme2")."""
    return _Pair(tuple(fields), lambda s: [getattr(getattr(s, report), f) for f in fields.values()], plus_y_only)


_POP = ("population_1", "population_2", "population_3", "population_4")
_SHIFT = ("population_shift_1",)

#: Every valid (quantity, scheme) pair: its row names, its evaluator and, as True, whether it needs
#: the plus_y probe.  A pair missing here is rejected.  Each evaluator reads the entry's _State.
_PAIRS = {
    ("population", "pt"): _Pair(_POP[:2], lambda s: list(_abs2(s.unit[0]).T)),
    ("population", "dilation"): _Pair(_POP, lambda s: list(s.branches[0].T)),
    ("population", "lindblad"): _Pair(
        _POP[:3] + ("population_eff_1", "population_artificial_1"), _populations_3l, True),
    ("postselect_rates", "dilation"): _Pair(("p_suc", "p_fail", "rho_pt_11", "rho_a_11"), _rates_dilation),
    ("postselect_rates", "lindblad"): _Pair(("p_suc", "p_fail", "rho_pt_11"), lambda s: [
        s.decayed[1], 1.0 - s.decayed[1], _abs2(s.unit[0])[:, 0]], True),
    ("population_shift", "pt"): _Pair(_SHIFT, lambda s: s.shift(lambda x: x.level1), True),
    ("population_shift", "dilation"): _Pair(_SHIFT, lambda s: s.shift(lambda x: x.branches[0][:, 0]), True),
    ("population_shift", "lindblad"): _Pair(_SHIFT, lambda s: s.shift(lambda x: x.level1), True),
    ("susceptibility", "pt"): _Pair(("susceptibility_pt", "susceptibility_a"), lambda s: [
        _population_slope(*s.family, 0), _population_slope(*s.fail, 0)], True),
    ("susceptibility", "dilation"): _Pair(("susceptibility_4d_pt", "susceptibility_4d_a"), lambda s: list(
        _enlarged_slope(*s.family, *s.fail, (0, 2)).T), True),
    ("susceptibility", "lindblad"): _Pair(("susceptibility_eff",), lambda s: [
        _eff_slope(s.p, s.t, *s.family)], True),
    ("qfi_single", "pt"): _Pair(("qfi_pt",), lambda s: [_qfi(*s.unit)]),
    ("qfi_single", "dilation"): _fields("scheme1", {"qfi_pt": "f_suc", "qfi_a": "f_fail", "qfi_4d": "f_total"}),
    ("qfi_single", "lindblad"): _fields("scheme2", {"qfi_eff": "f_total", "qfi_conditioned": "f_suc"}, True),
    ("qfi_weighted", "dilation"): _fields(
        "scheme1", {"i_suc": "i_suc", "i_fail": "i_fail", "i_subs": "i_subs", "i_4d": "i_total"}),
    ("qfi_weighted", "lindblad"): _fields("scheme2", {"i_eff": "i_total"}, True),
    ("sensitivity_bound", "pt"): _Pair(("delta_omega_pt",), lambda s: [
        _bound(_qfi(*s.unit), s.config.repetitions)]),
    ("sensitivity_bound", "dilation"): _fields(
        "scheme1", {"delta_omega_subs": "delta_omega_weighted", "delta_omega_4d": "delta_omega_total"}),
    ("sensitivity_bound", "lindblad"): _fields(
        "scheme2", {"delta_omega_eff": "delta_omega_weighted", "delta_omega_eff_single": "delta_omega_total"}, True),
    ("resources", "dilation"): _Pair(("xi", "zeta"), _resources_dilation),
    ("liouvillian_spectrum", "lindblad"): _Pair(
        tuple(f"liouvillian_eig_{i}" for i in range(1, 5)), _liouvillian_spectrum, time_independent=True),
}

#: Quantities that read no omega-tangent: a config of these alone builds the family without dv.
_NO_TANGENT = frozenset({"population", "postselect_rates", "population_shift", "liouvillian_spectrum"})

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


def _columns(config: SweepConfig, state: _State, delta_ratio: float, taus: list[float],
             texts: list[tuple[str, str]]) -> list[tuple]:
    """The columns (row name, scheme, lines, values) of one (gamma, delta) entry of the config, every
    scheme: the line and the finite value of the name at each tau, None where it has none, in tau
    order; a column may end early.  A pair that raised, or a point past the entry's reachable times,
    has one "<quantity>_undefined" line there.  The prefix of each point, from its (tau, t) texts,
    is formatted once.
    """
    gamma_ratio = state.gamma_ratio
    if config.format == "json":
        quote = json.dumps  # escapes strings; writes an int gamma as an int
        grid = f'"gamma_ratio":{quote(gamma_ratio)},"delta_ratio":{quote(delta_ratio)},"quantity":'
        prefixes = [f'{{"tau":{tau},"t":{quote(t) if t == "inf" else t},{grid}' for tau, t in texts]
        middle, suffix = ',"value":', ',"scheme":{},"probe":{}}}'
    else:
        quote = str
        grid = f"{_fmt(gamma_ratio)},{_fmt(delta_ratio)},"
        prefixes = [f"{tau},{t},{grid}" for tau, t in texts]
        middle, suffix = ",", ",{},{}"
    out = []
    for scheme in config.schemes:
        end = suffix.format(quote(scheme), quote(config.probe_label()))
        for quantity in config.quantities:
            pair = _PAIRS[quantity, scheme]
            try:
                columns, reached = pair.evaluate(state), len(state.t)
            except PtsenseError:
                columns, reached = None, 0
            written = [tau == 0.0 or not pair.time_independent for tau in taus]
            keep, failed = written[:reached], [False] * reached + written[reached:]
            for name, column in zip(pair.rows, columns, strict=True) if any(keep) else ():
                out.append((name, scheme, *_column(column, keep, prefixes, quote(name) + middle, end, quote)))
            if any(failed):  # NaN is written as "undefined"
                name, nan = quantity + "_undefined", [math.nan] * len(failed)
                out.append((name, scheme, *_column(nan, failed, prefixes, quote(name) + middle, end, quote)))
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
    tangent = not _NO_TANGENT.issuperset(config.quantities)
    groups: dict[tuple, list] = {}  # equal (gamma, delta) values share a group: 0 and 0.0 keep their own text
    for g in config.gamma_ratios:
        # t, the reachable times: kappa = 0 at the exceptional point leaves tau = 0 alone
        kappa = PtParams(omega=config.omega, gamma=g * config.omega).kappa
        times = [tau / kappa if kappa > 0.0 else (0.0 if tau == 0.0 else math.inf) for tau in taus]
        t = np.array([time for tau, time in zip(taus, times) if kappa > 0.0 or tau == 0.0])
        texts = list(zip(tau_texts, map(_fmt, times)))
        # one delta = 0 family per gamma, built on first read; a delta = 0 entry of the config is that family
        zero = [d * config.omega == 0.0 for d in config.delta_ratios]
        base = _State(config, g, 0.0, t, tangent and any(zero), None)
        for d, is_zero in zip(config.delta_ratios, zero):
            state = base if is_zero else _State(config, g, d, t, tangent, base)
            groups.setdefault((g, d), []).extend(_columns(config, state, d, taus, texts))
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
