"""Parameter sweeps over (gamma/omega, tau, delta) producing flat datasets.

Which (quantity, scheme) pairs exist, the rows each writes per grid point and
how they are evaluated is one table, `_PAIRS`.  A sweep has one state
(_Stack), which every scheme and quantity reads: its row holds the reachable
times of every (gamma/omega, delta/omega) entry of the config one after
another, at per-point parameters, each entry a slice.  Its parts are the PT
family v = U_pt psi0, its exact omega-tangent, and what the kernels of the
scalar API build from them on first use.  Each pair is one closed-form read
of the stack.  A check fails for a whole entry: if the stack raises a
PtsenseError (the dilation's MetricSingular at gamma/omega = 1), the pair is
read again entry by entry, and an entry that raises again writes the single
row "<quantity>_undefined" at every point, as does a pair at the points of
the tau grid that an entry cannot reach (t = inf at the exceptional point).

The writer is columnar: each row name is formatted once over the stack, on
one prefix per point, and cut into (gamma/omega, delta/omega) groups emitted
in (gamma/omega, delta/omega, tau, quantity, scheme) order, equal keys in
config order, so reruns are byte-identical.  Floats are written as float
repr() (shortest round-trip, at most 17 significant digits); non-finite or
failed entries are the sentinels "inf"/"undefined", and complex spectra are
written like "-0.6+0.8j".  A JSON dataset is an array of objects with the
CSV's keys, in compact separators, where finite floats are numbers and
sentinels strings.
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

from .errors import ConfigError, PtsenseError, WriteError
from .linalg import _abs2
from .lindblad import _survival, liouvillian_matrix
from .metrology import _State, _bound, _budget, _eff_slope, _enlarged_slope, _population_slope, _qfi, _resources
from .params import PointParams, PtParams
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


class _Entry:
    """A (gamma/omega, delta/omega) entry of the config: its reachable times t, the text of each point of its tau
    grid up to the quantity, and `base`, the entry at delta = 0 of its gamma that the population shifts subtract."""

    def __init__(self, config: SweepConfig, gamma_ratio: float, delta_ratio: float, t, texts) -> None:
        self.gamma_ratio, self.delta_ratio, self.delta = gamma_ratio, delta_ratio, delta_ratio * config.omega
        self.p, self.t, self.base = PtParams(omega=config.omega + self.delta, gamma=gamma_ratio * config.omega), t, None
        if config.format == "json":  # json.dumps writes an int gamma as an int
            grid = f'"gamma_ratio":{json.dumps(gamma_ratio)},"delta_ratio":{json.dumps(delta_ratio)},"quantity":'
            self.prefixes = [f'{{"tau":{tau},"t":{json.dumps(x) if x == "inf" else x},{grid}' for tau, x in texts]
        else:
            grid = f"{_fmt(gamma_ratio)},{_fmt(delta_ratio)},"
            self.prefixes = [f"{tau},{x},{grid}" for tau, x in texts]


class _Stack(_State):
    """The state (metrology._State) of entries stacked on one row, which every pair reads: their reachable times
    one after another, at per-point parameters (params.PointParams; one entry's own PtParams), so an entry e
    is the slice at[id(e)] of every part.  `bases` holds the population shifts' bases that are not among the
    entries, as a state of their own built without the tangent, whose slices follow the entries'."""

    def __init__(self, config: SweepConfig, entries: list, tangent: bool, bases: list) -> None:
        sizes = [len(e.t) for e in entries + bases]
        p = entries[0].p if len(entries) == 1 else PointParams([e.p for e in entries], sizes[:len(entries)])
        super().__init__(p, np.concatenate([e.t for e in entries]), config.probe_vector(), tangent, config.repetitions)
        self.config, self.entries, self.bases = config, entries, _Stack(config, bases, False, []) if bases else None
        start = [0, *accumulate(sizes)]
        self.at = {id(e): slice(a, b) for e, a, b in zip(entries + bases, start, start[1:])}  # in entries + bases

    @cached_property
    def alone(self) -> list:
        """A state of each entry on its own (with its shift base), shared by the pairs that raise on the stack."""
        return [_Stack(self.config, [e], self.tangent, [e.base] if e.delta and e.base else []) for e in self.entries]

    def shift(self, level1) -> list:
        """The population_shift column of the level-1 population level1(state): each entry's less its base's,
        0 at delta = 0."""
        values = level1(self) if self.bases is None else np.concatenate([level1(self), level1(self.bases)])
        return [np.concatenate([values[self.at[id(e)]] - values[self.at[id(e.base)]] if e.delta else np.zeros(len(e.t))
                                for e in self.entries])]


def _entries(config: SweepConfig, taus: list[float], shifts: bool) -> tuple[list, list]:
    """The entries of the config in config order (gamma, then delta), and the delta = 0 bases of the population
    shifts (shifts: whether one is requested) that are not among them: one per gamma, shared by its deltas."""
    tau_texts = [_fmt(tau) for tau in taus]
    entries, bases = [], []
    for g in config.gamma_ratios:
        # t, the reachable times: kappa = 0 at the exceptional point leaves tau = 0 alone
        kappa = PtParams(omega=config.omega, gamma=g * config.omega).kappa
        times = [tau / kappa if kappa > 0.0 else (0.0 if tau == 0.0 else math.inf) for tau in taus]
        t = np.array([time for tau, time in zip(taus, times) if kappa > 0.0 or tau == 0.0])
        texts = list(zip(tau_texts, map(_fmt, times)))
        row = [_Entry(config, g, d, t, texts) for d in config.delta_ratios]
        base = next((e for e in row if e.delta == 0.0), None)  # a delta = 0 entry of the config is the base
        if base is None and shifts:
            base = _Entry(config, g, 0.0, t, texts)
            bases.append(base)
        for e in row:
            e.base = base
        entries += row
    return entries, bases


def _populations_3l(s: _Stack):
    """|phi_i|^2, the sink's 1 - p_suc, and the level-1 populations of the effective state
    (|phi_1|^2, trace p_suc, checked as effective_evolve checks it) and of the amplified one (|v_1|^2)."""
    phi, p_suc = s.decayed
    pops = _abs2(phi)
    return [pops[:, 0], pops[:, 1], 1.0 - _survival(p_suc), pops[:, 0], _abs2(s.v)[:, 0]]


def _rates_dilation(s: _Stack):
    """p_suc, p_fail and rho_pt_11, rho_a_11 as postselect divides them: by a reciprocal."""
    pops, p_suc, p_fail = s.branches
    return [p_suc, p_fail, pops[:, 0] * (1.0 / p_suc), pops[:, 2] * (1.0 / p_fail)]


def _resources_dilation(s: _Stack):
    """xi and zeta of the channel's budget, after the rate checks that resource_metrics runs too."""
    _ = s.branches
    return list(_resources(*_budget(s.channel)))


def _liouvillian_spectrum(s: _Stack):
    """The four eigenvalues of each entry, which do not depend on time (only tau = 0 is written)."""
    order = lambda z: (round(z.imag, 12), round(z.real, 12))  # noqa: E731
    spectra = [sorted(liouvillian_matrix(e.p)[1], key=order) for e in s.entries]
    return [[complex(z[i]) for z, e in zip(spectra, s.entries) for _ in e.t] for i in range(4)]


@dataclass(frozen=True)
class _Pair:
    """What one (quantity, scheme) pair writes at each grid point.

    `evaluate(state)` returns one sequence of values per row name over the
    state's points; if it raises a PtsenseError on a state of one entry, the
    pair is undefined at every point of that entry.  A time-independent pair
    is written once, at tau = 0.
    """

    rows: tuple[str, ...]
    evaluate: object
    plus_y_only: bool = False
    tangent: bool = False
    time_independent: bool = False


def _fields(report: str, fields: dict[str, str]) -> _Pair:
    """Pair whose rows, keyed by row name, are fields of the state's report ("scheme1" or "scheme2")."""
    scheme2 = report == "scheme2"  # plus_y only, and reads the PT tangent (scheme 1 reads the channel's)
    return _Pair(tuple(fields), lambda s: [getattr(getattr(s, report), f) for f in fields.values()], scheme2, scheme2)


_POP = ("population_1", "population_2", "population_3", "population_4")
_SHIFT = ("population_shift_1",)

#: Every valid (quantity, scheme) pair: its row names, its evaluator and, as True, whether it needs the plus_y
#: probe and whether it reads the PT tangent, which an entry builds only then.  A pair missing here is rejected.
_PAIRS = {
    ("population", "pt"): _Pair(_POP[:2], lambda s: list(_abs2(s.psi).T)),
    ("population", "dilation"): _Pair(_POP, lambda s: list(s.branches[0].T)),
    ("population", "lindblad"): _Pair(
        _POP[:3] + ("population_eff_1", "population_artificial_1"), _populations_3l, True),
    ("postselect_rates", "dilation"): _Pair(("p_suc", "p_fail", "rho_pt_11", "rho_a_11"), _rates_dilation),
    ("postselect_rates", "lindblad"): _Pair(("p_suc", "p_fail", "rho_pt_11"), lambda s: [
        s.decayed[1], 1.0 - s.decayed[1], _abs2(s.psi)[:, 0]], True),
    ("population_shift", "pt"): _Pair(_SHIFT, lambda s: s.shift(lambda x: _abs2(x.psi)[:, 0]), True),
    ("population_shift", "dilation"): _Pair(_SHIFT, lambda s: s.shift(lambda x: x.branches[0][:, 0]), True),
    ("population_shift", "lindblad"): _Pair(_SHIFT, lambda s: s.shift(lambda x: _abs2(x.psi)[:, 0]), True),
    ("susceptibility", "pt"): _Pair(("susceptibility_pt", "susceptibility_a"), lambda s: [
        _population_slope(*s.family, 0), _population_slope(*s.fail, 0)], True, True),
    ("susceptibility", "dilation"): _Pair(("susceptibility_4d_pt", "susceptibility_4d_a"), lambda s: list(
        _enlarged_slope(*s.family, *s.fail, (0, 2)).T), True, True),
    ("susceptibility", "lindblad"): _Pair(("susceptibility_eff",), lambda s: [
        _eff_slope(s.p, s.t, *s.family)], True, True),
    ("qfi_single", "pt"): _Pair(("qfi_pt",), lambda s: [_qfi(*s.unit)], tangent=True),
    ("qfi_single", "dilation"): _fields("scheme1", {"qfi_pt": "f_suc", "qfi_a": "f_fail", "qfi_4d": "f_total"}),
    ("qfi_single", "lindblad"): _fields("scheme2", {"qfi_eff": "f_total", "qfi_conditioned": "f_suc"}),
    ("qfi_weighted", "dilation"): _fields(
        "scheme1", {"i_suc": "i_suc", "i_fail": "i_fail", "i_subs": "i_subs", "i_4d": "i_total"}),
    ("qfi_weighted", "lindblad"): _fields("scheme2", {"i_eff": "i_total"}),
    ("sensitivity_bound", "pt"): _Pair(("delta_omega_pt",), lambda s: [
        _bound(_qfi(*s.unit), s.repetitions)], tangent=True),
    ("sensitivity_bound", "dilation"): _fields(
        "scheme1", {"delta_omega_subs": "delta_omega_weighted", "delta_omega_4d": "delta_omega_total"}),
    ("sensitivity_bound", "lindblad"): _fields(
        "scheme2", {"delta_omega_eff": "delta_omega_weighted", "delta_omega_eff_single": "delta_omega_total"}),
    ("resources", "dilation"): _Pair(("xi", "zeta"), _resources_dilation),
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


def _column(column, keep: list[bool], prefixes: list[str], head: str, end: str, quote) -> tuple[list, list]:
    """The lines and finite values of one row name at the points of column, one prefix per point.

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


def _evaluate(stack: _Stack, pair: _Pair) -> tuple[list, list[bool]]:
    """The pair's columns over the stack's points and, per entry, whether it is defined.  If the stack raises a
    PtsenseError, each entry is read alone (_Stack.alone); one that raises again holds zeros."""
    try:
        return pair.evaluate(stack), [True] * len(stack.entries)
    except PtsenseError:
        pass
    parts = []
    for alone in stack.alone:
        try:
            parts.append(pair.evaluate(alone))
        except PtsenseError:
            parts.append(None)
    return [np.concatenate([np.asarray(got[r]) if got else np.zeros(len(e.t)) for e, got in zip(stack.entries, parts)])
            for r in range(len(pair.rows))], [got is not None for got in parts]


def run(config: SweepConfig, output_path: str | None = None) -> Path:
    """Execute the sweep and write the dataset; returns the output path.

    Prints a one-line summary (row count and min/max of the finite values)
    plus the grid parameters, so preset choices are recorded alongside the
    dataset without touching the byte-stable dataset itself.
    """
    _check_pairs(config)
    path = Path(output_path or config.output_path or f"{config.name}.{config.format}")

    taus = [config.tau_max * i / (config.tau_steps - 1) for i in range(config.tau_steps)]
    pairs = [(scheme, quantity, _PAIRS[quantity, scheme]) for scheme in config.schemes
             for quantity in config.quantities]
    entries, bases = _entries(config, taus, "population_shift" in config.quantities)
    stack = _Stack(config, entries, any(pair.tangent for *_, pair in pairs), bases)
    if config.format == "json":
        quote = json.dumps  # escapes strings
        middle, suffix = ',"value":', ',"scheme":{},"probe":{}}}'
    else:
        quote = str
        middle, suffix = ",", ",{},{}"
    points = list(chain.from_iterable(e.prefixes[:len(e.t)] for e in entries))
    at_zero = list(chain.from_iterable((tau == 0.0 for tau in taus[:len(e.t)]) for e in entries))
    columns = [[] for _ in entries]  # (row name, scheme, lines, values) of each entry, in config order
    for scheme, quantity, pair in pairs:
        end = suffix.format(quote(scheme), quote(config.probe_label()))
        evaluated, ok = _evaluate(stack, pair)
        keep = list(chain.from_iterable([defined] * len(e.t) for defined, e in zip(ok, entries)))
        if pair.time_independent:  # written at tau = 0 only
            keep = [k and zero for k, zero in zip(keep, at_zero)]
        for name, column in zip(pair.rows, evaluated, strict=True) if any(ok) else ():
            lines, numbers = _column(column, keep, points, quote(name) + middle, end, quote)
            for out, defined, e in zip(columns, ok, entries):
                if defined:
                    out.append((name, scheme, lines[stack.at[id(e)]], numbers[stack.at[id(e)]]))
        # a pair that raised, or a point past the entry's reachable times, has one "<quantity>_undefined" line there
        for out, defined, e in zip(columns, ok, entries):
            failed = [(not defined or i >= len(e.t)) and (tau == 0.0 or not pair.time_independent)
                      for i, tau in enumerate(taus)]
            if any(failed):  # NaN is written as "undefined"
                name = quantity + "_undefined"
                out.append((name, scheme, *_column([math.nan] * len(taus), failed, e.prefixes, quote(name) + middle,
                                                   end, quote)))
    groups: dict[tuple, list] = {}  # equal (gamma, delta) values share a group: 0 and 0.0 keep their own text
    for e, out in zip(entries, columns):
        groups.setdefault((e.gamma_ratio, e.delta_ratio), []).extend(out)
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
