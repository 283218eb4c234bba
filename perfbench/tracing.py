"""Spans around the public functions of each ptsense module, for the traced run.

`install` wraps every public function of the eight layer modules and rebinds
the wrapper in every ptsense module namespace that binds the same object, so
intra-package calls (`metrology` calling `postselect`, `sweeps` calling
`metrology.weighted_qfi_scheme1`) are seen too.  The state classes'
`__post_init__` is wrapped in place, so `isinstance` keeps working.  Nothing
under `src/` changes, and the untraced run never calls `install`.

Each thread appends its spans to its own buffer (name, parent, start, end);
a span's parent is the open span on its thread's stack or, for the first span
of a worker thread, the open span of the installing thread (`sweeps.run`
while the pool runs).  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import types
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "sweeps", "metrology", "dilation", "lindblad", "pt_system", "states", "linalg")
STATE_CLASSES = ("PureState2", "PureState4", "DensityMatrix2", "DensityMatrix3",
                 "DensityMatrix4", "UnnormalizedMatrix2")
#: Outermost calls of these, made under a metrology span, are state-family evaluations.
EVOLUTIONS = ("pt_system.evolve_state", "pt_system.evolve_density", "dilation.evolve_enlarged",
              "dilation.evolve_enlarged_state", "dilation.propagator_4d",
              "lindblad.analytic_rho_3l", "lindblad.effective_evolve")

_NO_PARENT = -1


class _Buffer:
    """Spans of one thread; a span's key is (buffer number << 32) | index."""

    def __init__(self, number: int) -> None:
        self.base = number << 32
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buffer = _Buffer(len(self.buffers))
                self.buffers.append(buffer)
            self._local.buffer = buffer
            return buffer

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack and buf is not tracer._main else _NO_PARENT
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(parent)
            buf.end.append(0.0)
            stack.append(buf.base | idx)
            buf.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                stack.pop()

        return traced

    def span_count(self) -> int:
        return sum(len(b.name) for b in self.buffers)

    def write(self, path: Path) -> None:
        """Raw spans as native arrays, described by a JSON sidecar."""
        layout = {"names": self.names, "fields": ["name:i32", "parent:i64", "start:f64", "end:f64"],
                  "threads": [len(b.name) for b in self.buffers]}
        with open(path, "wb") as handle:
            for b in self.buffers:
                for column in (b.name, b.parent, b.start, b.end):
                    column.tofile(handle)
        path.with_suffix(".json").write_text(json.dumps(layout) + "\n")


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    return list(names) if names is not None else [n for n in vars(module) if not n.startswith("_")]


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every layer module; returns how many."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "ptsense" or n.startswith("ptsense.")]
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"ptsense.{layer}"]
        for attr in _public_names(module):
            obj = getattr(module, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                wrapped[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{attr}"))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            pair = wrapped.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(module, attr, pair[1])
    states = sys.modules["ptsense.states"]
    for cls_name in STATE_CLASSES:
        cls = getattr(states, cls_name)
        cls.__post_init__ = tracer.wrap(cls.__post_init__, f"states.{cls_name}")
    return len(wrapped) + len(STATE_CLASSES)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Summary:
    """Per-name, per-module and per-operation aggregates of one traced pass."""

    def __init__(self, tracer: Tracer, op_starts: list[float]) -> None:
        names = tracer.names
        is_metro = [n.startswith("metrology.") for n in names]
        is_evo = [n in EVOLUTIONS for n in names]
        is_state = [n.startswith("states.") and n.split(".", 1)[1] in STATE_CLASSES for n in names]
        run_id = names.index("sweeps.run") if "sweeps.run" in names else -1
        buffers = tracer.buffers

        # Pass 1: time covered by children, and which spans run under a
        # metrology span or an evolution.  Parents precede children: by index
        # on one thread, and a worker's first span hangs under buffer 0.
        child_sum = [array("d", bytes(8 * len(b.name))) for b in buffers]
        flags = [bytearray(len(b.name)) for b in buffers]  # 1: under metrology, 2: under an evolution
        cross: dict[int, list[tuple[float, float]]] = defaultdict(list)
        run_children = 0.0
        self.state_evals = 0
        self.op_state_evals = [0] * len(op_starts)
        for bn, buf in enumerate(buffers):
            b_name, b_parent, b_start, b_end, b_flags = buf.name, buf.parent, buf.start, buf.end, flags[bn]
            for i in range(len(b_name)):
                nid, parent = b_name[i], b_parent[i]
                inherited = 0
                if parent != _NO_PARENT:
                    pb, pi = parent >> 32, parent & 0xFFFFFFFF
                    inherited = flags[pb][pi]
                    if pb == bn:
                        child_sum[pb][pi] += b_end[i] - b_start[i]
                    else:
                        cross[parent].append((b_start[i], b_end[i]))
                    if buffers[pb].name[pi] == run_id:
                        run_children += b_end[i] - b_start[i]
                if is_evo[nid] and inherited == 1:
                    self.state_evals += 1
                    op = bisect_right(op_starts, b_start[i]) - 1
                    if op >= 0:
                        self.op_state_evals[op] += 1
                b_flags[i] = inherited | is_metro[nid] | (2 if is_evo[nid] else 0)

        # Pass 2: self time (duration minus the union of child intervals),
        # per-name durations and per-operation call counts.
        self.durations: dict[str, array] = {}
        self.calls = Counter()
        self.self_time: dict[str, float] = {}
        self.op_calls: list[Counter] = [Counter() for _ in op_starts]
        run_s = 0.0
        by_id_durations = [array("d") for _ in names]
        by_id_self = [0.0] * len(names)
        for bn, buf in enumerate(buffers):
            b_name, b_start, b_end, b_child = buf.name, buf.start, buf.end, child_sum[bn]
            for i in range(len(b_name)):
                nid = b_name[i]
                dur = b_end[i] - b_start[i]
                own = dur - b_child[i]
                if bn == 0 and cross:
                    own -= _union_length(cross.get(buf.base | i, []))
                by_id_self[nid] += own
                by_id_durations[nid].append(dur)
                if nid == run_id:
                    run_s += dur
                op = bisect_right(op_starts, b_start[i]) - 1
                if op >= 0:
                    self.op_calls[op][nid] += 1
        for nid, name in enumerate(names):
            if by_id_durations[nid]:
                self.durations[name] = by_id_durations[nid]
                self.calls[name] = len(by_id_durations[nid])
                self.self_time[name] = by_id_self[nid]
        self.op_calls = [Counter({names[k]: v for k, v in c.items()}) for c in self.op_calls]

        self.parallelism = run_children / run_s if run_s > 0 else 0.0
        self.module_self = {layer: 0.0 for layer in LAYERS}
        for name, own in self.self_time.items():
            self.module_self[name.split(".", 1)[0]] += own
        self.validations = sum(self.calls[n] for n, s in zip(names, is_state) if s)
        state_durs = [d for n, s in zip(names, is_state) if s for d in self.durations.get(n, ())]
        self.validate_us = 1e6 * statistics.median(state_durs) if state_durs else 0.0

    def us(self, name: str) -> float:
        """Median inclusive microseconds per call; 0 when never called."""
        durs = self.durations.get(name)
        return 1e6 * statistics.median(durs) if durs else 0.0

    def self_share(self, layer: str) -> float:
        total = sum(self.module_self.values())
        return self.module_self[layer] / total if total > 0 else 0.0
