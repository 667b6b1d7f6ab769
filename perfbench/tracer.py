"""Span tracing around the public functions of the traceforge modules.

The tracer replaces every public function of a layer module with a thin
wrapper, both in its defining module and in every traceforge namespace
that imported it by name (``trace.rref``, ``batch.enumerate_trace_ideals``
and so on), so that calls between modules are seen.  Each call records a
span: name index, start, end, parent span and benchmark item.  Spans are
kept in compact arrays and turned into per-layer metrics when a pass ends.

Nothing here changes what a wrapped function computes: a wrapper calls
the original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from types import GeneratorType

LAYERS = ("semigroups", "fields", "ideals", "trace", "artin", "batch")
PACKAGE = "traceforge"
BENCH_ITEM = "bench.item"
SAMPLE = "calibrate.sample"

# Functions whose inclusive time is reported (outermost spans only).
TOTAL_TIME = ("trace.is_trace_ideal", "trace.family_probe", "artin.hom_trace",
              "batch.survey_one")


class Tracer:
    """In-memory span store plus the counters the per-layer table needs."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.reset()

    def reset(self):
        """Forget every span and counter; called at the start of each pass."""
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_item = array("l")
        self.stack = [-1]
        self.item = -1
        self.counts = Counter()
        self.enumerated: set = set()

    def name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.span_item.append(self.item)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = perf_counter()
        top = self.stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed while span {top} was open")

    def add_samples(self, marks):
        """Record speed samples taken during the pass as leaf spans.

        A sample runs in a signal handler inside whatever span was open at
        the time, so it becomes a child of the innermost span containing it
        and its time leaves that span's self time.
        """
        name_id = self.name_id(SAMPLE)
        start, end = self.start, self.end
        order = iter(sorted(range(len(start)), key=start.__getitem__))
        nxt = next(order, None)
        stack: list[int] = []
        placed = []
        for a, b in sorted(marks):
            while nxt is not None and start[nxt] <= a:
                while stack and end[stack[-1]] <= start[nxt]:
                    stack.pop()
                stack.append(nxt)
                nxt = next(order, None)
            while stack and end[stack[-1]] <= a:
                stack.pop()
            placed.append((a, b, stack[-1] if stack else -1))
        for a, b, parent in placed:
            self.name.append(name_id)
            self.start.append(a)
            self.end.append(b)
            self.parent.append(parent)
            self.span_item.append(self.span_item[parent] if parent >= 0 else -1)

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name]

    def dump(self, path, **header):
        """Write the spans of the current pass as one JSON object of columns."""
        t0 = self.start[0] if self.start else 0.0
        payload = {
            **header,
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "names": self.names,
            "name": list(self.name),
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
            "parent": list(self.parent),
            "item": list(self.span_item),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# result hooks: counters measured where the work happens


def _rref_hook(tracer, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    tracer.counts["fields.rref.cells"] += m.nrows * m.ncols


def _enumerate_trace_hook(tracer, args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    key = (H.text, p)
    if key in tracer.enumerated:
        tracer.counts["trace.enumerate_trace_ideals.repeat_calls"] += 1
    tracer.enumerated.add(key)
    tracer.counts["trace.candidates"] += result.census


def _is_trace_hook(tracer, args, kwargs, result):
    tracer.counts["trace.is_trace_ideal.tests"] += 1
    tracer.counts["trace.is_trace_ideal.hits"] += bool(result)


def _enumerate_ideals_hook(tracer, args, kwargs, result):
    tracer.counts["artin.ideals"] += len(result)


def _hom_trace_hook(tracer, args, kwargs, result):
    I = args[0] if args else kwargs["I"]
    tracer.counts["artin.hom_trace.tests"] += 1
    tracer.counts["artin.hom_trace.hits"] += result == I


HOOKS = {
    "fields.rref": _rref_hook,
    "trace.enumerate_trace_ideals": _enumerate_trace_hook,
    "trace.is_trace_ideal": _is_trace_hook,
    "artin.enumerate_ideals": _enumerate_ideals_hook,
    "artin.hom_trace": _hom_trace_hook,
}


def _wrap(tracer: Tracer, fn, name: str, namespace: str):
    name_id = tracer.name_id(name)
    caller_key = f"{name}.calls.{namespace}"
    hook = HOOKS.get(name)

    def traced_iter(gen):
        while True:
            sid = tracer.open(name_id)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            yield value

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[caller_key] += 1
        sid = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        if type(result) is GeneratorType:
            return traced_iter(result)
        return result

    return wrapper


def public_functions() -> dict:
    """Map id(function) -> (function, "<layer>.<name>") over the layer modules."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                found[id(obj)] = (obj, f"{layer}.{attr}")
    return found


class Installed:
    """The wrappers put in place by :func:`install`; ``remove`` undoes them."""

    def __init__(self, patches):
        self.patches = patches  # (module, attribute, original)

    def remove(self):
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches = []


def install(tracer: Tracer) -> Installed:
    """Wrap every public layer function wherever a traceforge module holds it."""
    functions = public_functions()
    patches = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        namespace = mod_name.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            entry = functions.get(id(obj))
            if entry is None:
                continue
            patches.append((mod, attr, obj))
            setattr(mod, attr, _wrap(tracer, obj, entry[1], namespace))
    return Installed(patches)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, float("-inf")))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def is_outermost(i: int, names: list[str], parent) -> bool:
    """True when span ``i`` has no ancestor of the same name."""
    p = parent[i]
    while p >= 0 and names[p] != names[i]:
        p = parent[p]
    return p < 0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_wall_s: float) -> dict:
    """Per-layer figures for one traced pass, keyed by metric name."""
    names = tracer.span_names()
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = Counter(names)
    self_by_name = Counter()
    self_by_layer = Counter()
    for name, s in zip(names, selfs):
        self_by_name[name] += s
        self_by_layer[name.split(".", 1)[0]] += s
    sampled = Counter()  # span -> seconds of speed samples inside it
    for i, name in enumerate(names):
        if name == SAMPLE:
            p = tracer.parent[i]
            while p >= 0:
                sampled[p] += tracer.end[i] - tracer.start[i]
                p = tracer.parent[p]
    total_by_name = Counter()
    for i, name in enumerate(names):
        if name in TOTAL_TIME and is_outermost(i, names, tracer.parent):
            total_by_name[name] += tracer.end[i] - tracer.start[i] - sampled[i]
    c = tracer.counts
    m = {
        "fields.rref.calls": calls["fields.rref"],
        "fields.rref.self_s": self_by_name["fields.rref"],
        "fields.rref.cells": c["fields.rref.cells"],
    }
    for ns in ("trace", "ideals", "artin", "fields"):
        m[f"fields.rref.calls.{ns}"] = c[f"fields.rref.calls.{ns}"]
    m["fields.solve_homogeneous.calls"] = calls["fields.solve_homogeneous"]
    for fn in ("colon", "multiply", "closed_under", "from_window_vectors"):
        m[f"ideals.{fn}.calls"] = calls[f"ideals.{fn}"]
        m[f"ideals.{fn}.self_s"] = self_by_name[f"ideals.{fn}"]
    m["ideals.unit_ideal.calls"] = calls["ideals.unit_ideal"]
    m.update({
        "trace.enumerate_trace_ideals.calls": calls["trace.enumerate_trace_ideals"],
        "trace.enumerate_trace_ideals.self_s": self_by_name["trace.enumerate_trace_ideals"],
        "trace.enumerate_trace_ideals.repeat_calls":
            c["trace.enumerate_trace_ideals.repeat_calls"],
        "trace.candidates": c["trace.candidates"],
        "trace.is_trace_ideal.calls": calls["trace.is_trace_ideal"],
        "trace.is_trace_ideal.total_s": total_by_name["trace.is_trace_ideal"],
        "trace.is_trace_ideal.hit_ratio": _ratio(c["trace.is_trace_ideal.hits"],
                                                 c["trace.is_trace_ideal.tests"]),
        "trace.verify_bijection.self_s": self_by_name["trace.verify_bijection"],
        "trace.family_probe.total_s": total_by_name["trace.family_probe"],
        "artin.enumerate_ideals.calls": calls["artin.enumerate_ideals"],
        "artin.enumerate_ideals.self_s": self_by_name["artin.enumerate_ideals"],
        "artin.ideals": c["artin.ideals"],
        "artin.hom_trace.calls": calls["artin.hom_trace"],
        "artin.hom_trace.total_s": total_by_name["artin.hom_trace"],
        "artin.hom_trace.hit_ratio": _ratio(c["artin.hom_trace.hits"],
                                            c["artin.hom_trace.tests"]),
        "batch.survey_one.calls": calls["batch.survey_one"],
        "batch.survey_one.total_s": total_by_name["batch.survey_one"],
        "batch.survey.self_s": self_by_name["batch.survey"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["bench.self_s"] = self_by_layer["bench"]
    m["traced_pass_s"] = pass_wall_s
    m["self_time_coverage"] = _ratio(sum(selfs), pass_wall_s)
    return m
