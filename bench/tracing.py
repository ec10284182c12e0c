"""Per-layer spans and counters for a traced benchmark call.

``install`` runs inside a forked call child, after ``netfuncomp.cli`` is
imported and before the CLI is entered.  It replaces each public function in
``WRAPPED``, in every ``netfuncomp`` module namespace that bound it, by a
wrapper that records a span: name, start, end, the enclosing span and the
request id shared by all spans of one CLI call.  ``ProbGraph`` is traced
through its ``__init__``.  A span's self time is its duration minus the
durations of the traced spans directly inside it.  Spans stay in memory and
the harness writes them out when the run ends.

Layer names are the package's module names; ``README.md`` records which
end-to-end metric each layer's numbers should move, and on which workload.
"""

from __future__ import annotations

import functools
import gc
import sys
import time

WRAPPED = (
    ("netmodel", "enumerate_cut_sets"),
    ("netmodel", "enumerate_strong_partitions"),
    ("netmodel", "validate"),
    ("equiv", "i_aj_classes"),
    ("equiv", "il_al_aj_classes"),
    ("equiv", "n_C"),
    ("chargraph", "build"),
    ("pgraph", "ProbGraph"),
    ("entropy", "clique_entropy"),
    ("bounds", "basic_lower_bound"),
    ("bounds", "improved_lower_bound"),
    ("bounds", "fixed_length_bound"),
    ("codesim", "huffman_transform"),
    ("codesim", "evaluate"),
    ("codesim", "sardinas_patterson"),
    ("cli", "main"),
)

# Counters beyond calls and self time, with their units.
COUNTERS = {
    "netmodel.pairs_kept": "count",
    "chargraph.build.vertices": "count",
    "bounds.pairs": "count",
    "bounds.distinct_graphs": "count",
    "codesim.blocks": "count",
    "runtime.gc_collections": "count",
}
# Builds per distinct graph key, time inside the garbage collector, and
# traced over untraced operation time.
DERIVED = {
    "chargraph.build.per_distinct_graph": "1",
    "runtime.gc_s": "s",
    "trace.overhead": "1",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, name in WRAPPED:
        units[f"{module}.{name}.calls"] = "count"
        units[f"{module}.{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


class Tracer:
    """Spans and counters of one CLI call."""

    def __init__(self, request: int):
        self.request = request
        self.spans: list[tuple[str, int, int, float, float]] = []
        self._open: list[list] = []  # [name, span id, start, child time]
        self._next_id = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.graphs: set[tuple] = set()
        self.bound_graphs: set[tuple] = set()
        self.bound_pairs: set[tuple] = set()
        self.gc_s = 0.0
        self._gc_start = 0.0

    def enter(self, name: str) -> None:
        self._open.append([name, self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def leave(self) -> None:
        end = time.perf_counter()
        name, span_id, start, child = self._open.pop()
        duration = end - start
        parent = self._open[-1][1] if self._open else -1
        if self._open:
            self._open[-1][3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.spans.append((name, span_id, parent, start, end))

    def in_bounds(self) -> bool:
        return any(frame[0].startswith("bounds.") for frame in self._open)

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    def report(self) -> dict:
        """Plain-JSON summary of this call, spans included."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "graphs": len(self.graphs),
            "gc_s": self.gc_s,
            "spans": [[name, i, p, s, e, self.request] for name, i, p, s, e in self.spans],
        }


# -- counters taken from a wrapped call's arguments and result -------------------


def _model(args: tuple, kwargs: dict):
    return args[0] if args else kwargs["model"]


def _after_partitions(t: Tracer, args, kwargs, result) -> None:
    t.counts["netmodel.pairs_kept"] += len(result)


def _after_build(t: Tracer, args, kwargs, result) -> None:
    model = _model(args, kwargs)
    part = result.partition
    key = (id(model), result.k, result.cut.i_set, result.cut.j_set, part.l_set, frozenset(part.i_sets))
    t.counts["chargraph.build.vertices"] += result.graph.n
    t.graphs.add(key)
    if t.in_bounds():
        t.bound_graphs.add(key)
        t.counts["bounds.distinct_graphs"] = len(t.bound_graphs)


def _after_bound(t: Tracer, args, kwargs, result) -> None:
    model = _model(args, kwargs)
    t.bound_pairs.update((id(model), p.cut, p.blocks) for p in result.pairs)
    t.counts["bounds.pairs"] = len(t.bound_pairs)


def _after_sweep(t: Tracer, args, kwargs, result) -> None:
    model = _model(args, kwargs)
    t.counts["codesim.blocks"] += model.alphabet_size ** (result.k * model.num_sources)


AFTER = {
    "netmodel.enumerate_strong_partitions": _after_partitions,
    "chargraph.build": _after_build,
    "bounds.basic_lower_bound": _after_bound,
    "bounds.improved_lower_bound": _after_bound,
    "bounds.fixed_length_bound": _after_bound,
    "codesim.huffman_transform": _after_sweep,
    "codesim.evaluate": _after_sweep,
}


def _wrap(t: Tracer, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.leave()
        if after is not None:
            after(t, args, kwargs, result)
        return result

    return wrapper


def install(t: Tracer) -> None:
    """Wrap every traced function in every package namespace that bound it."""
    modules = [m for n, m in sys.modules.items() if n == "netfuncomp" or n.startswith("netfuncomp.")]
    for module, attr in WRAPPED:
        name = f"{module}.{attr}"
        original = getattr(sys.modules[f"netfuncomp.{module}"], attr)
        if isinstance(original, type):
            original.__init__ = _wrap(t, name, original.__init__)
            continue
        wrapper = _wrap(t, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    gc.callbacks.append(t.on_gc)


def op_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one operation: the sum over its calls' reports."""
    out: dict[str, float] = {}
    for module, attr in WRAPPED:
        name = f"{module}.{attr}"
        out[f"{name}.calls"] = sum(r["calls"].get(name, 0) for r in reports)
        out[f"{name}.self_s"] = sum(r["self_s"].get(name, 0.0) for r in reports)
    for counter in COUNTERS:
        out[counter] = sum(r["counts"][counter] for r in reports)
    builds = out["chargraph.build.calls"]
    graphs = sum(r["graphs"] for r in reports)
    out["chargraph.build.per_distinct_graph"] = builds / graphs if graphs else 0.0
    out["runtime.gc_s"] = sum(r["gc_s"] for r in reports)
    return out
