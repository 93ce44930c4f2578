"""Outside-in tracing of the kostka layers.

The tracer wraps public functions at the module bindings their callers
use (``kgr`` imports ``ryser_canonical``, ``star_matrix`` and
``split_pair`` by name, so both bindings are wrapped) and records one
span per call: name, start, end and the index of the enclosing span.
Self time is computed from the spans after the pass.  Counters that need a
call's arguments or result (witness kinds, masks swept, hit ratios) are
taken in the same wrappers.

Nothing here is installed in an end-to-end run; the worker calls
:func:`install` only when tracing is requested.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import Counter

# (span name, kind, bindings) -- the span name is "<home module>.<function>",
# each binding a (module, attribute) pair that callers look up at call time.
BINDINGS = (
    ("partitions.in_kostka_cone", "call", (("partitions", "in_kostka_cone"),)),
    ("partitions.kostka_count", "call", (("partitions", "kostka_count"),)),
    ("partitions.dominated_partitions", "yield", (("cone", "dominated_partitions"),)),
    ("ryser.ryser_canonical", "call", (("ryser", "ryser_canonical"), ("kgr", "ryser_canonical"))),
    ("ryser.star_matrix", "call", (("ryser", "star_matrix"), ("kgr", "star_matrix"))),
    ("ryser.split_pair", "call", (("ryser", "split_pair"), ("kgr", "split_pair"))),
    ("ryser.matrix_reducible", "call", (("ryser", "matrix_reducible"),)),
    ("kgr.build_graph", "call", (("kgr", "build_graph"),)),
    ("kgr.find_conservative_subtree", "call", (("kgr", "find_conservative_subtree"),)),
    ("kgr.verify_subtree", "call", (("kgr", "verify_subtree"),)),
    ("kgr.fast_reducibility", "call", (("kgr", "fast_reducibility"),)),
    (
        "subsets.sweep_proper_subsets",
        "call",
        (("ryser", "sweep_proper_subsets"), ("sequences", "sweep_proper_subsets")),
    ),
    ("cone.decompose", "call", (("cone", "decompose"), ("subsetsum", "decompose"))),
    ("cone.hilbert_basis", "call", (("cone", "hilbert_basis"),)),
    ("subsetsum.subset_sum_oracle", "call", (("subsetsum", "subset_sum_oracle"),)),
    ("subsetsum.reduction_equivalence_check", "call", (("subsetsum", "reduction_equivalence_check"),)),
    ("sequences.catalan_reducible", "call", (("sequences", "catalan_reducible"),)),
    ("sequences.kim_theorem_check", "call", (("sequences", "kim_theorem_check"),)),
)

# Reported per-layer stats: span name -> stats taken from its spans.
SPAN_STATS = {
    "ryser.ryser_canonical": ("calls", "self_s"),
    "ryser.star_matrix": ("calls", "self_s"),
    "ryser.split_pair": ("calls", "self_s"),
    "ryser.matrix_reducible": ("calls", "self_s"),
    "kgr.build_graph": ("calls", "self_s"),
    "kgr.find_conservative_subtree": ("calls", "self_s"),
    "kgr.verify_subtree": ("calls", "self_s"),
    "kgr.fast_reducibility": ("calls", "busy_s", "self_s"),
    "subsets.sweep_proper_subsets": ("calls", "self_s"),
    "cone.decompose": ("calls", "self_s"),
    "cone.hilbert_basis": ("calls", "busy_s"),
    "partitions.in_kostka_cone": ("calls", "self_s"),
    "partitions.dominated_partitions": ("yields", "self_s"),
    "partitions.kostka_count": ("calls", "self_s"),
    "subsetsum.subset_sum_oracle": ("calls", "self_s"),
    "subsetsum.reduction_equivalence_check": ("calls", "busy_s"),
    "sequences.catalan_reducible": ("calls", "self_s"),
    "sequences.kim_theorem_check": ("calls", "busy_s"),
}

# Ratios as (numerator counter, denominator counter).
RATIOS = {
    "kgr.hit_ratio": ("kgr.witnesses", "kgr.fast_reducibility.calls"),
    "subsets.hit_ratio": ("subsets.hits", "subsets.sweep_proper_subsets.calls"),
    "cone.decompose.hit_ratio": ("cone.decompose.hits", "cone.decompose.calls"),
    "sequences.hypothesis_ratio": ("sequences.hypotheses", "sequences.kim_theorem_check.calls"),
}

COUNTS = ("kgr.witness_component", "kgr.witness_sink_source", "subsets.masks_swept")

UNITS = {"calls": "count", "yields": "count", "self_s": "s", "busy_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = UNITS[stat]
    for name in COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["bench.trace_overhead_ratio"] = "ratio"
    units["bench.raw_wall_s"] = "s"
    units["bench.probe_ms"] = "ms"
    return units


def _on_fast(tracer: "Tracer", args, result) -> None:
    if result is not None:
        tracer.counters["kgr.witnesses"] += 1
        kind = result.witness.kind.replace("-", "_")
        tracer.counters[f"kgr.witness_{kind}"] += 1


def _on_sweep(tracer: "Tracer", args, result) -> None:
    width = args[0]
    if width >= 2:
        tracer.counters["subsets.masks_swept"] += (1 << width) - 2
    if result is not None:
        tracer.counters["subsets.hits"] += 1


def _on_decompose(tracer: "Tracer", args, result) -> None:
    if result is not None:
        tracer.counters["cone.decompose.hits"] += 1


def _on_kim(tracer: "Tracer", args, result) -> None:
    if result.hypothesis:
        tracer.counters["sequences.hypotheses"] += 1


HOOKS = {
    "kgr.fast_reducibility": _on_fast,
    "subsets.sweep_proper_subsets": _on_sweep,
    "cone.decompose": _on_decompose,
    "sequences.kim_theorem_check": _on_kim,
}


class Tracer:
    """Spans of one pass, kept in memory as parallel arrays."""

    def __init__(self) -> None:
        self.names: list[str] = [b[0] for b in BINDINGS]
        self.absent: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap_call(self, name_id: int, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def wrap_yield(self, name_id: int, fn):
        """Times each step of a generator as its own span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counters[f"{self.names[name_id]}.yields"] += 1
                yield item

        return traced

    def stats(self) -> dict[str, float]:
        """Calls, busy and self time per span name, plus the counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        busy = [0.0] * n_names
        child = [0.0] * len(self.span_name)
        for i in range(len(self.span_name)):
            dur = self.span_end[i] - self.span_start[i]
            calls[self.span_name[i]] += 1
            busy[self.span_name[i]] += dur
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur
        own = [0.0] * n_names
        for i in range(len(self.span_name)):
            own[self.span_name[i]] += self.span_end[i] - self.span_start[i] - child[i]
        out: dict[str, float] = dict(self.counters)
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.busy_s"] = busy[k]
            out[f"{name}.self_s"] = own[k]
        return out

    def spans(self, offset: float) -> dict[str, list]:
        return {
            "name": list(self.span_name),
            "start": [round(t - offset, 7) for t in self.span_start],
            "end": [round(t - offset, 7) for t in self.span_end],
            "parent": list(self.span_parent),
        }


def install(tracer: Tracer) -> None:
    """Wrap every binding in :data:`BINDINGS`; a binding that no longer
    exists is recorded in ``tracer.absent`` and left alone."""
    for name_id, (name, kind, bindings) in enumerate(BINDINGS):
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for module_name, attr in bindings:
            try:
                module = importlib.import_module(f"kostka.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                tracer.absent.append(f"kostka.{module_name}.{attr}")
                continue
            if id(original) not in wrappers:
                if kind == "yield":
                    wrappers[id(original)] = tracer.wrap_yield(name_id, original)
                else:
                    wrappers[id(original)] = tracer.wrap_call(name_id, original, HOOKS.get(name))
            setattr(module, attr, wrappers[id(original)])


def layer_metrics(shards: list[list[dict[str, float]]]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics from the stats of the traced passes, one list of
    passes per shard.

    A shard's counts come from its first pass and must repeat in every
    later pass of that shard, each run in a fresh interpreter (the second
    return value says whether they did); its times are medians over its
    passes.  Counts and times are summed over the shards.  A ratio whose
    base is zero reads 0.
    """
    repeat = True
    total: Counter = Counter()
    for passes in shards:
        first = passes[0]
        for key in set().union(*passes):
            if key.endswith("_s"):
                total[key] += statistics.median(p.get(key, 0.0) for p in passes)
            else:
                total[key] += first.get(key, 0)
                repeat &= all(p.get(key, 0) == first.get(key, 0) for p in passes)
    values: dict[str, float] = {}
    for name in metric_units():
        if name.startswith("bench."):
            continue
        if name in RATIOS:
            num, den = RATIOS[name]
            values[name] = total[num] / total[den] if total[den] else 0.0
        else:
            values[name] = total[name]
    return values, repeat
