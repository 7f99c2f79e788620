"""Layer spans and counters for the traced run, installed from outside.

The tracer replaces each public layer function in the module that looks
it up (``hcolkit.kernels.poly_basis_select``, ``hcolkit.witness.max_clique``,
...) with a wrapper that records a span: name, parent span, start and
end.  Nothing under ``src/`` changes.  ``FieldElement`` arithmetic runs
about a million times per algebraic job, so it gets plain call counters
instead of spans.  Spans stay in memory until ``dump`` writes them once.

A layer's total time sums its outermost spans; its self time is each
span's duration minus the part its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

# (span name, module that looks the name up, attribute)
SPANS = [
    ("cli.main", "hcolkit.cli", "main"),
    ("graphs.read_graph", "hcolkit.cli", "read_graph"),
    ("graphs.read_graph", "hcolkit.graphs", "read_graph"),
    ("graphs.write_graph", "hcolkit.cli", "write_graph"),
    ("graphs.write_graph", "hcolkit.kernels", "write_graph"),
    ("witness.witness_number", "hcolkit.cli", "witness_number"),
    ("witness.witness_number", "hcolkit.reductions", "witness_number"),
    ("witness.max_clique", "hcolkit.witness", "max_clique"),
    ("gf.matrix_rank", "hcolkit.gf", "matrix_rank"),
    ("gf.matrix_rank", "hcolkit.reps", "matrix_rank"),
    ("gf.field_extension_above", "hcolkit.reps", "field_extension_above"),
    ("polys.det_poly", "hcolkit.kernels", "det_poly"),
    ("polys.poly_basis_select", "hcolkit.kernels", "poly_basis_select"),
    ("reps.kneser_rep", "hcolkit.cli", "kneser_rep"),
    ("reps.normalize_first_entry", "hcolkit.cli", "normalize_first_entry"),
    ("reps.rep_from_json", "hcolkit.cli", "rep_from_json"),
    ("reps.check_faithful", "hcolkit.cli", "check_faithful"),
    ("reps.check_faithful", "hcolkit.reps", "check_faithful"),
    ("kernels.combinatorial_kernel", "hcolkit.cli", "combinatorial_kernel"),
    ("kernels.combinatorial_kernel", "hcolkit.kernels", "combinatorial_kernel"),
    ("kernels.algebraic_kernel", "hcolkit.cli", "algebraic_kernel"),
    ("kernels.verify_kernel_equivalence", "hcolkit.cli", "verify_kernel_equivalence"),
    ("kernels.read_instance", "hcolkit.cli", "read_instance"),
    ("kernels.read_instance", "hcolkit.kernels", "read_instance"),
    ("kernels.write_kernel_result", "hcolkit.cli", "write_kernel_result"),
    ("hom.find_homomorphism", "hcolkit.hom", "find_homomorphism"),
    ("hom.find_homomorphism", "hcolkit.kernels", "find_homomorphism"),
    ("hom.find_homomorphism", "hcolkit.reductions", "find_homomorphism"),
    ("reductions.find_edge_gadget", "hcolkit.cli", "find_edge_gadget"),
    ("reductions.find_tight_witness_set", "hcolkit.cli", "find_tight_witness_set"),
    ("reductions.reduce_naesat_to_hcol", "hcolkit.cli", "reduce_naesat_to_hcol"),
    ("reductions.reduce_list_to_plain", "hcolkit.cli", "reduce_list_to_plain"),
    ("reductions.verify_edge_gadget", "hcolkit.reductions", "verify_edge_gadget"),
]

# methods patched on a class: (span name, module, class, methods)
METHOD_SPANS = [("gf.SpanBasis", "hcolkit.gf", "SpanBasis", ("add", "contains"))]

# counter name -> FieldElement methods it counts
FIELD_COUNTERS = {
    "mul": ("__mul__",),
    "addsub": ("__add__", "__sub__", "__neg__"),
    "inverse": ("inverse",),
    "is_zero": ("is_zero",),
}

# counts derived from return values: span name -> function of the result
RESULT_COUNTS = {
    "witness.witness_number": lambda r: {"witness.q_sum": r.q},
    "polys.poly_basis_select": lambda r: {
        "polys.basis_kept": len(r.kept),
        "polys.basis_dropped": len(r.certificates),
    },
    "hom.find_homomorphism": lambda r: {"hom.sat": r is not None},
    "reductions.reduce_naesat_to_hcol": lambda r: {"reductions.output_vertices": r.graph.n},
    "reductions.reduce_list_to_plain": lambda r: {"reductions.output_vertices": r.n},
}


class Tracer:
    """Records spans and counts while `active`; patches are undone by `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        on_result = RESULT_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result:
                tracer.counts.update(on_result(result))
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for name, module, attr in SPANS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for name, module, cls_name, methods in METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._patch(cls, method, self._span_wrapper(name, getattr(cls, method)))
        element = importlib.import_module("hcolkit.gf").FieldElement
        for key, methods in FIELD_COUNTERS.items():
            for method in methods:
                wrapped = self._count_wrapper(f"gf.FieldElement.{key}.calls", getattr(element, method))
                self._patch(element, method, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span under the innermost open one."""
        record = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()


def dump(tracers: list[Tracer], path: Path) -> None:
    """Write the spans and counts of every traced pass, once, at the end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    passes = [{"spans": t.spans, "counts": dict(t.counts)} for t in tracers]
    path.write_text(json.dumps({"columns": ["name", "parent", "start_s", "end_s"], "passes": passes}))


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time of outermost spans, and self time."""
    stats: dict[str, dict[str, float]] = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, parent, start, end) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["total_s"] += end - start
    return stats


# per-layer metric -> unit.  `<span>.calls|total_s|self_s` read the span
# statistics; the FieldElement counters and the other counts read `counts`.
LAYER_UNITS = {
    "witness.witness_number.calls": "count",
    "witness.witness_number.total_s": "s",
    "witness.witness_number.self_s": "s",
    "witness.max_clique.total_s": "s",
    "witness.q_sum": "count",
    "gf.FieldElement.mul.calls": "count",
    "gf.FieldElement.addsub.calls": "count",
    "gf.FieldElement.inverse.calls": "count",
    "gf.FieldElement.is_zero.calls": "count",
    "gf.matrix_rank.calls": "count",
    "gf.matrix_rank.total_s": "s",
    "gf.SpanBasis.total_s": "s",
    "gf.field_extension_above.total_s": "s",
    "polys.poly_basis_select.total_s": "s",
    "polys.det_poly.calls": "count",
    "polys.det_poly.total_s": "s",
    "polys.basis_kept": "count",
    "polys.basis_dropped": "count",
    "polys.basis_keep_ratio": "ratio",
    "reps.kneser_rep.total_s": "s",
    "reps.normalize_first_entry.total_s": "s",
    "reps.rep_from_json.total_s": "s",
    "reps.check_faithful.calls": "count",
    "reps.check_faithful.total_s": "s",
    "kernels.combinatorial_kernel.total_s": "s",
    "kernels.algebraic_kernel.self_s": "s",
    "kernels.verify_kernel_equivalence.total_s": "s",
    "kernels.io_s": "s",
    "hom.find_homomorphism.calls": "count",
    "hom.find_homomorphism.total_s": "s",
    "hom.sat_frac": "ratio",
    "hom.cluster_cache_entries": "count",
    "reductions.find_edge_gadget.total_s": "s",
    "reductions.find_tight_witness_set.total_s": "s",
    "reductions.reduce_naesat_to_hcol.total_s": "s",
    "reductions.reduce_list_to_plain.total_s": "s",
    "reductions.verify_edge_gadget.calls": "count",
    "reductions.output_vertices": "count",
    "graphs.read_graph.total_s": "s",
    "graphs.write_graph.total_s": "s",
    "cli.main.self_s": "s",
}

SPAN_NAMES = {name for name, *_ in SPANS + METHOD_SPANS}

# deterministic counts, which must repeat exactly from pass to pass
COUNT_METRICS = [name for name, unit in LAYER_UNITS.items() if unit == "count"]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    stats = span_stats(tracer.spans)
    counts = tracer.counts
    out = {}
    for metric, unit in LAYER_UNITS.items():
        span, _, field = metric.rpartition(".")
        if span in SPAN_NAMES:
            out[metric] = stats.get(span, {}).get(field, 0.0 if unit == "s" else 0)
        else:
            out[metric] = counts[metric]
    kept, dropped = counts["polys.basis_kept"], counts["polys.basis_dropped"]
    out["polys.basis_keep_ratio"] = kept / (kept + dropped) if kept + dropped else 0.0
    calls = out["hom.find_homomorphism.calls"]
    out["hom.sat_frac"] = counts["hom.sat"] / calls if calls else 0.0
    io = [stats.get(n, {}).get("total_s", 0.0) for n in ("kernels.read_instance", "kernels.write_kernel_result")]
    out["kernels.io_s"] = sum(io)
    return out
