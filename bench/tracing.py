"""Spans around the package's public functions, for the traced run.

`Tracer.install` replaces each function listed in TARGETS, in the module
where its callers look it up, with a wrapper that records a span (name,
op, parent, start, end, counts) in memory; `Tracer.restore` puts every
original back.  The untraced run never installs anything.  Per-layer
metrics are derived from the spans by `layer_metrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def _toughness_info(args, result) -> dict:
    return {"subsets": 1 << args[0].n}


def _matching_info(args, result) -> dict:
    g = args[0]
    return {"vertices": g.n, "edges": len(g.edges),
            "deficit": g.n - 2 * len(result)}


def _gadget_info(args, result) -> dict:
    graph = getattr(result, "graph", None)
    if graph is None:
        return {"infeasible": 1}
    return {"vertices": graph.n, "edges": len(graph.edges)}


def _pairs_info(args, result) -> dict:
    return {"pairs": result.stats.evaluated}


# (module, attribute, span name, counts taken from the arguments and
# result).  Functions are wrapped wherever the package's own callers or
# the benchmark's ops look them up.
TARGETS = (
    ("cli", "find_berge_k_factor", "factor_solver.find_berge_k_factor", None),
    ("factor_solver", "find_berge_k_factor",
     "factor_solver.find_berge_k_factor", None),
    ("cli", "find_2k_factor", "factor_solver.find_2k_factor", None),
    ("factor_solver", "find_2k_factor", "factor_solver.find_2k_factor", None),
    ("cli", "find_biased_barrier", "parity_criterion.find_biased_barrier",
     None),
    ("cli", "decide_by_criterion", "parity_criterion.decide_by_criterion",
     _pairs_info),
    ("cli", "load_hypergraph", "formats.load", None),
    ("cli", "load_bipartite", "formats.load", None),
    ("cli", "load_barrier", "formats.load", None),
    ("cli", "load_certificate", "formats.load", None),
    ("formats", "load_hypergraph", "formats.load", None),
    ("cli", "serialize_bkf", "formats.serialize", None),
    ("cli", "serialize_bar", "formats.serialize", None),
    ("cli", "serialize_big", "formats.serialize", None),
    ("cli", "incidence_graph", "incidence.incidence_graph", None),
    ("formats", "incidence_graph", "incidence.incidence_graph", None),
    ("factor_solver", "incidence_graph", "incidence.incidence_graph", None),
    ("factor_solver", "build_gadget", "factor_solver.build_gadget",
     _gadget_info),
    ("factor_solver", "max_matching", "matching.max_matching",
     _matching_info),
    ("factor_solver", "verify_2k_factor", "factor_solver.verify_2k_factor",
     None),
    ("factor_solver", "lift_to_berge", "factor_solver.lift_to_berge", None),
    ("parity_criterion", "deficiency_scan", "parity_criterion.deficiency_scan",
     _pairs_info),
    ("hypergraph", "toughness", "hypergraph.toughness", _toughness_info),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index into Tracer.spans, -1 for a top-level call
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of a wrapped function.  Spans of one op
    share the op index set in `op` before the op starts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, bf) -> None:
        for module, attr, name, info in TARGETS:
            mod = getattr(bf, module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, info))

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.op, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span.info["raised"] = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info.update(info(args, result))
            return result
        return traced


# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "hypergraph.toughness_s": ("s", "lower"),
    "hypergraph.toughness_subsets": ("count", "lower"),
    "hypergraph.subsets_per_s": ("1/s", "higher"),
    "matching.max_matching_s": ("s", "lower"),
    "matching.vertices": ("count", "lower"),
    "matching.edges": ("count", "lower"),
    "matching.deficit": ("count", "lower"),
    "factor_solver.build_gadget_s": ("s", "lower"),
    "factor_solver.gadget_vertices": ("count", "lower"),
    "factor_solver.gadget_edges": ("count", "lower"),
    "factor_solver.infeasible": ("count", "higher"),
    "factor_solver.self_s": ("s", "lower"),
    "factor_solver.verify_2k_factor_s": ("s", "lower"),
    "factor_solver.lift_s": ("s", "lower"),
    "parity_criterion.scan_s": ("s", "lower"),
    "parity_criterion.scan_pairs": ("count", "lower"),
    "parity_criterion.pairs_per_s": ("1/s", "higher"),
    "parity_criterion.ternary_s": ("s", "lower"),
    "parity_criterion.extra_pairs": ("count", "lower"),
    "parity_criterion.useful_ratio": ("ratio", "higher"),
    "parity_criterion.biased_s": ("s", "lower"),
    "parity_criterion.refused": ("count", "lower"),
    "formats.load_s": ("s", "lower"),
    "formats.serialize_s": ("s", "lower"),
    "incidence.incidence_graph_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: int, traced_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Per-layer metrics over `ops` traced ops.  Times and counts are
    per op; rates and ratios are taken over the whole run.  A layer a
    workload never calls reads 0.  `traced_s` and `untraced_s` are the
    op times of the same ops run with and without wrappers."""
    def spans_of(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def seconds(name: str) -> float:
        return sum(s.seconds for s in spans_of(name))

    def total(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in spans_of(name))

    child_s = [0.0] * len(spans)
    child_pairs = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
            if s.name == "parity_criterion.deficiency_scan":
                child_pairs[s.parent] += s.info.get("pairs", 0)
    solver = [i for i, s in enumerate(spans)
              if s.name == "factor_solver.find_2k_factor"]
    decide = [i for i, s in enumerate(spans)
              if s.name == "parity_criterion.decide_by_criterion"]
    decide_pairs = sum(spans[i].info.get("pairs", 0) for i in decide)
    decide_scan_pairs = sum(child_pairs[i] for i in decide)
    refused = sum(1 for s in spans_of("parity_criterion.find_biased_barrier")
                  if s.info.get("raised") == "BudgetExceededError")

    per_op = {
        "hypergraph.toughness_s": seconds("hypergraph.toughness"),
        "hypergraph.toughness_subsets": total("hypergraph.toughness", "subsets"),
        "matching.max_matching_s": seconds("matching.max_matching"),
        "matching.vertices": total("matching.max_matching", "vertices"),
        "matching.edges": total("matching.max_matching", "edges"),
        "matching.deficit": total("matching.max_matching", "deficit"),
        "factor_solver.build_gadget_s": seconds("factor_solver.build_gadget"),
        "factor_solver.gadget_vertices": total("factor_solver.build_gadget", "vertices"),
        "factor_solver.gadget_edges": total("factor_solver.build_gadget", "edges"),
        "factor_solver.infeasible": total("factor_solver.build_gadget", "infeasible"),
        "factor_solver.self_s": sum(spans[i].seconds - child_s[i] for i in solver),
        "factor_solver.verify_2k_factor_s": seconds("factor_solver.verify_2k_factor"),
        "factor_solver.lift_s": seconds("factor_solver.lift_to_berge"),
        "parity_criterion.scan_s": seconds("parity_criterion.deficiency_scan"),
        "parity_criterion.scan_pairs": total("parity_criterion.deficiency_scan", "pairs"),
        "parity_criterion.ternary_s": sum(spans[i].seconds - child_s[i] for i in decide),
        "parity_criterion.extra_pairs": decide_pairs - decide_scan_pairs,
        "parity_criterion.biased_s": seconds("parity_criterion.find_biased_barrier"),
        "parity_criterion.refused": refused,
        "formats.load_s": seconds("formats.load"),
        "formats.serialize_s": seconds("formats.serialize"),
        "incidence.incidence_graph_s": seconds("incidence.incidence_graph"),
    }
    out = {name: _ratio(value, ops) for name, value in per_op.items()}
    out["hypergraph.subsets_per_s"] = _ratio(
        total("hypergraph.toughness", "subsets"), seconds("hypergraph.toughness"))
    out["parity_criterion.pairs_per_s"] = _ratio(
        total("parity_criterion.deficiency_scan", "pairs"),
        seconds("parity_criterion.deficiency_scan"))
    out["parity_criterion.useful_ratio"] = _ratio(decide_scan_pairs, decide_pairs)
    out["trace_overhead_frac"] = _ratio(traced_s, untraced_s) - 1.0
    return {name: out[name] for name in LAYER_METRICS}
