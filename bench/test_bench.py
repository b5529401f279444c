"""Tests of the benchmark itself: generators, tracer and a smoke run.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
bf = run.import_package()

NAMES = sorted(workloads.WORKLOADS)


def parse_hg(text: str) -> tuple[int, list[list[int]]]:
    head, *rows = text.splitlines()
    n, m = map(int, head.split())
    edges = [list(map(int, r.split())) for r in rows]
    assert len(edges) == m
    return n, edges


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic(name):
    a = workloads.instances(name, 7, 6)
    assert a == workloads.instances(name, 7, 6)
    assert a[:3] == workloads.instances(name, 7, 3)
    assert a != workloads.instances(name, 8, 6)


def test_census_instances_follow_the_recipe():
    for inst in workloads.instances("census", 3, 40):
        n, edges = parse_hg(inst.text)
        lo, hi = workloads.CENSUS_N
        assert lo <= n <= hi and n <= len(edges) <= 3 * n
        assert all(2 <= len(e) <= 6 for e in edges)
        assert inst.k in (1, 2, 3) and inst.k * n % 2 == 0


def test_factor_large_instances_have_their_planted_factor():
    for inst in workloads.instances("factor-large", 3, 4):
        n, edges = parse_hg(inst.text)
        lo, hi = workloads.FACTOR_N
        assert lo <= n <= hi + 1 and inst.k * n % 2 == 0
        h = bf.formats.parse_hg(inst.text)
        cert = bf.factor_solver.find_berge_k_factor(h, inst.k)
        assert cert is not None and bf.hypergraph.verify_berge_factor(h, cert)


def two_colouring(n: int, edges: list[list[int]]) -> list[int]:
    colour = [-1] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for s in range(n):
        if colour[s] >= 0:
            continue
        colour[s] = 2 * s  # a fresh pair of colours per component
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if colour[v] < 0:
                    colour[v] = colour[u] ^ 1
                    stack.append(v)
                assert colour[v] == colour[u] ^ 1, "not bipartite"
    return colour


def test_nofactor_instances_have_unequal_sides_and_min_degree_k():
    for inst in workloads.instances("nofactor-large", 3, 24):
        n, edges = parse_hg(inst.text)
        assert all(len(e) == 2 for e in edges)
        assert len({tuple(e) for e in edges}) == len(edges)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert min(deg) >= inst.k
        # A k-regular spanning subgraph of a bipartite graph has equal
        # colour classes in every component; one unequal component
        # rules a Berge-k-factor out.
        colour = two_colouring(n, edges)
        sizes: dict[int, int] = {}
        for c in colour:
            sizes[c] = sizes.get(c, 0) + 1
        assert any(sizes.get(c, 0) != sizes.get(c ^ 1, 0) for c in sizes)


def test_unequal_bipartite_sides():
    rng = random.Random(1)
    for n, gap in ((60, 1), (61, 1), (160, 4)):
        a, b, edges = workloads.unequal_bipartite(rng, n, 3, gap)
        assert len(b) - len(a) in (gap, gap + 1)
        assert sorted(a + b) == list(range(n))
        assert all((u in a) != (v in a) for u, v in edges)


def test_criterion_instances_match_the_matching_route():
    insts = workloads.instances("criterion", 3, 16)
    assert sum(inst.has_factor for inst in insts) == 4
    for inst in insts:
        g = bf.formats.parse_big(inst.text)
        assert g.x_count + g.y_count == workloads.CRITERION_V
        assert min(len(ys) for ys in g.y_neighbors) >= inst.k
        spec = bf.parity_criterion.DegreeSpec(inst.k)
        assert (bf.factor_solver.find_2k_factor(g, spec) is not None) == inst.has_factor


def test_backtracking_oracle_agrees_with_the_package():
    rng = random.Random(5)
    for _ in range(200):
        ny = rng.randint(1, 5)
        rows = [sorted(rng.sample(range(ny), rng.randint(1, ny)))
                for _ in range(rng.randint(1, 6))]
        k = rng.randint(1, 2)
        g = bf.incidence.BipartiteGraph(len(rows), ny, rows)
        want = bf.factor_solver.find_2k_factor(
            g, bf.parity_criterion.DegreeSpec(k)) is not None
        assert workloads.has_2k_factor(ny, rows, k) == want


def test_tracer_restores_every_function():
    before = {(m, a): getattr(getattr(bf, m), a)
              for m, a, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install(bf)
    assert bf.factor_solver.max_matching is not before["factor_solver", "max_matching"]
    tracer.restore()
    assert all(getattr(getattr(bf, m), a) is fn for (m, a), fn in before.items())


def test_self_time_subtracts_child_spans():
    spans = [tracing.Span("factor_solver.find_2k_factor", 0, -1, 0.0, 1.0),
             tracing.Span("factor_solver.build_gadget", 0, 0, 0.1, 0.3,
                          {"vertices": 10, "edges": 20}),
             tracing.Span("matching.max_matching", 0, 0, 0.3, 0.8,
                          {"vertices": 10, "edges": 20, "deficit": 2})]
    m = tracing.layer_metrics(spans, 2, 1.0, 1.0)
    assert m["factor_solver.self_s"] == pytest.approx(0.15)
    assert m["matching.max_matching_s"] == pytest.approx(0.25)
    assert m["matching.deficit"] == 1
    assert m["trace_overhead_frac"] == 0


def test_host_speed_scales_by_the_recent_median():
    speed = run.HostSpeed()
    speed.samples = [9.0] + [run.REF_S * 2] * run.REF_WINDOW
    assert speed.factor() == pytest.approx(0.5)
    speed.sample(3)
    assert len(speed.samples) == run.REF_WINDOW + 4
    assert all(s > 0 for s in speed.samples)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_metric(name, trace, monkeypatch):
    """A few ops per workload; every metric BENCHMARK.json names is
    reported, and no wrapper is left installed."""
    monkeypatch.setattr(run, "MIN_TAIL", 0)
    monkeypatch.setitem(run.COUNTS, name, 3)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert bf.factor_solver.max_matching is bf.matching.max_matching
    assert bf.hypergraph.toughness.__module__ == "bergefactor.hypergraph"


def test_names_in_benchmark_json_match_the_script():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.LAYER_METRICS


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
