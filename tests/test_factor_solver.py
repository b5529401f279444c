"""Gadget reduction, factor extraction, and certificate lifting."""

import random

import pytest

from bergefactor import (
    BipartiteGraph,
    DegreeSpec,
    FactorSubgraph,
    GeneralGraph,
    Hypergraph,
    build_gadget,
    decide_by_criterion,
    deficiency_scan,
    enumerate_bipartite_graphs,
    find_2k_factor,
    find_berge_k_factor,
    incidence_graph,
    lift_to_berge,
    max_matching,
    perfect_matching,
    sparse_y_vertex,
    verify_2k_factor,
    verify_berge_factor,
)
from bergefactor.families import complete_graph, cycle, path, star

import oracles


def _random_bipartite(rng, nx_hi=4, ny_hi=5):
    ny = rng.randint(1, ny_hi)
    nx = rng.randint(0, nx_hi)
    rows = []
    for _ in range(nx):
        size = rng.randint(0, ny)
        rows.append(tuple(sorted(rng.sample(range(ny), size))))
    return BipartiteGraph(nx, ny, rows)


# ---------------------------------------------------------------- gadget


def test_gadget_sizes():
    # split-incidence layout: an X-vertex owns its d_x incidence ends and
    # a pair, a Y-vertex its d_y ends and k copies
    rng = random.Random(47)
    for _ in range(30):
        g = _random_bipartite(rng)
        k = rng.choice((1, 2, 3))
        gg = build_gadget(g, DegreeSpec(k))
        nx, ny = g.x_count, g.y_count
        owned = [0] * (nx + ny)
        for host in gg.owner:
            owned[host] += 1
        assert owned[:nx] == [len(g.neighbors[x]) + 2 for x in range(nx)]
        assert owned[nx:] == [len(g.y_neighbors[y]) + k for y in range(ny)]
        inc = sum(len(row) for row in g.neighbors)
        assert gg.graph.n == 2 * inc + 2 * nx + k * ny
        assert len(gg.graph.edges) == (k + 3) * inc + nx
        assert len(gg.inter_edges) == inc

    # X-host of degree 3 at k = 1: 3 ends + a pair; each Y of degree 1
    # has one end and one copy
    g = BipartiteGraph(1, 3, [(0, 1, 2)])
    gg = build_gadget(g, DegreeSpec(1))
    x_vertices = [i for i, host in enumerate(gg.owner) if host == 0]
    y0_vertices = [i for i, host in enumerate(gg.owner) if host == 1]
    assert len(x_vertices) == 5
    assert len(y0_vertices) == 2
    assert len(gg.inter_edges) == 3


def test_gadget_layout():
    # the vertex numbering fixes max_matching's scan order, and so the
    # factor it returns: X-blocks (ends in neighbor order, then the
    # pair), then Y-blocks (ends in X order, then the k copies)
    g = BipartiteGraph(2, 2, [(0, 1), (0, 1)])
    gg = build_gadget(g, DegreeSpec(2))
    assert gg.owner == (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)
    assert gg.graph.n == 16
    assert gg.graph.edges == (
        (0, 2), (0, 3), (0, 8), (1, 2), (1, 3), (1, 12), (2, 3),
        (4, 6), (4, 7), (4, 9), (5, 6), (5, 7), (5, 13), (6, 7),
        (8, 10), (8, 11), (9, 10), (9, 11),
        (12, 14), (12, 15), (13, 14), (13, 15))
    assert list(gg.inter_edges.items()) == [
        ((0, 2), (0, 8)), ((0, 3), (1, 12)),
        ((1, 2), (4, 9)), ((1, 3), (5, 13))]


def test_degree_one_x_takes_degree_zero():
    # a degree-1 X-vertex cannot fill its pair, so it is forced to degree
    # 0; the Y-vertex then keeps no incidence and k = 1 fails
    g = BipartiteGraph(2, 1, [(0,), (0,)])
    spec = DegreeSpec(1)
    assert find_2k_factor(g, spec) is None
    assert not decide_by_criterion(g, spec).exists
    assert not oracles.has_2k_factor(g.x_count, g.y_count, g.neighbors, 1)


def test_gadget_infeasible_low_degree():
    # the gadget is built past a sparse Y-vertex, whose copies stay exposed
    g = BipartiteGraph(1, 2, [(0,)])  # y1 has degree 0 < k
    spec = DegreeSpec(1)
    assert sparse_y_vertex(g, spec) == 1
    gg = build_gadget(g, spec)
    assert gg.graph.n == 2 * 1 + 2 * 1 + 1 * 2
    assert perfect_matching(gg.graph) is None


def test_gadget_deficiency_past_sparse_y_vertex():
    # Tutte-Berge holds on sparse hosts too: the package gadget's
    # deficiency |V| - 2 nu equals the independent builder's
    pairs = 0
    for g in enumerate_bipartite_graphs(6):
        for k in (1, 2, 3):
            spec = DegreeSpec(k)
            if sparse_y_vertex(g, spec) is None:
                continue
            gg = build_gadget(g, spec).graph
            got = gg.n - 2 * len(max_matching(gg))
            assert got == oracles.gadget_deficiency(g, k), (g, k)
            pairs += 1
    assert pairs == 1726


def _gadget_census():
    # every host of the |X| + |Y| <= 6 census, sparse ones included, and
    # 200 seeded random hosts, at k = 1..3
    for g in enumerate_bipartite_graphs(6):
        for k in (1, 2, 3):
            yield g, DegreeSpec(k)
    rng = random.Random(53)
    for _ in range(200):
        yield _random_bipartite(rng, 8, 6), DegreeSpec(rng.choice((1, 2, 3)))


def test_gadget_adjacency_matches_validated_graph():
    # the builder's trusted adjacency is what GeneralGraph(n, edges)
    # validates, dedups and sorts the same edge list into
    for g, spec in _gadget_census():
        gg = build_gadget(g, spec).graph
        checked = GeneralGraph(gg.n, gg.edges)
        assert checked.edges == gg.edges, (g, spec)
        assert checked.adjacency == gg.adjacency, (g, spec)


def test_warm_start_is_a_matching_within_need():
    # the warm start pairs only gadget edges, gives no Y-vertex more than
    # k incidences, and never changes whether a perfect matching exists
    for g, spec in _gadget_census():
        gadget = build_gadget(g, spec)
        gg, start = gadget.graph, gadget.start
        edges = set(gg.edges)
        for v, w in enumerate(start):
            assert w == -1 or (min(v, w), max(v, w)) in edges, (g, spec, v)
        # an incidence is taken when its e_x is matched into x's pair
        taken = [0] * g.y_count
        for (x, y), (ex, _) in gadget.inter_edges.items():
            if start[ex] != -1 and gadget.owner[start[ex]] == x:
                taken[y - g.x_count] += 1
        assert max(taken, default=0) <= spec.k, (g, spec)
        warm = perfect_matching(gg, start)
        assert (warm is None) == (perfect_matching(gg) is None), (g, spec)


def test_gadget_isolated_x_allowed():
    # an isolated X-vertex takes degree 0; its gadget must still have a
    # perfect matching, so the whole reduction stays feasible
    g = BipartiteGraph(2, 2, [(0, 1), ()])
    f = find_2k_factor(g, DegreeSpec(1))
    assert f is not None
    assert verify_2k_factor(g, f)


# ---------------------------------------------------------------- solver


def test_cycle_2_factor_uses_all_incidences():
    g = incidence_graph(cycle(5))
    f = find_2k_factor(g, DegreeSpec(2))
    assert f is not None
    assert verify_2k_factor(g, f)
    want = {(x, y) for x in range(5) for y in cycle(5).edges[x]}
    assert set(f.edges) == want


def test_no_factor_on_star():
    g = incidence_graph(star(3))
    assert find_2k_factor(g, DegreeSpec(1)) is None


def test_solver_agrees_with_bruteforce_random():
    rng = random.Random(41)
    yes = no = 0
    for i in range(120):
        if i % 2:
            g = _random_bipartite(rng)
            k = rng.choice((1, 2, 3))
        else:
            # denser draws keep the yes side well represented
            ny = rng.randint(1, 4)
            nx = rng.randint(ny, 6)
            rows = [tuple(sorted(rng.sample(range(ny), rng.randint(max(1, ny - 1), ny))))
                    for _ in range(nx)]
            g = BipartiteGraph(nx, ny, rows)
            k = rng.choice((1, 1, 2))
        f = find_2k_factor(g, DegreeSpec(k))
        want = oracles.has_2k_factor(g.x_count, g.y_count, g.neighbors, k)
        assert (f is not None) == want
        if f is None:
            no += 1
        else:
            yes += 1
            assert verify_2k_factor(g, f)
    assert yes > 10 and no > 10


def test_solver_agrees_with_criterion_random():
    rng = random.Random(43)
    for _ in range(60):
        g = _random_bipartite(rng)
        k = rng.choice((1, 2))
        f = find_2k_factor(g, DegreeSpec(k))
        res = decide_by_criterion(g, DegreeSpec(k))
        assert (f is not None) == res.exists
        scan = deficiency_scan(g, DegreeSpec(k))
        assert scan.biased.delta == -oracles.gadget_deficiency(g, k), (g, k)


def test_cross_check_mode_runs():
    """The matching route and the deficiency criterion agree on a
    factorable and a factor-less instance."""
    for h, k, exists in ((cycle(4), 2, True), (star(3), 1, False)):
        g = incidence_graph(h)
        found = find_2k_factor(g, DegreeSpec(k)) is not None
        assert found == exists
        assert decide_by_criterion(g, DegreeSpec(k)).exists == found


def test_trace_lines():
    lines = []
    find_2k_factor(incidence_graph(cycle(4)), DegreeSpec(2),
                   trace=lines.append)
    assert any(ln.startswith("gadget:") for ln in lines)
    assert any(ln.startswith("matching:") for ln in lines)
    assert any(ln.startswith("extraction:") for ln in lines)

    lines.clear()
    find_2k_factor(incidence_graph(star(3)), DegreeSpec(1),
                   trace=lines.append)
    assert any("no perfect matching" in ln for ln in lines)

    lines.clear()
    find_2k_factor(BipartiteGraph(1, 1, [()]), DegreeSpec(1),
                   trace=lines.append)
    assert lines == ["gadget: Y-vertex 0 has degree 0 < k = 1, no factor"]


# ---------------------------------------------------------------- verify


def test_verify_2k_factor_rejections():
    g = incidence_graph(cycle(4))
    ok = find_2k_factor(g, DegreeSpec(2))
    assert verify_2k_factor(g, ok)

    missing = FactorSubgraph.make(2, list(ok.edges)[:-1])
    v = verify_2k_factor(g, missing)
    assert not v and "degree" in v.reason

    foreign = FactorSubgraph.make(2, [(0, 3)] + list(ok.edges)[1:])
    v = verify_2k_factor(g, foreign)
    assert not v and "not in host graph" in v.reason

    repeated = FactorSubgraph(2, (ok.edges[0],) + ok.edges)
    v = verify_2k_factor(g, repeated)
    assert not v

    outside = FactorSubgraph.make(2, list(ok.edges) + [(g.x_count, 0)])
    v = verify_2k_factor(g, outside)
    assert not v and v.reason == f"malformed factor: edge ({g.x_count}, 0)"

    # X-vertex 0 drops both its edges: every X-degree is still 0 or 2,
    # but its two Y-neighbours fall to degree 1.
    short = FactorSubgraph.make(2, [e for e in ok.edges if e[0] != 0])
    v = verify_2k_factor(g, short)
    assert not v and v.reason.endswith("has degree 1, want 2")


def test_verify_2k_factor_x_degree_rule():
    # a single chosen incidence gives its X-vertex degree 1
    g = BipartiteGraph(1, 1, [(0,)])
    bad = FactorSubgraph.make(1, [(0, 0)])
    v = verify_2k_factor(g, bad)
    assert not v and "0 or 2" in v.reason


# ------------------------------------------------------------------ lift


def test_lift_cycle_certificate():
    h = cycle(5)
    f = find_2k_factor(incidence_graph(h), DegreeSpec(2))
    cert = lift_to_berge(h, f)
    assert cert.k == 2
    assert len(cert.pairs) == 5
    assert verify_berge_factor(h, cert)


def test_lift_rejects_odd_x_degree():
    h = Hypergraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        lift_to_berge(h, FactorSubgraph.make(1, [(0, 0)]))


def test_find_berge_k_factor_end_to_end():
    assert find_berge_k_factor(star(3), 1) is None

    h = complete_graph(4)
    cert = find_berge_k_factor(h, 3)
    assert cert is not None
    assert verify_berge_factor(h, cert)

    # an odd vertex count cannot carry a 1-regular multigraph
    assert find_berge_k_factor(path(3), 1) is None
    assert find_berge_k_factor(path(4), 1) is not None


def test_duplicate_hyperedges_give_multigraph_factors():
    # doubling the single edge {0, 1} allows a Berge-2-factor whose
    # multigraph repeats the pair (0, 1)
    h = Hypergraph(2, [(0, 1), (0, 1)])
    assert find_berge_k_factor(h, 1) is not None
    cert = find_berge_k_factor(h, 2)
    assert cert is not None
    assert cert.pairs == ((0, (0, 1)), (1, (0, 1)))
    assert verify_berge_factor(h, cert)


def test_trace_through_hypergraph_pipeline():
    lines = []
    cert = find_berge_k_factor(cycle(4), 2, trace=lines.append)
    assert cert is not None
    assert lines
