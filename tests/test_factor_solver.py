"""Gadget reduction, factor extraction, and certificate lifting."""

import random

import pytest

from bergefactor import (
    BipartiteGraph,
    DegreeSpec,
    FactorSubgraph,
    Hypergraph,
    Infeasible,
    build_gadget,
    decide_by_criterion,
    deficiency_scan,
    find_2k_factor,
    find_berge_k_factor,
    incidence_graph,
    lift_to_berge,
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
    checked = 0
    while checked < 30:
        g = _random_bipartite(rng)
        k = rng.choice((1, 2, 3))
        gg = build_gadget(g, DegreeSpec(k))
        if isinstance(gg, Infeasible):
            continue
        checked += 1
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


def test_degree_one_x_takes_degree_zero():
    # a degree-1 X-vertex cannot fill its pair, so it is forced to degree
    # 0; the Y-vertex then keeps no incidence and k = 1 fails
    g = BipartiteGraph(2, 1, [(0,), (0,)])
    spec = DegreeSpec(1)
    assert find_2k_factor(g, spec) is None
    assert not decide_by_criterion(g, spec).exists
    assert not oracles.has_2k_factor(g.x_count, g.y_count, g.neighbors, 1)


def test_gadget_infeasible_low_degree():
    g = BipartiteGraph(1, 2, [(0,)])  # y1 has degree 0 < k
    out = build_gadget(g, DegreeSpec(1))
    assert isinstance(out, Infeasible)
    assert out.y == 1 and out.degree == 0 and out.k == 1


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
    assert any("degree 0 < k" in ln for ln in lines)


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
