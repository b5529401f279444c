"""Gadget reduction, factor extraction, and certificate lifting."""

import dataclasses
import random
from itertools import chain, combinations, permutations

import pytest

from bergefactor import (
    BergeFactorCertificate,
    BipartiteGraph,
    DegreeSpec,
    GeneralGraph,
    Hypergraph,
    build_gadget,
    complete_matching,
    decide_by_criterion,
    deficiency_scan,
    delta,
    enumerate_bipartite_graphs,
    enumerate_graph_edge_sets,
    find_2k_factor,
    find_berge_k_factor,
    greedy_selection,
    incidence_graph,
    lift_to_berge,
    max_matching,
    sparse_y_vertex,
    verify_2k_factor,
    verify_berge_factor,
)
from bergefactor import factor_solver
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
    # split-incidence layout: an X-vertex of degree d_x != 2 owns its d_x
    # incidence ends and a pair, one of degree 2 owns nothing (its two
    # incidences share one edge), a Y-vertex owns its d_y ends and k copies
    rng = random.Random(47)
    for _ in range(30):
        g = _random_bipartite(rng)
        k = rng.choice((1, 2, 3))
        gg = build_gadget(g, DegreeSpec(k))
        nx, ny = g.x_count, g.y_count
        owned = [0] * (nx + ny)
        for host in gg.owner:
            owned[host] += 1
        degrees = [len(row) for row in g.neighbors]
        blocks = [d for d in degrees if d != 2]
        assert owned[:nx] == [0 if d == 2 else d + 2 for d in degrees]
        assert owned[nx:] == [len(g.y_neighbors[y]) + k for y in range(ny)]
        inc = sum(degrees)
        assert gg.graph.n == sum(d + 2 for d in blocks) + inc + k * ny
        assert len(gg.graph.edges) == (sum(3 * d + 1 for d in blocks)
                                       + nx - len(blocks) + k * inc)
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
    # the vertex numbering fixes the matcher's scan order, and so the
    # factor it returns: X-blocks (ends in neighbor order, then the
    # pair), then Y-blocks (ends in X order, then the k copies); the
    # degree-2 X-vertex 0 has no block, one edge joins its two Y-ends
    g = BipartiteGraph(2, 3, [(0, 2), (0, 1, 2)])
    gg = build_gadget(g, DegreeSpec(1))
    assert gg.owner == (1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4)
    assert gg.graph.n == 13
    assert gg.graph.edges == (
        (0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 8),
        (2, 3), (2, 4), (2, 11), (3, 4),
        (5, 7), (5, 10), (6, 7), (8, 9), (10, 12), (11, 12))
    assert list(gg.inter_edges.items()) == [
        ((0, 2), (5, 10)), ((0, 4), (5, 10)),
        ((1, 2), (0, 6)), ((1, 3), (1, 8)), ((1, 4), (2, 11))]


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
    assert 2 * len(max_matching(gg.graph)) < gg.n


def test_gadget_deficiency_past_sparse_y_vertex():
    # Tutte-Berge holds on sparse hosts too: the package gadget's
    # deficiency |V| - 2 nu equals the independent builder's, and it is
    # positive, so no factor exists.  Of the sparse hosts, `low` have a
    # Y-vertex of degree below k; the others have one with fewer than k
    # X-neighbours of degree 2 or more.
    pairs = low = 0
    for g in enumerate_bipartite_graphs(6):
        for k in (1, 2, 3):
            spec = DegreeSpec(k)
            if sparse_y_vertex(g, spec) is None:
                continue
            gg = build_gadget(g, spec).graph
            got = gg.n - 2 * len(max_matching(gg))
            assert got == oracles.gadget_deficiency(g, k) > 0, (g, k)
            pairs += 1
            low += min(map(len, g.y_neighbors)) < k
    assert (pairs, low) == (1900, 1726)


def test_sparse_y_vertex_counts_only_selectable_neighbours():
    # An X-vertex of degree 1 is never selected.  The first Y-vertex of
    # degree below k comes first; failing that, the first with fewer
    # than k X-neighbours of degree 2 or more.  Its pair ({}, {y}) is a
    # barrier of delta at most d2 - k, and where no Y-vertex is sparse
    # each has k such neighbours.
    found = 0
    for g in enumerate_bipartite_graphs(6):
        deg = [len(ys) for ys in g.neighbors]
        for k in (1, 2, 3):
            y = sparse_y_vertex(g, DegreeSpec(k))
            d2 = [sum(deg[x] > 1 for x in xs) for xs in g.y_neighbors]
            low = [j for j, xs in enumerate(g.y_neighbors) if len(xs) < k]
            want = low or [j for j, d in enumerate(d2) if d < k]
            assert y == (want[0] if want else None), (g, k)
            if y is None or low:
                continue
            found += 1
            rec = delta(g, (), (g.x_count + y,), DegreeSpec(k))
            assert rec.delta <= d2[y] - k < 0, (g, k)
    assert found == 174
    # a 30-cycle with a singleton edge at every vertex: degree 3, but
    # only the two cycle edges can be selected
    h = Hypergraph(30, [(i, (i + 1) % 30) for i in range(30)]
                   + [(i,) for i in range(30)])
    g = incidence_graph(h)
    assert sparse_y_vertex(g, DegreeSpec(2)) is None
    assert sparse_y_vertex(g, DegreeSpec(3)) == 0
    lines = []
    assert find_2k_factor(g, DegreeSpec(3), trace=lines.append) is None
    assert lines == ["gadget: Y-vertex 0 has 2 X-neighbours of degree >= 2 "
                     "< k = 3, no factor"]
    assert delta(g, (), (g.x_count,), DegreeSpec(3)).delta == -2


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
        # an incidence is taken when its incidence edge is not in the start
        taken = [0] * g.y_count
        for (x, y), (ex, ey) in gadget.inter_edges.items():
            if start[ex] != ey:
                taken[y - g.x_count] += 1
        assert max(taken, default=0) <= spec.k, (g, spec)
        # the start is maximal: it leaves exposed exactly the copies of
        # each Y-vertex that its taken incidences do not fill
        left = [0] * g.y_count
        for v, w in enumerate(start):
            if w == -1:
                assert gadget.link[v] == -1 and gadget.owner[v] >= g.x_count, (
                    g, spec, v)
                left[gadget.owner[v] - g.x_count] += 1
        assert left == [spec.k - t for t in taken], (g, spec)
        warm = complete_matching(list(start), gg.adjacency)
        assert warm == (2 * len(max_matching(gg)) == gg.n), (g, spec)


def test_greedy_selection_rule():
    # the most constrained Y-vertices choose first: y0 and y3 have one
    # X-neighbour each and select it, where a pass in X order would
    # select x0 on {1, 2} and leave y0 and y3 unmet
    g = incidence_graph(Hypergraph(4, [(1, 2), (0, 1), (2, 3)]))
    assert greedy_selection(g, DegreeSpec(1)) == (((), (0, 1), (2, 3)), 0)
    # y0 scans x1, with two Y-neighbours, before x0, with three; then y1
    # selects x0 on its one partner with need left, y2
    g = incidence_graph(Hypergraph(4, [(0, 1, 2), (0, 3), (1, 2, 3)]))
    assert greedy_selection(g, DegreeSpec(1)) == (((1, 2), (0, 3), ()), 0)
    # the partner is the Y-neighbour of least slack, unselected
    # X-neighbours less need: y2 (0) over y1 (1), and on a tie the first
    # in N(x)
    g = incidence_graph(Hypergraph(3, [(0, 1, 2), (1,)]))
    assert greedy_selection(g, DegreeSpec(1)) == (((0, 2), ()), 1)
    g = incidence_graph(Hypergraph(3, [(0, 1, 2), (1, 2)]))
    assert greedy_selection(g, DegreeSpec(1)) == (((0, 1), ()), 1)
    # a sparse Y-vertex keeps its need
    g = BipartiteGraph(2, 2, [(0, 1), (0,)])
    assert greedy_selection(g, DegreeSpec(2)) == (((0, 1), ()), 2)


def test_greedy_selection_is_maximal_within_need():
    # each X-vertex takes none or two of its Y-neighbours and no
    # Y-vertex more than k, and no X-vertex left out has two Y-neighbours
    # with need left; the gadget's start encodes the selection, and
    # when the selection meets every need the factor search returns
    # it, as the matcher would from that start; a selection that leaves
    # need is the degree-ordered pass's, with its restarts discarded
    complete = restarted = 0
    for g, spec in chain(_gadget_census(), _contraction_hosts()):
        sel, unmet = greedy_selection(g, spec)
        first = oracles.greedy_single_pass(g, spec.k)
        if unmet or not first[1]:
            assert (sel, unmet) == first, (g, spec)
        else:
            restarted += 1
        need = [spec.k] * g.y_count
        for ys, pick in zip(g.neighbors, sel):
            assert pick == () or (
                len(pick) == 2 and pick[0] < pick[1] and set(pick) <= set(ys)
            ), (g, spec)
            for y in pick:
                need[y] -= 1
        assert min(need, default=0) >= 0 and sum(need) == unmet, (g, spec)
        for ys, pick in zip(g.neighbors, sel):
            assert pick or sum(need[y] > 0 for y in ys) < 2, (g, spec)
        gadget = build_gadget(g, spec, sel)
        assert gadget.start == build_gadget(g, spec).start, (g, spec)
        assert gadget.start.count(-1) == unmet, (g, spec)
        chosen = gadget.selected(gadget.start)
        assert chosen == tuple((x, pick) for x, pick in enumerate(sel)
                               if pick)
        if not unmet:
            complete += 1
            assert find_2k_factor(g, spec) == BergeFactorCertificate(
                spec.k, chosen), (g, spec)
    assert (complete, restarted) == (716, 59)


@pytest.fixture
def restarts(monkeypatch):
    """[front length, Y-vertices visited] of each restart of
    `greedy_selection`."""
    log = []
    real = factor_solver._restart_order

    def counted(front, *args):
        log.append([len(front), 0])
        for y in real(front, *args):
            log[-1][1] += 1
            yield y

    monkeypatch.setattr(factor_solver, "_restart_order", counted)
    return log


def _within_bound(g, log):
    # at most |Y| restarts, each starting before |E| Y-visits were spent
    cap = sum(map(len, g.neighbors))
    spent = [sum(v for _, v in log[:i]) for i in range(len(log))]
    return len(log) <= g.y_count and all(s < cap for s in spent)


def _unequal_bipartite(rng, n, k, gap):
    # 2-uniform, with sides of (n - gap) // 2 and the rest of the n
    # vertices and every vertex of degree >= k, then n // 2 more random
    # edges: a k-regular spanning multigraph would need k|A| = k|B|
    a = rng.sample(range(n), (n - gap) // 2)
    b = [v for v in range(n) if v not in a]
    edges = set()
    for side, other in ((a, b), (b, a)):
        for u in side:
            for v in rng.sample(other, k):
                edges.add((min(u, v), max(u, v)))
    for _ in range(n // 2):
        u, v = rng.choice(a), rng.choice(b)
        edges.add((min(u, v), max(u, v)))
    return Hypergraph(n, sorted(edges))


def test_greedy_restarts_leave_factor_less_hosts_as_the_first_pass(restarts):
    # no restart can meet every need on a factor-less host, so the
    # degree-ordered pass is returned as it was: on small random hosts
    # and on hosts shaped like the `nofactor-large` workload
    rng = random.Random(67)
    hosts = []
    while len(hosts) < 60:
        g = _random_bipartite(rng, 8, 6)
        k = rng.choice((1, 2, 3))
        if sparse_y_vertex(g, DegreeSpec(k)) is None and not (
                oracles.has_2k_factor(g.x_count, g.y_count, g.neighbors, k)):
            hosts.append((g, k))
    for i in range(30):
        k = 2 + i % 2
        n = rng.randint(20, 60)
        hosts.append((incidence_graph(
            _unequal_bipartite(rng, n + k * n % 2, k, 1 + i % 4)), k))
    runs = 0
    for g, k in hosts:
        restarts.clear()
        assert greedy_selection(g, DegreeSpec(k)) == (
            oracles.greedy_single_pass(g, k)), (g, k)
        assert restarts and _within_bound(g, restarts), (g, k)
        runs += len(restarts)
    assert runs == 194


def test_greedy_restarts_answer_census_size_hosts(restarts):
    # hypergraphs shaped like the `census` workload's: n 10..14, n..3n
    # edges of size 2..6, k with kn even.  A selection that meets every
    # need is the factor, verified; the yes/no equals the independent
    # gadget's deficiency; and a restart answers most of the hosts with
    # a factor whose degree-ordered pass left need
    rng = random.Random(71)
    restarted = gadgets = none = 0
    for _ in range(300):
        n = rng.randint(10, 14)
        k = rng.choice([k for k in (1, 2, 3) if k * n % 2 == 0])
        h = Hypergraph(n, [
            tuple(sorted(rng.sample(range(n), rng.randint(2, 6))))
            for _ in range(rng.randint(n, 3 * n))])
        g = incidence_graph(h)
        restarts.clear()
        sel, unmet = greedy_selection(g, DegreeSpec(k))
        assert _within_bound(g, restarts), (h, k)
        f = find_2k_factor(g, DegreeSpec(k))
        assert (f is not None) == (oracles.gadget_deficiency(g, k) == 0)
        if not unmet:
            assert f == BergeFactorCertificate(k, tuple(
                (x, pick) for x, pick in enumerate(sel) if pick))
            assert verify_2k_factor(g, f)
            restarted += bool(restarts)
        elif f is not None:
            gadgets += 1
        else:
            none += 1
    assert (restarted, gadgets, none) == (36, 1, 37)


@pytest.mark.parametrize("h, k, passes, visits", [
    # each restart of the odd cycle fails at a new vertex, one position
    # earlier than the last, until |E| = 42 visits are spent
    (cycle(21), 1, [[1, 21], [2, 20], [3, 19]], 60),
    # each restart of K_21 fails at a new vertex, at the end of the
    # visit order, until the front holds 11 and the next fails in it
    (complete_graph(21), 1, [[f, 21] for f in range(1, 11)] + [[11, 11]],
     221),
])
def test_greedy_restarts_stop_within_their_bound(restarts, h, k, passes,
                                                 visits):
    # a factor-less host on which restarts keep failing at new vertices:
    # they end after at most |Y| restarts and fewer than |E| + |Y|
    # Y-visits, with the degree-ordered pass's selection
    g = incidence_graph(h)
    assert greedy_selection(g, DegreeSpec(k)) == (
        oracles.greedy_single_pass(g, k))
    assert restarts == passes
    assert sum(v for _, v in restarts) == visits
    assert _within_bound(g, restarts)
    assert visits < sum(map(len, g.neighbors)) + g.y_count


def _graph_classes(n):
    # one labelled graph per isomorphism class on n vertices: each new
    # edge mask marks its whole orbit under the n! relabellings as seen
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    maps = [[index[min(s[u], s[v]), max(s[u], s[v])] for u, v in pairs]
            for s in permutations(range(n))]
    seen = bytearray(1 << len(pairs))
    for mask in range(len(seen)):
        if not seen[mask]:
            bits = [i for i in range(len(pairs)) if mask >> i & 1]
            for m in maps:
                seen[sum(1 << m[i] for i in bits)] = 1
            yield Hypergraph(n, [pairs[i] for i in bits])


def _contraction_hosts():
    # graph hosts, where every X-vertex has degree 2 and is contracted:
    # every labelled graph on n <= 5 vertices and every isomorphism class
    # on 6; then 300 seeded random hypergraphs with edge sizes 1-4, which
    # mix contracted X-vertices with blocks; sparse hosts included, at
    # k = 1..3
    for n in range(1, 6):
        for h in enumerate_graph_edge_sets(n):
            for k in (1, 2, 3):
                yield incidence_graph(h), DegreeSpec(k)
    for h in _graph_classes(6):
        for k in (1, 2, 3):
            yield incidence_graph(h), DegreeSpec(k)
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(2, 7)
        edges = [rng.sample(range(n), rng.randint(1, min(4, n)))
                 for _ in range(rng.randint(1, 8))]
        yield incidence_graph(Hypergraph(n, edges)), DegreeSpec(rng.randint(1, 3))


def test_contracted_gadget_is_exact():
    # contracting degree-2 X-vertices keeps the gadget's deficiency
    # |V| - 2 nu equal to the full split-incidence gadget's, and the
    # factor search agrees with backtracking
    hosts = mixed = 0
    for g, spec in _contraction_hosts():
        gg = build_gadget(g, spec).graph
        got = gg.n - 2 * len(max_matching(gg))
        assert got == oracles.gadget_deficiency(g, spec.k), (g, spec)
        f = find_2k_factor(g, spec)
        want = oracles.has_2k_factor(g.x_count, g.y_count, g.neighbors, spec.k)
        assert (f is not None) == want, (g, spec)
        hosts += 1
        kinds = {len(ys) == 2 for ys in g.neighbors}
        mixed += len(kinds) == 2
    assert hosts == 3 * (1 + 2 + 8 + 64 + 1024 + 156) + 300
    assert mixed == 211  # random hosts with both kinds of X-vertex


def test_degree_two_x_shares_one_edge():
    # a degree-2 X-vertex owns no gadget vertex, and both its incidences
    # map to the one edge joining its two Y-ends
    shared = 0
    for g, spec in _contraction_hosts():
        gadget = build_gadget(g, spec)
        edges = set(gadget.graph.edges)
        owners = set(gadget.owner)
        for x, ys in enumerate(g.neighbors):
            ends = [gadget.inter_edges[x, g.x_count + y] for y in ys]
            assert all(e in edges for e in ends), (g, spec, x)
            if len(ys) == 2:
                assert ends[0] == ends[1] and x not in owners, (g, spec, x)
                shared += 1
            else:
                assert len(set(ends)) == len(ys) and x in owners, (g, spec, x)
    assert shared > 0


def test_lazy_search_returns_the_eager_factor():
    # find_2k_factor builds only the gadget vertices its forests reach,
    # and reads the factor off the mate array; it returns exactly the
    # factor read off a matching of the whole, eagerly built gadget from
    # the same start
    for g, spec in chain(_gadget_census(), _contraction_hosts()):
        gadget = build_gadget(g, spec)
        match = list(gadget.start)
        want = None
        if complete_matching(match, gadget.graph.adjacency):
            picks = [[] for _ in g.neighbors]
            for (x, y), (ex, ey) in gadget.inter_edges.items():
                if match[ex] != ey:
                    picks[x].append(y - g.x_count)
            want = BergeFactorCertificate(spec.k, tuple(
                (x, tuple(pick)) for x, pick in enumerate(picks) if pick))
        assert find_2k_factor(g, spec) == want, (g, spec)


@pytest.fixture
def laid_out(monkeypatch):
    """The gadgets the factor search laid out, as lists of the vertices
    whose neighbours it built."""
    gadgets = []
    real = factor_solver.build_gadget

    def counting(*args):
        gadget = real(*args)
        built = []
        gadgets.append(built)

        def expand(v):
            built.append(v)
            return gadget.expand(v)
        return dataclasses.replace(gadget, expand=expand)

    monkeypatch.setattr(factor_solver, "build_gadget", counting)
    return gadgets


@pytest.mark.parametrize("h, k, n, want", [
    # the selection is a factor, so no gadget is laid out
    (cycle(4), 2, 16, 0),
    # the first pass leaves 4 copies unmet, and a restart meets them
    (complete_graph(6), 3, 48, 0),
    (complete_graph(6), 1, 36, 0),  # a factor again
    # the restarts leave 2 copies unmet, and the forests from them reach
    # 17 of the 30 vertices
    (complete_graph(5), 2, 30, 17),
])
def test_factor_search_builds_only_what_its_forests_reach(laid_out, h, k,
                                                          n, want):
    # a gadget is laid out only when the selection leaves need, and
    # then its start is not perfect, so the forests build some vertex
    g = incidence_graph(h)
    assert find_2k_factor(g, DegreeSpec(k)) is not None
    assert [len(built) for built in laid_out] == ([want] if want else [])
    assert all(len(built) == len(set(built)) for built in laid_out)
    assert factor_solver.build_gadget(g, DegreeSpec(k)).n == n


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
    assert f.pairs == tuple(enumerate(cycle(5).edges))


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

    # the gadget line counts edges by closed forms, without expanding
    # the gadget; they equal the eagerly built gadget's on seeded random
    # hosts with X-vertices of degree 0, 1, 2 and more, past the sparse
    # and parity exits
    rng = random.Random(61)
    traced = set()
    for _ in range(300):
        g = _random_bipartite(rng, 8, 6)
        spec = DegreeSpec(rng.choice((1, 2, 3)))
        if sparse_y_vertex(g, spec) is not None or spec.k * g.y_count % 2:
            continue
        lines.clear()
        find_2k_factor(g, spec, trace=lines.append)
        gadget = build_gadget(g, spec)
        assert lines[0] == (
            f"gadget: {gadget.n} vertices, {len(gadget.graph.edges)} edges "
            f"({len(set(gadget.inter_edges.values()))} incidence edges)"), (
            g, spec)
        traced.update(min(len(ys), 3) for ys in g.neighbors)
    assert traced == {0, 1, 2, 3}


# ---------------------------------------------------------------- verify


def test_verify_2k_factor_rejections():
    # one case per reason of the kernel it shares with
    # `verify_berge_factor`, each on the host's X-rows
    g = incidence_graph(cycle(4))
    ok = find_2k_factor(g, DegreeSpec(2))
    assert verify_2k_factor(g, ok)
    assert ok.pairs == tuple(enumerate(cycle(4).edges))

    def check(pairs):
        return verify_2k_factor(g, BergeFactorCertificate(2, pairs))

    v = check(ok.pairs + ((g.x_count, (0, 1)),))
    assert not v and v.reason == (
        f"malformed certificate: pair ({g.x_count}, (0, 1))")
    v = check(ok.pairs[:-1] + ((3, (0, g.y_count)),))
    assert not v and v.reason == (
        f"malformed certificate: pair (3, (0, {g.y_count}))")

    v = check(((0, (1, 1)),) + ok.pairs[1:])
    assert not v and v.reason == "malformed certificate: pair (0, (1, 1))"

    v = check((ok.pairs[0],) + ok.pairs)
    assert not v and v.reason == "injection violated: hyperedge 0 used twice"

    v = check(((0, (0, 3)),) + ok.pairs[1:])
    assert not v and v.reason == (
        "containment violated: (0, 3) not inside hyperedge 0")

    # X-vertex 0 drops its pair: its two Y-neighbours fall to degree 1
    v = check(ok.pairs[1:])
    assert not v and v.reason == (
        "degree violated: vertex 0 has degree 1, want 2")


def test_verify_2k_factor_x_degree_rule():
    # an X-vertex takes the two ends of its pair, so X-degree 0 or 2
    # needs no rule of its own: degree 1 or 3 is a pair of the wrong
    # length, which is malformed
    g = BipartiteGraph(1, 3, [(0, 1, 2)])
    for pick in ((0,), (0, 1, 2)):
        v = verify_2k_factor(g, BergeFactorCertificate(1, ((0, pick),)))
        assert not v and v.reason == f"malformed certificate: pair (0, {pick})"


def test_factor_is_the_berge_certificate():
    # the (2,k)-factor of the incidence graph is the Berge certificate
    # itself, canonical as `BergeFactorCertificate.make` would give it
    rng = random.Random(73)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        h = Hypergraph(n, [rng.sample(range(n), rng.randint(1, min(4, n)))
                           for _ in range(rng.randint(1, 2 * n))])
        k = rng.randint(1, 3)
        cert = find_2k_factor(incidence_graph(h), DegreeSpec(k))
        assert cert == find_berge_k_factor(h, k), (h, k)
        if cert is not None:
            found += 1
            assert cert == BergeFactorCertificate.make(k, cert.pairs), (h, k)
    assert found > 20


def test_odd_k_times_y_answers_before_any_selection(monkeypatch):
    # a factor's Y-degrees sum to k|Y|, twice the selected X-vertices,
    # so K_21 at k = 1 has none, and the search says so before it
    # selects or lays out anything
    def refuse(*args):
        raise AssertionError("called past the parity exit")

    monkeypatch.setattr(factor_solver, "greedy_selection", refuse)
    monkeypatch.setattr(factor_solver, "build_gadget", refuse)
    lines = []
    g = incidence_graph(complete_graph(21))
    assert find_2k_factor(g, DegreeSpec(1), trace=lines.append) is None
    assert lines == ["parity: k|Y| = 21 is odd, no factor"]


# ------------------------------------------------------------------ lift


def test_lift_cycle_certificate():
    h = cycle(5)
    f = find_2k_factor(incidence_graph(h), DegreeSpec(2))
    cert = lift_to_berge(h, f)
    assert cert.k == 2
    assert len(cert.pairs) == 5
    assert verify_berge_factor(h, cert)


def test_lift_rejects_odd_x_degree():
    # hyperedge 0 with one vertex taken: as a one-vertex pair, or as a
    # pair that repeats it
    h = Hypergraph(2, [(0, 1)])
    for pick in ((0,), (0, 0)):
        with pytest.raises(ValueError, match="malformed certificate"):
            lift_to_berge(h, BergeFactorCertificate(1, ((0, pick),)))


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
