"""General-graph maximum matching (blossom algorithm)."""

import random
from itertools import combinations

import pytest

from bergefactor import (BipartiteGraph, DegreeSpec, GeneralGraph, Hypergraph,
                         build_gadget, complete_matching, find_2k_factor,
                         incidence_graph, is_perfect, matching, max_matching)
from bergefactor.families import complete_bipartite, complete_graph, star

import oracles


def test_graph_model():
    g = GeneralGraph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))  # parallel edges collapse
    with pytest.raises(ValueError):
        GeneralGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        GeneralGraph(2, [(0, 2)])


def test_is_perfect_on_pairs():
    g = GeneralGraph(4, [(0, 1), (2, 3), (1, 2)])
    m = ((0, 1), (2, 3))
    assert len(m) == 2
    assert is_perfect(g, m)
    assert not is_perfect(g, ((1, 2),))


def test_is_perfect_rejects_foreign_edges():
    g = GeneralGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        is_perfect(g, ((0, 2), (1, 3)))
    with pytest.raises(ValueError):
        is_perfect(g, ((0, 1), (1, 2)))  # vertex reused


def test_odd_cycle_matching():
    g = GeneralGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert len(max_matching(g)) == 2


def test_blossom_with_stem():
    # triangle 2-3-4 reached through the path 0-1-2, plus an escape 4-5:
    # augmenting through the blossom is required for the perfect matching
    g = GeneralGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
    m = max_matching(g)
    assert len(m) == 3
    assert is_perfect(g, m)


def test_petersen_graph_has_perfect_matching():
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    g = GeneralGraph(10, edges)
    assert len(max_matching(g)) == 5


def test_max_matching_is_deterministic():
    g = GeneralGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
    first = max_matching(g)
    assert all(max_matching(g) == first for _ in range(5))


def test_exhaustive_up_to_five_vertices():
    # every graph on <= 5 vertices, by edge-subset mask; the acceptance
    # suite extends this sweep to 6 vertices
    for n in range(6):
        all_pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(all_pairs)):
            edges = [all_pairs[i] for i in range(len(all_pairs))
                     if (mask >> i) & 1]
            g = GeneralGraph(n, edges)
            m = max_matching(g)
            assert len(m) == oracles.max_matching_size(n, edges)
            used = [v for e in m for v in e]
            assert len(used) == len(set(used))
            assert all(e in g.edges for e in m)


def test_random_up_to_ten_vertices():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 10)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(0, len(pairs))
        edges = rng.sample(pairs, m)
        g = GeneralGraph(n, edges)
        m = max_matching(g)
        assert len(m) == oracles.max_matching_size(n, edges)
        is_perfect(g, m)  # raises unless m is a matching of g


def _pairs(match):
    # the mate array's pairs, (smaller, larger) in ascending order
    return tuple((v, w) for v, w in enumerate(match) if v < w)


def test_perfect_matching_rejects_a_start_that_is_no_matching():
    g = GeneralGraph(4, [(0, 1), (1, 2), (2, 3)])
    match = [1, 0, -1, -1]
    assert complete_matching(match, g.adjacency)
    assert _pairs(match) == ((0, 1), (2, 3))
    for start in ([1, -1, -1, -1],  # not an involution
                  [2, -1, 0, -1],  # 0-2 is no edge
                  [0, -1, -1, -1],  # a loop
                  [1, 0, 4, -1],  # mate out of range
                  [1, 0, -1]):  # wrong length
        with pytest.raises(ValueError):
            complete_matching(list(start), g.adjacency)


def test_same_matching_as_reference_random():
    # mixed densities on up to 40 vertices, so that blossoms nest; the
    # phases may pick other edges than the reference's one root at a
    # time, so the size is compared and the edges validated
    rng = random.Random(23)
    for _ in range(3000):
        n = rng.randint(10, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.35, 0.6))
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        g = GeneralGraph(n, edges)
        m = max_matching(g)
        is_perfect(g, m)  # raises unless m is a matching of g
        assert len(m) == len(oracles.max_matching_reference(g))


def test_same_matching_as_reference_on_gadgets():
    rng = random.Random(29)
    for _ in range(60):
        nx, ny = rng.randint(2, 20), rng.randint(1, 12)
        rows = [tuple(sorted(rng.sample(range(ny), rng.randint(0, ny))))
                for _ in range(nx)]
        gadget = build_gadget(BipartiteGraph(nx, ny, rows),
                              DegreeSpec(rng.choice((1, 2, 3))))
        g = gadget.graph
        m = max_matching(g)
        is_perfect(g, m)  # raises unless m is a matching of g
        assert len(m) == len(oracles.max_matching_reference(g))
        # the factor route's call: the warm start, lazily expanded
        match = list(gadget.start)
        warm = complete_matching(match, [None] * gadget.n, gadget.expand)
        assert warm == (2 * len(m) == gadget.n)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(roots, trees retired) of every call of the search kernel."""
    calls = []
    search = matching._augment_from

    def recorded(roots, *args):
        calls.append((len(roots), search(roots, *args)))
        return calls[-1][1]

    monkeypatch.setattr(matching, "_augment_from", recorded)
    return calls


def _seeded_hypergraph(seed):
    # n 4..10 vertices, n..3n edges, most of size 2, the rest 3 or 4
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    return Hypergraph(n, [
        tuple(sorted(rng.sample(range(n), rng.choice((2, 2, 2, 3, 4)))))
        for _ in range(rng.randint(n, 3 * n))])


@pytest.mark.parametrize("h, k, want", [
    # one phase from every exposed vertex retires no tree: its forest is
    # Hungarian, so there is no factor and no search follows
    (star(4), 1, [(3, 0)]),
    (complete_bipartite(2, 4), 2, [(4, 0)]),
    # a 10-vertex host whose greedy restarts leave four roots: the first
    # phase joins two trees, and the second phase, from the two roots
    # still exposed, joins the last two
    (_seeded_hypergraph(23), 3, [(4, 2), (2, 2)]),
    # three roots: one augmentation leaves one, whose phase fails
    (complete_graph(5), 3, [(3, 2), (1, 0)]),
])
def test_factor_search_stops_at_first_failed_root(kernel_calls, h, k, want):
    g = incidence_graph(h)
    spec = DegreeSpec(k)
    if k * g.y_count % 2:
        # the factor search answers an odd k|Y| before any gadget, so
        # the matcher runs here as it would: on the gadget of the
        # degree-ordered pass, from its warm start
        gadget = build_gadget(g, spec)
        match = list(gadget.start)
        found = complete_matching(match, [None] * gadget.n, gadget.expand)
    else:
        found = find_2k_factor(g, spec) is not None
    assert kernel_calls == want
    # a factor-less host ends on the one call that retired nothing
    assert (not found) == (kernel_calls[-1][1] == 0)
    assert all(retired for _, retired in kernel_calls[:-1])


def test_trees_meet_between_non_base_blossom_vertices(kernel_calls):
    # Two 5-cycles, 0-1=2-3=4-0 and 5-6=7-8=9-5, whose = edges are the
    # start, leaving roots 0 and 5 exposed.  Each tree contracts its cycle onto its root
    # before the trees meet on 1-6, and each side then flips the long
    # way round its blossom.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 9), (1, 6)]
    g = GeneralGraph(10, edges)
    match = [-1, 2, 1, 4, 3, -1, 7, 6, 9, 8]
    assert complete_matching(match, g.adjacency)
    pm = _pairs(match)
    assert is_perfect(g, pm)
    assert pm == ((0, 4), (1, 6), (2, 3), (5, 9), (7, 8))
    assert kernel_calls == [(2, 2)]


def test_perfect_matching_from_random_maximal_starts(monkeypatch):
    # Random maximal matchings as warm starts reach repeated phases, on
    # graphs with and without a perfect matching.  Each phase starts from
    # exactly the roots the previous one left exposed, and a graph with
    # no perfect matching ends on a phase that retires nothing.
    calls = []  # (roots, trees retired, roots left exposed)
    search = matching._augment_from

    def recorded(roots, adj, match, *args):
        retired = search(roots, adj, match, *args)
        calls.append((list(roots), retired,
                      [v for v in roots if match[v] == -1]))
        return retired

    monkeypatch.setattr(matching, "_augment_from", recorded)
    rng = random.Random(31)
    phased = failed = 0
    for _ in range(2000):
        n = rng.randint(10, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.35, 0.6))
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        g = GeneralGraph(n, edges)
        start = [-1] * n
        for u, w in rng.sample(g.edges, len(g.edges)):
            if start[u] == -1 and start[w] == -1:
                start[u], start[w] = w, u
        calls.clear()
        match = list(start)
        perfect = complete_matching(match, g.adjacency)
        size = len(oracles.max_matching_reference(g))
        assert perfect == (2 * size == n)
        # perfect or not, the pairs left are a maximum matching
        pairs = _pairs(match)
        assert is_perfect(g, pairs) == perfect
        assert len(pairs) == size
        # the first phase starts from exactly the start's exposed vertices
        exposed = [v for v in range(n) if start[v] == -1]
        assert calls[0][0] == exposed if exposed else not calls
        for (_, _, left), (roots, _, _) in zip(calls, calls[1:]):
            assert roots == left
        assert all(retired for _, retired, _ in calls[:-1])
        if not perfect:
            assert calls[-1][1] == 0
            failed += 1
        phased += len(calls) > 1
    assert phased and failed
