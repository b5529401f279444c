"""General-graph maximum matching (blossom algorithm)."""

import random
from itertools import combinations

import pytest

from bergefactor import (BipartiteGraph, DegreeSpec, GeneralGraph, Matching,
                         build_gadget, find_2k_factor, incidence_graph,
                         is_perfect, matching, max_matching, perfect_matching)
from bergefactor.families import complete_bipartite, complete_graph, star

import oracles


def test_graph_model():
    g = GeneralGraph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))  # parallel edges collapse
    with pytest.raises(ValueError):
        GeneralGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        GeneralGraph(2, [(0, 2)])


def test_matching_make_and_perfect():
    g = GeneralGraph(4, [(0, 1), (2, 3), (1, 2)])
    m = Matching.make([(1, 0), (3, 2)])
    assert len(m) == 2
    assert is_perfect(g, m)
    assert not is_perfect(g, Matching.make([(1, 2)]))


def test_is_perfect_rejects_foreign_edges():
    g = GeneralGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        is_perfect(g, Matching.make([(0, 2), (1, 3)]))
    with pytest.raises(ValueError):
        is_perfect(g, Matching.make([(0, 1), (1, 2)]))  # vertex reused


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
    assert all(max_matching(g).edges == first.edges for _ in range(5))


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
            used = [v for e in m.edges for v in e]
            assert len(used) == len(set(used))
            assert all(e in g.edges for e in m.edges)
            assert perfect_matching(g) == (m if 2 * len(m) == n else None)


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
        assert perfect_matching(g) == (m if 2 * len(m) == n else None)


def test_perfect_matching_rejects_a_start_that_is_no_matching():
    g = GeneralGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert perfect_matching(g, [1, 0, -1, -1]).edges == ((0, 1), (2, 3))
    for start in ([1, -1, -1, -1],  # not an involution
                  [2, -1, 0, -1],  # 0-2 is no edge
                  [0, -1, -1, -1],  # a loop
                  [1, 0, 4, -1],  # mate out of range
                  [1, 0, -1]):  # wrong length
        with pytest.raises(ValueError):
            perfect_matching(g, start)


def test_same_matching_as_reference_random():
    # mixed densities on up to 40 vertices, so that blossoms nest; the
    # exact edges are compared, not just the size
    rng = random.Random(23)
    for _ in range(3000):
        n = rng.randint(10, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.35, 0.6))
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        g = GeneralGraph(n, edges)
        assert max_matching(g).edges == oracles.max_matching_reference(g)


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
        assert m.edges == oracles.max_matching_reference(g)
        assert perfect_matching(g) == (m if 2 * len(m) == g.n else None)


@pytest.mark.parametrize("h, k, want", [
    (star(4), 1, [False]),  # max_matching runs 3 searches, all failing
    (complete_bipartite(2, 4), 2, [False]),  # 4, all failing
    # the warm start leaves two roots; both augment, and there is a factor
    (complete_graph(6), 3, [True, True]),
    # the warm start leaves two roots; the first augments, the second
    # fails, and that failure already rules the factor out
    (complete_graph(5), 3, [True, False]),
])
def test_factor_search_stops_at_first_failed_root(monkeypatch, h, k, want):
    calls = []
    search = matching._augment_from

    def recorded(*args):
        calls.append(search(*args))
        return calls[-1]

    monkeypatch.setattr(matching, "_augment_from", recorded)
    found = find_2k_factor(incidence_graph(h), DegreeSpec(k))
    assert calls == want
    assert (found is None) == (False in calls)
