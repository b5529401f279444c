"""Incidence bipartite view and Y-toughness."""

import random
from fractions import Fraction

import pytest

from bergefactor import (
    BipartiteGraph,
    BudgetExceededError,
    Hypergraph,
    hypergraph_of,
    incidence_graph,
    toughness,
)
from bergefactor.families import cycle, star

import oracles


def test_bipartite_graph_canonicalizes_rows():
    g = BipartiteGraph(2, 3, [(2, 0), (1,)])
    assert g.neighbors == ((0, 2), (1,))
    assert g.y_neighbors == ((0,), (1,), (0,))


def test_y_neighbors_list_fewest_y_neighbours_first():
    # the order in which the greedy warm start scans: x1 has two
    # Y-neighbours and x0 three, so y0 lists x1 first; x0 and x2 tie
    # and keep X order
    g = incidence_graph(Hypergraph(4, [(0, 1, 2), (0, 3), (1, 2, 3)]))
    assert g.y_neighbors == ((1, 0), (0, 2), (0, 2), (1, 2))
    # one X-degree: X order
    g = incidence_graph(cycle(4))
    assert g.neighbors == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert g.y_neighbors == ((0, 1), (0, 2), (2, 3), (1, 3))
    rng = random.Random(29)
    for _ in range(40):
        ny = rng.randint(1, 6)
        rows = [rng.sample(range(ny), rng.randint(0, ny))
                for _ in range(rng.randint(0, 6))]
        g = BipartiteGraph(len(rows), ny, rows)
        assert g.y_neighbors == tuple(
            tuple(sorted((x for x, ys in enumerate(g.neighbors) if y in ys),
                         key=lambda x: (len(g.neighbors[x]), x)))
            for y in range(ny)), g


def test_bipartite_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, [(0, 0)])
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, [(2,)])
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [(0,)])  # row count mismatch


def test_incidence_round_trip():
    h = Hypergraph(4, [(0, 1, 2), (1, 3), (1, 3)])
    g = incidence_graph(h)
    assert g.x_count == 3 and g.y_count == 4
    assert g.neighbors == ((0, 1, 2), (1, 3), (1, 3))
    assert hypergraph_of(g) == h


def test_hypergraph_of_rejects_isolated_x():
    g = BipartiteGraph(2, 2, [(0, 1), ()])
    with pytest.raises(ValueError, match="isolated"):
        hypergraph_of(g)


def test_y_toughness_equals_hypergraph_toughness():
    for h in [cycle(5), star(3), Hypergraph(4, [(0, 1, 2), (2, 3)])]:
        assert toughness(hypergraph_of(incidence_graph(h))).value == (
            toughness(h).value)


def test_y_toughness_witness_is_y_local():
    tv = toughness(hypergraph_of(incidence_graph(star(3))))
    assert tv.value == Fraction(1, 3)
    assert tv.witness == (0,)


def test_y_toughness_matches_oracle_random():
    rng = random.Random(17)
    for _ in range(40):
        ny = rng.randint(1, 5)
        nx = rng.randint(0, 4)
        rows = []
        for _ in range(nx):
            size = rng.randint(1, ny)
            rows.append(tuple(sorted(rng.sample(range(ny), size))))
        g = BipartiteGraph(nx, ny, rows)
        got = toughness(hypergraph_of(g))
        val, wit = oracles.y_toughness_oracle(nx, ny, rows)
        assert got.value == val
        assert got.witness == wit


def test_y_toughness_rejects_isolated_x_and_budget():
    with pytest.raises(ValueError):
        toughness(hypergraph_of(BipartiteGraph(1, 1, [()])))
    with pytest.raises(BudgetExceededError):
        toughness(hypergraph_of(incidence_graph(star(6))), budget=4)
