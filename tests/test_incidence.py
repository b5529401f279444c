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
    y_toughness,
)
from bergefactor.families import cycle, star

import oracles


def test_bipartite_graph_canonicalizes_rows():
    g = BipartiteGraph(2, 3, [(2, 0), (1,)])
    assert g.neighbors == ((0, 2), (1,))
    assert g.y_neighbors == ((0,), (1,), (0,))


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
        assert y_toughness(incidence_graph(h)).value == toughness(h).value


def test_y_toughness_witness_is_y_local():
    tv = y_toughness(incidence_graph(star(3)))
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
        got = y_toughness(g)
        val, wit = oracles.y_toughness_oracle(nx, ny, rows)
        assert got.value == val
        assert got.witness == wit


def test_y_toughness_rejects_isolated_x_and_budget():
    with pytest.raises(ValueError):
        y_toughness(BipartiteGraph(1, 1, [()]))
    with pytest.raises(BudgetExceededError):
        y_toughness(incidence_graph(star(6)), budget=4)
