"""Hypergraph model: components, strong deletion, toughness, verification."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from bergefactor import (
    BergeFactorCertificate,
    BudgetExceededError,
    Hypergraph,
    ToughnessValue,
    components,
    is_complete,
    strong_delete,
    toughness,
    verify_berge_factor,
)
from bergefactor import hypergraph
from bergefactor.families import (
    complete_graph,
    complete_uniform,
    cycle,
    path,
    petersen,
    star,
)

import oracles


# ---------------------------------------------------------------- model


def test_edges_are_canonicalized():
    h = Hypergraph(4, [(2, 0), (3, 1, 2)])
    assert h.edges == ((0, 2), (1, 2, 3))


def test_duplicate_edges_keep_their_positions():
    h = Hypergraph(3, [(0, 1), (1, 0)])
    assert h.edges == ((0, 1), (0, 1))


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(-1)


def test_equality_and_hash():
    a = Hypergraph(3, [(0, 1)])
    b = Hypergraph(3, [(1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Hypergraph(4, [(0, 1)])


# ----------------------------------------------------------- components


def test_components_of_path_and_edgeless():
    assert components(path(4)) == [(0, 1, 2, 3)]
    assert components(Hypergraph(3)) == [(0,), (1,), (2,)]


def test_components_mixed():
    h = Hypergraph(6, [(0, 1, 2), (4, 5)])
    assert components(h) == [(0, 1, 2), (3,), (4, 5)]


def test_components_match_oracle_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        m = rng.randint(0, 6)
        edges = []
        for _ in range(m):
            size = rng.randint(1, n)
            edges.append(tuple(sorted(rng.sample(range(n), size))))
        h = Hypergraph(n, edges)
        assert components(h) == oracles.hypergraph_components(n, edges)


# -------------------------------------------------------- strong delete


def test_strong_delete_removes_touched_edges():
    h = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    sd = strong_delete(h, [1])
    assert sd.hypergraph.n == 3
    # only (2, 3) survives, relabeled as (1, 2)
    assert sd.hypergraph.edges == ((1, 2),)
    assert sd.vertex_map == {0: 0, 2: 1, 3: 2}
    assert sd.edge_map == {2: 0}


def test_strong_delete_empty_set_is_identity():
    h = Hypergraph(3, [(0, 1, 2)])
    sd = strong_delete(h, [])
    assert sd.hypergraph == h
    assert sd.vertex_map == {0: 0, 1: 1, 2: 2}
    assert sd.edge_map == {0: 0}


def test_strong_delete_validates_vertices():
    with pytest.raises(ValueError):
        strong_delete(Hypergraph(2, [(0, 1)]), [2])


# ------------------------------------------------------------ toughness


def test_toughness_cycles():
    for n in range(4, 9):
        tv = toughness(cycle(n))
        assert tv.value == 1


def test_toughness_star():
    tv = toughness(star(3))
    assert tv.value == Fraction(1, 3)
    assert tv.witness == (0,)


def test_toughness_complete_3_uniform_on_4():
    tv = toughness(complete_uniform(4, 3))
    assert tv.value == 1
    assert tv.witness == (0, 1)


def test_toughness_petersen():
    tv = toughness(petersen())
    assert tv.value == Fraction(4, 3)


def test_toughness_edgeless():
    tv = toughness(Hypergraph(3))
    assert tv.value == 0
    assert tv.witness == ()


def test_toughness_single_edge_is_infinite():
    tv = toughness(Hypergraph(2, [(0, 1)]))
    assert tv.infinite
    assert tv.witness is None
    assert str(tv) == "infinite"


def test_toughness_value_formatting_and_bounds():
    tv = ToughnessValue(Fraction(1), (0,))
    assert str(tv) == "1/1"
    assert tv.satisfies(1)
    assert not tv.satisfies(2)
    assert ToughnessValue(None, None).satisfies(10**9)


def test_toughness_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(0, 5)
        edges = []
        for _ in range(m):
            size = rng.randint(1, n)
            edges.append(tuple(sorted(rng.sample(range(n), size))))
        h = Hypergraph(n, edges)
        got = toughness(h)
        val, wit = oracles.hypergraph_toughness(n, edges)
        assert got.value == val
        assert got.witness == wit


def test_toughness_matches_oracle_larger_random():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(7, 10)
        m = rng.randint(n // 2, 3 * n)
        edges = [tuple(sorted(rng.sample(range(n), rng.randint(2, 5))))
                 for _ in range(m)]
        got = toughness(Hypergraph(n, edges))
        assert (got.value, got.witness) == oracles.hypergraph_toughness(n, edges)


def test_toughness_witness_among_ties():
    # Witnesses from the oracle.  From C6 on, larger cutsets of a cycle
    # (every other vertex) also reach ratio 1; the Petersen graph has
    # five minimizing 4-sets and no larger one.
    for n in range(4, 10):
        assert toughness(cycle(n)).witness == (0, 2)
    tv = toughness(petersen())
    assert (tv.value, tv.witness) == (Fraction(4, 3), (0, 2, 8, 9))


def test_toughness_stops_at_survivor_bound(monkeypatch):
    calls = 0
    kernel = hypergraph._component_count

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(hypergraph, "_component_count", counting)
    # The empty set, then the 13 singletons: deleting the center leaves
    # 12 components, and no 2-set can beat 1/12 with at most 11.
    assert toughness(star(12)).value == Fraction(1, 12)
    assert calls == 14
    # Infinite toughness is the pair condition: no scan at all.
    calls = 0
    assert toughness(complete_graph(6)).infinite
    assert calls == 0
    # One pair short of complete: the scan runs and stops after level 4
    # (ratio 4/2 = 2, and 5 / (6 - 5) cannot beat it).
    calls = 0
    k6_less_one = Hypergraph(6, complete_graph(6).edges[1:])
    assert toughness(k6_less_one) == ToughnessValue(Fraction(2), (2, 3, 4, 5))
    assert calls == 57


def test_toughness_count_stops_below_need(monkeypatch):
    # Same cutsets as the full count, fewer union-find finds: a count
    # stops once it falls below the components that could improve or
    # tie the best ratio.  Full counts would make `full` finds.
    calls = 0
    find = hypergraph._find

    def counting(*args):
        nonlocal calls
        calls += 1
        return find(*args)

    monkeypatch.setattr(hypergraph, "_find", counting)
    for n, value, want, full in ((6, Fraction(2), 256, 448),
                                 (8, Fraction(3), 1536, 3456)):
        calls = 0
        less_one = Hypergraph(n, complete_graph(n).edges[1:])
        assert toughness(less_one) == ToughnessValue(
            value, tuple(range(2, n)))
        assert calls == want < full


def test_toughness_budget_refusal():
    with pytest.raises(BudgetExceededError):
        toughness(Hypergraph(5, [(0, 1)]), budget=4)


def test_toughness_budget_env_override(monkeypatch):
    monkeypatch.setenv("BF_BUDGET", "3")
    with pytest.raises(BudgetExceededError):
        toughness(Hypergraph(4, [(0, 1)]))
    monkeypatch.setenv("BF_BUDGET", "4")
    assert toughness(Hypergraph(4, [(0, 1)])).value == 0


# --------------------------------------------------------- completeness


def test_is_complete_matches_infinite_toughness():
    rng = random.Random(13)
    for trial in range(80):
        n = rng.randint(1, 6)
        m = rng.randint(0, 6)
        # Every other input starts from all 2-edges, possibly less one,
        # so complete and near-complete inputs both occur.
        edges = [] if trial % 2 else list(combinations(range(n), 2))
        if edges and rng.random() < 0.5:
            edges.pop(rng.randrange(len(edges)))
        for _ in range(m):
            size = rng.randint(1, n)
            edges.append(tuple(sorted(rng.sample(range(n), size))))
        rng.shuffle(edges)
        assert is_complete(Hypergraph(n, edges)) == (
            oracles.hypergraph_toughness(n, edges)[0] is None)


def test_complete_graph_is_complete():
    assert is_complete(complete_graph(4))
    assert not is_complete(cycle(4))
    assert is_complete(Hypergraph(1))
    # A pair check, so no enumeration budget applies.
    assert is_complete(complete_graph(25))


# ----------------------------------------------------------- factor check


def test_verify_accepts_cycle_2_factor():
    h = cycle(5)
    cert = BergeFactorCertificate.make(
        2, [(i, h.edges[i]) for i in range(5)])
    assert verify_berge_factor(h, cert)


def test_verify_accepts_identity_on_complete_uniform():
    # K4 as a 2-uniform clique: the six pairs form a 3-regular graph.
    h = complete_graph(4)
    cert = BergeFactorCertificate.make(
        3, [(i, h.edges[i]) for i in range(6)])
    assert verify_berge_factor(h, cert)


def test_verify_rejects_injection_violation():
    h = Hypergraph(4, [(0, 1, 2, 3)])
    cert = BergeFactorCertificate.make(1, [(0, (0, 1)), (0, (2, 3))])
    v = verify_berge_factor(h, cert)
    assert not v
    assert "injection" in v.reason


def test_verify_rejects_containment_violation():
    h = Hypergraph(4, [(0, 1), (2, 3)])
    cert = BergeFactorCertificate.make(1, [(0, (0, 1)), (1, (1, 2))])
    v = verify_berge_factor(h, cert)
    assert not v
    assert "containment" in v.reason


def test_verify_rejects_degree_violation():
    h = cycle(4)
    cert = BergeFactorCertificate.make(1, [(0, (0, 1))])
    v = verify_berge_factor(h, cert)
    assert not v
    assert "degree" in v.reason
    assert "vertex 2" in v.reason


def test_verify_rejects_malformed_pairs():
    h = Hypergraph(3, [(0, 1, 2)])
    bad_edge = BergeFactorCertificate(1, ((5, (0, 1)),))
    assert "malformed" in verify_berge_factor(h, bad_edge).reason
    loop = BergeFactorCertificate(1, ((0, (1, 1)),))
    assert "malformed" in verify_berge_factor(h, loop).reason


def test_certificate_make_sorts():
    cert = BergeFactorCertificate.make(1, [(2, (3, 1)), (0, (5, 4))])
    assert cert.pairs == ((0, (4, 5)), (2, (1, 3)))
