"""Hypergraph model: components, strong deletion, toughness, verification."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

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
    complete_bipartite,
    complete_graph,
    complete_uniform,
    cycle,
    path,
    petersen,
    star,
)

from bergefactor.harness import enumerate_hypergraphs

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


def _census_size_hosts():
    """30 seeded hosts at the sizes of the benchmark census: n 11..13,
    m n..3n, edges of size 2..6."""
    rng = random.Random(20261017)
    hosts = []
    for trial in range(30):
        n = 11 + trial % 3
        m = rng.randint(n, 3 * n)
        hosts.append(Hypergraph(n, [rng.sample(range(n), rng.randint(2, 6))
                                    for _ in range(m)]))
    return hosts


def test_toughness_matches_oracle_at_census_size():
    for h in _census_size_hosts():
        got = toughness(h)
        assert ((got.value, got.witness)
                == oracles.hypergraph_toughness(h.n, h.edges))


def test_toughness_witness_off_the_visit_order():
    # Deleting vertex 1 or vertex 2 leaves 2 components, and no cutset
    # does better.  Vertex 2 has the higher degree, so the search
    # reaches {2} first; the witness is still the least tuple, (1,).
    edges = [(0, 2), (0, 6), (1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (3, 4)]
    tv = toughness(Hypergraph(7, edges))
    assert (tv.value, tv.witness) == (Fraction(1, 2), (1,))
    assert (tv.value, tv.witness) == oracles.hypergraph_toughness(7, edges)


def test_toughness_witness_among_ties():
    # Witnesses from the oracle.  From C6 on, larger cutsets of a cycle
    # (every other vertex) also reach ratio 1; the Petersen graph has
    # five minimizing 4-sets and no larger one.
    for n in range(4, 10):
        assert toughness(cycle(n)).witness == (0, 2)
    tv = toughness(petersen())
    assert (tv.value, tv.witness) == (Fraction(4, 3), (0, 2, 8, 9))
    # At the default budget's edge, every level up to 9 is searched.
    tv = toughness(cycle(20))
    assert (tv.value, tv.witness) == (1, (0, 2))


def _record_levels(monkeypatch):
    """Log (size, nodes, leaves) for each level `toughness` searches."""
    log = []
    search = hypergraph._search_level

    def recording(plan, size, need, best):
        best, nodes, leaves = search(plan, size, need, best)
        log.append((size, nodes, leaves))
        return best, nodes, leaves

    monkeypatch.setattr(hypergraph, "_search_level", recording)
    return log


def test_toughness_stops_at_survivor_bound(monkeypatch):
    log = _record_levels(monkeypatch)
    # Levels 0 and 1: deleting the center leaves 12 components, and no
    # 2-set can beat 1/12 with at most 11.
    assert toughness(star(12)).value == Fraction(1, 12)
    assert [size for size, _, _ in log] == [0, 1]
    # Infinite toughness is the pair condition: no search at all.
    log.clear()
    assert toughness(complete_graph(6)).infinite
    assert log == []
    # One pair short of complete: the search runs and stops after level
    # 4 (ratio 4/2 = 2, and 5 / (6 - 5) cannot beat it).
    log.clear()
    k6_less_one = Hypergraph(6, complete_graph(6).edges[1:])
    assert toughness(k6_less_one) == ToughnessValue(Fraction(2), (2, 3, 4, 5))
    assert [size for size, _, _ in log] == [0, 1, 2, 3, 4]


def test_toughness_count_stops_below_need(monkeypatch):
    # Same value and witness as a full scan, from fewer full cutsets: a
    # partial cutset is dropped once its components so far plus its
    # vertices still to survive fall below those that could improve or
    # tie the best ratio.  Only the witness itself is reached as a full
    # cutset; a full scan would reach all C(n, s) at each level.
    log = _record_levels(monkeypatch)
    for n, value in ((6, Fraction(2)), (8, Fraction(3))):
        log.clear()
        less_one = Hypergraph(n, complete_graph(n).edges[1:])
        assert toughness(less_one) == ToughnessValue(
            value, tuple(range(2, n)))
        assert [leaves for _, _, leaves in log] == [0] * (n - 2) + [1]
        assert all(leaves < comb(n, size) for size, _, leaves in log)


def _bound_hosts():
    """Every hypergraph on 4 vertices with at most 4 edges, then 30
    seeded hosts with 5..7 vertices: 2-uniform, with singleton edges,
    and with repeated edges.  None is complete, so each is searched."""
    hosts = list(enumerate_hypergraphs(4, 4))
    rng = random.Random(33)
    for trial in range(30):
        n = 5 + trial % 3
        kind = trial // 10
        m = rng.randint(n // 2, 2 * n)
        if kind == 0:
            edges = [rng.sample(range(n), 2) for _ in range(m)]
        elif kind == 1:
            edges = [rng.sample(range(n), rng.randint(1, 4))
                     for _ in range(m)]
        else:
            edges = [rng.sample(range(n), rng.randint(2, 4))
                     for _ in range(m // 2 + 1)]
            edges += [rng.choice(edges) for _ in range(m // 2)]
        hosts.append(Hypergraph(n, edges))
    return hosts


def test_toughness_bound_is_sound(monkeypatch):
    # Search every level at every fixed need, with best = 0/1 and its
    # cutset empty: no cutset improves it, and the one tie, the empty
    # cutset, keeps it, so need never moves.
    # A node is dropped only when its bound falls below need, so a bound
    # at least the most components of any completion keeps every node
    # whose maximum reaches need (the oracle's per-node maxima), and
    # reaches exactly the full cutsets with need components or more.
    search = hypergraph._search_level
    plans = []

    def capture(plan, size, need, best):
        plans.append(plan)
        return search(plan, size, need, best)

    monkeypatch.setattr(hypergraph, "_search_level", capture)
    for h in _bound_hosts():
        plans.clear()
        toughness(h)
        n, plan = h.n, plans[0]
        order = [b.bit_length() - 1 for b, _, _ in plan]
        maxima = oracles.search_node_maxima(n, h.edges, order)
        for size in range(n):
            level = [(i, free, m) for (i, s_part, free), m in maxima.items()
                     if len(s_part) + free == size]
            for need in range(1, n - size + 2):
                _, nodes, leaves = search(plan, size, need, (0, 1, 0))
                assert leaves == sum(1 for i, _, m in level
                                     if i == n and m >= need)
                assert nodes >= sum(1 for i, free, m in level
                                    if free < n - i and m >= need)


def test_toughness_work_counts(monkeypatch):
    # Summed (levels, nodes, leaves) of the level search, so a weaker
    # bound fails here even where every value and witness holds.
    log = _record_levels(monkeypatch)
    for hosts, work in ((_census_size_hosts(), (128, 15172, 299)),
                        ([complete_bipartite(10, 10)], (11, 22802, 2)),
                        ([cycle(20)], (10, 309580, 15104))):
        log.clear()
        for h in hosts:
            toughness(h)
        assert (len(log), sum(x for _, x, _ in log),
                sum(x for _, _, x in log)) == work


def test_toughness_complete_bipartite_closed_form():
    # tau(K_{a,b}) = a/b for a <= b, witnessed by the smaller side: at
    # n = 20, the default budget's edge.
    assert toughness(complete_bipartite(10, 10)) == ToughnessValue(
        Fraction(1), tuple(range(10)))
    assert toughness(complete_bipartite(9, 11)) == ToughnessValue(
        Fraction(9, 11), tuple(range(9)))


def test_toughness_budget_refusal():
    with pytest.raises(BudgetExceededError):
        toughness(Hypergraph(5, [(0, 1)]), budget=4)


def test_toughness_budget_ignores_environment(monkeypatch):
    # A budget comes from the call or the default, never the environment.
    monkeypatch.setenv("BF_BUDGET", "3")
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
