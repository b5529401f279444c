"""Generators, censuses, and the theorem / tightness drivers."""

from fractions import Fraction

import pytest

from bergefactor import (
    ExhaustiveMode,
    Hypergraph,
    RandomMode,
    enumerate_bipartite_graphs,
    enumerate_graph_edge_sets,
    enumerate_hypergraphs,
    gen_random_bipartite,
    gen_random_hypergraph,
    possible_edges,
    tightness_search,
    verify_theorem,
)
from bergefactor.families import star


# ------------------------------------------------------------- generators


def test_gen_random_hypergraph_validates():
    with pytest.raises(ValueError, match="n >= 2"):
        gen_random_hypergraph(1, 1, seed=1)
    with pytest.raises(ValueError, match="non-negative"):
        gen_random_hypergraph(4, -1, seed=1)
    assert gen_random_hypergraph(2, 0, seed=1) == Hypergraph(2, [])


def test_gen_random_hypergraph_reproducible():
    a = gen_random_hypergraph(6, 4, seed=99)
    assert a == gen_random_hypergraph(6, 4, seed=99)
    # The stream is pinned: theorem --trials, tightness and the random
    # acceptance suite all draw through it.
    assert list(a.edges) == [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5),
                             (0, 2, 3), (1, 2, 3, 4, 5)]


def test_gen_random_bipartite():
    g = gen_random_bipartite(4, 5, 0.4, seed=7)
    assert g == gen_random_bipartite(4, 5, 0.4, seed=7)
    assert g.x_count == 4 and g.y_count == 5
    assert all(g.neighbors)  # empty rows get a forced edge


# --------------------------------------------------------------- censuses


def test_possible_edges_counts():
    assert len(possible_edges(4)) == 11  # C(4,2) + C(4,3) + C(4,4)
    assert possible_edges(3) == [(0, 1), (0, 1, 2), (0, 2), (1, 2)]


def test_enumerate_hypergraphs_counts():
    # multisets of size <= m over 11 candidate edges on 4 vertices:
    # sum over t of C(11 + t - 1, t) for t = 0..6
    assert sum(1 for _ in enumerate_hypergraphs(4, 6)) == 12376
    assert sum(1 for _ in enumerate_hypergraphs(2, 2)) == 3
    first = next(iter(enumerate_hypergraphs(3, 2)))
    assert first == Hypergraph(3)


def test_enumerate_bipartite_counts():
    # nonempty X-rows over Y: sum over ny, nx of (2^ny - 1)^nx
    assert sum(1 for _ in enumerate_bipartite_graphs(5)) == 114
    assert sum(1 for _ in enumerate_bipartite_graphs(7)) == 7839


def test_enumerate_graph_edge_sets():
    assert sum(1 for _ in enumerate_graph_edge_sets(4)) == 64  # 2^C(4,2)
    seen = set(h.edges for h in enumerate_graph_edge_sets(3))
    assert len(seen) == 8


# ---------------------------------------------------------------- theorem


def test_verify_theorem_small_census_passes():
    rep = verify_theorem((1, 3), 1, ExhaustiveMode(max_edges=4))
    assert rep.passed
    assert rep.total == 76  # n=1: 1, n=2: 5, n=3: 70 sorted edge multisets
    # only n = 2 has k*n even; the four nonempty multisets there are
    # complete, hence eligible, and each factors
    assert rep.eligible == 4
    assert rep.factors_found == rep.eligible
    assert rep.seed is None
    assert rep.mode.startswith("exhaustive")


def test_verify_theorem_gates():
    """Instances on n = 3 are all skipped for k = 3 since n < k + 1."""
    rep3 = verify_theorem((3, 3), 3, ExhaustiveMode(max_edges=2))
    assert rep3.eligible == 0
    assert rep3.total == sum(1 for _ in enumerate_hypergraphs(3, 2))


def test_verify_theorem_k3_on_four_vertices():
    """n = 4 satisfies both hypotheses for k = 3 (4 >= k + 1 and 3*4
    even): the complete clique instances are eligible and factor."""
    rep = verify_theorem((4, 4), 3, ExhaustiveMode(max_edges=6))
    assert rep.passed
    assert rep.eligible > 0


def test_verify_theorem_random_mode():
    rep = verify_theorem((3, 6), 1, RandomMode(trials=80, seed=5))
    rep2 = verify_theorem((3, 6), 1, RandomMode(trials=80, seed=5))
    # reproducible in everything but wall time
    assert (rep.total, rep.eligible, rep.factors_found, rep.violations) == \
        (rep2.total, rep2.eligible, rep2.factors_found, rep2.violations)
    assert rep.total == 80
    assert rep.passed
    assert rep.seed == 5
    # At k = 1 on n 3-6 that stream holds no eligible instance, so the
    # theorem is also checked on one that does.
    rep = verify_theorem((3, 5), 2, RandomMode(trials=40, seed=9))
    assert rep.eligible > 0
    assert rep.factors_found == rep.eligible
    assert rep.passed


def test_verify_theorem_budget_and_validation():
    # The size caps are range checks of the call, not budgets: no budget
    # can raise them.
    with pytest.raises(ValueError, match="supports n <= 5, got 6"):
        verify_theorem((1, 6), 1, ExhaustiveMode())
    with pytest.raises(ValueError, match="supports n <= 10, got 11"):
        verify_theorem((3, 11), 1, RandomMode(trials=1, seed=0))
    with pytest.raises(ValueError):
        verify_theorem((1, 4), 1, RandomMode(trials=1, seed=0))
    with pytest.raises(ValueError):
        verify_theorem((4, 2), 1, ExhaustiveMode())


def test_violations_carry_certificates():
    """A violation record must hold a usable barrier; the easiest way to
    check the plumbing is to re-verify certificates on the passing side,
    plus the fields of the report."""
    rep = verify_theorem((2, 4), 2, ExhaustiveMode(max_edges=3))
    assert rep.passed
    assert rep.violations == ()


# -------------------------------------------------------------- tightness


def test_tightness_star_bound():
    """Within the n <= 4 census the toughest factor-less instance for
    k = 1 is the 3-leaf star at tau = 1/3."""
    res = tightness_search(1, max_instances=74, n_max=4, seed=0)
    assert res.best_tau == Fraction(1, 3)
    assert res.instance == star(3)
    assert res.barrier is not None
    assert res.barrier.delta < 0
    assert res.examined == 74
    assert res.candidates > 0


def test_tightness_half_bound_on_six():
    """Extending the census to n <= 6 finds tau = 1/2 (reached by
    K_{2,4}): no 6-vertex graph without a perfect matching is tougher,
    since a Tutte set S leaves at least |S| + 2 odd components."""
    census = 2 + 2 ** 3 + 2 ** 6 + 2 ** 10 + 2 ** 15
    res = tightness_search(1, max_instances=census, n_max=6, seed=0)
    assert res.best_tau == Fraction(1, 2)
    assert res.examined == census


def test_tightness_budget_prefix_property():
    small = tightness_search(1, max_instances=50, n_max=4, seed=3)
    large = tightness_search(1, max_instances=140, n_max=4, seed=3)
    if small.best_tau is not None:
        assert large.best_tau is not None
        assert large.best_tau >= small.best_tau


def test_tightness_zero_budget():
    res = tightness_search(2, max_instances=0, n_max=4, seed=0)
    assert res.best_tau is None
    assert res.instance is None
    assert res.barrier is None
    assert res.examined == 0
    with pytest.raises(ValueError):
        tightness_search(1, max_instances=1, n_max=1)
