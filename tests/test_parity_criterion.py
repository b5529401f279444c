"""Deficiency function, barrier scans, and barrier structure checks."""

import random

import pytest

from bergefactor import (
    BipartiteGraph,
    BudgetExceededError,
    DegreeSpec,
    FactorExistsError,
    check_barrier_structure,
    classify_component,
    decide_by_criterion,
    deficiency_scan,
    delta,
    find_biased_barrier,
    h_of_z,
    incidence_graph,
)
from bergefactor.families import cycle, star

import oracles


def _random_bipartite(rng, nx_hi=4, ny_hi=4):
    ny = rng.randint(1, ny_hi)
    nx = rng.randint(0, nx_hi)
    rows = []
    for _ in range(nx):
        size = rng.randint(0, ny)
        rows.append(tuple(sorted(rng.sample(range(ny), size))))
    return BipartiteGraph(nx, ny, rows)


def test_degree_spec_bounds():
    assert DegreeSpec(1).k == 1
    assert DegreeSpec(8).k == 8
    for bad in (0, -1, 9):
        with pytest.raises(ValueError):
            DegreeSpec(bad)


# ------------------------------------------------------------ deficiency


def test_delta_worked_example():
    # hub-and-leaves incidence graph (star on three leaves): A = {hub
    # vertex y0}, B = the three leaf vertices, k = 1.  Then f(A) = 1,
    # g(B) = 3, each leaf keeps its one X-neighbor after removing A,
    # and the three X-vertices are left as odd isolated components:
    # delta = 1 - 3 + 3 - 3 = -2.
    g = incidence_graph(star(3))
    rec = delta(g, [3], [4, 5, 6], DegreeSpec(1))
    assert rec.delta == -2
    assert rec.hw == 3


def _assert_delta_matches_oracle(g, spec, labels):
    n = g.x_count + g.y_count
    a = [v for v in range(n) if labels[v] == 1]
    b = [v for v in range(n) if labels[v] == 2]
    rec = delta(g, a, b, spec)
    want, flags, hw = oracles.delta_naive(
        g.x_count, g.y_count, g.neighbors, spec.k, a, b)
    assert rec.delta == want
    assert rec.hw == hw
    assert {c.vertices for c in rec.components} == {c for c, _ in flags}
    assert {c.vertices: c.odd for c in rec.components} == dict(flags)


def test_delta_matches_oracle_random():
    rng = random.Random(23)
    spec_pool = [DegreeSpec(1), DegreeSpec(2), DegreeSpec(3)]
    for _ in range(60):
        g = _random_bipartite(rng)
        n = g.x_count + g.y_count
        spec = rng.choice(spec_pool)
        _assert_delta_matches_oracle(
            g, spec, [rng.randint(0, 2) for _ in range(n)])


def test_delta_matches_oracle_on_large_hosts():
    # Hosts of 60-240 vertices, the size a barrier projected from a
    # failed matching is re-evaluated on; B takes X-vertices too, and
    # sparse rows leave some X-vertices isolated.
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(60, 240)
        nx = rng.randint(n // 4, 3 * n // 4)
        ny = n - nx
        density = rng.choice((0.01, 0.03, 0.06))
        rows = [[y for y in range(ny) if rng.random() < density]
                for _ in range(nx)]
        g = BipartiteGraph(nx, ny, rows)
        labels = [rng.choice((0, 0, 0, 0, 0, 0, 1, 2)) for _ in range(n)]
        _assert_delta_matches_oracle(g, DegreeSpec(rng.randint(1, 4)), labels)


def test_delta_rejects_overlap_and_range():
    g = incidence_graph(cycle(4))
    spec = DegreeSpec(1)
    with pytest.raises(ValueError):
        delta(g, [0], [0], spec)
    with pytest.raises(ValueError):
        delta(g, [99], [], spec)


def test_delta_star_barrier_value():
    # star on three leaves, k = 1: deleting the hub vertex y0 (global 3)
    # splits the graph into three edge-leaf pairs, each odd, so
    # delta = 1 - 3 = -2
    g = incidence_graph(star(3))
    rec = delta(g, [3], [], DegreeSpec(1))
    assert rec.delta == -2
    assert rec.hw == 3
    assert rec.is_barrier


def test_classify_component():
    g = incidence_graph(star(3))
    spec = DegreeSpec(1)
    assert classify_component(g, [3], [], spec, [0, 4]) == "odd"
    with pytest.raises(ValueError, match="not a component"):
        classify_component(g, [3], [], spec, [0, 5])


def test_classify_component_even():
    g = incidence_graph(cycle(4))  # 4 edges, 4 vertices, k = 2
    spec = DegreeSpec(2)
    comp = sorted(range(8))
    assert classify_component(g, [], [], spec, comp) == "even"


# ------------------------------------------------------------------ scan


def test_scan_matches_full_pair_space():
    """The optimized scan (B restricted to Y) must agree with a naive
    sweep of every disjoint pair over the whole vertex set, including
    the biased tie-break."""
    rng = random.Random(29)
    for _ in range(25):
        g = _random_bipartite(rng, nx_hi=3, ny_hi=3)
        for k in (1, 2):
            spec = DegreeSpec(k)
            got = deficiency_scan(g, spec)
            want_min, want_pair, saw_odd = oracles.scan_all_pairs(
                g.x_count, g.y_count, g.neighbors, k)
            assert got.biased.delta == want_min
            assert (got.biased.a, got.biased.b) == want_pair
            if k * g.y_count % 2 == 0:
                assert not saw_odd
                assert got.stats.odd_deltas == 0
                assert got.stats.parity_checked


def test_scan_star_frozen_values():
    g = incidence_graph(star(3))
    res = deficiency_scan(g, DegreeSpec(1))
    assert res.biased.delta == -2
    assert (res.biased.a, res.biased.b) == ((3,), ())
    assert res.stats.evaluated == 648  # 2^3 * 3^4 pairs with B inside Y
    assert res.stats.odd_deltas == 0


def test_scan_even_parity_exhaustive():
    """No odd deficiency ever appears when k * |Y| is even: checked over
    every bipartite graph with |X| + |Y| <= 5, both by the scan and by
    `delta` on every disjoint pair, B holding X-vertices included."""
    from bergefactor.harness import enumerate_bipartite_graphs

    for g in enumerate_bipartite_graphs(5):
        n = g.x_count + g.y_count
        for k in (1, 2):
            if k * g.y_count % 2:
                continue
            spec = DegreeSpec(k)
            res = deficiency_scan(g, spec)
            assert res.stats.odd_deltas == 0, (g, k)
            for code in range(3 ** n):
                digits = [code // 3 ** v % 3 for v in range(n)]
                a = [v for v in range(n) if digits[v] == 1]
                b = [v for v in range(n) if digits[v] == 2]
                assert delta(g, a, b, spec).delta % 2 == 0, (g, k, a, b)


def test_scan_counts_skipped_pairs_exactly():
    """The lower bound skips the walk over B for some U-sets, but every
    pair still counts: `evaluated` is 2^|X| * 3^|Y|, and `odd_deltas`
    is the number of odd deltas over all pairs with B inside Y, which
    is all of them when k * |Y| is odd and none when it is even."""
    from bergefactor.harness import enumerate_bipartite_graphs

    skipped = skipped_odd = 0
    for g in enumerate_bipartite_graphs(5):
        nx, ny = g.x_count, g.y_count
        n = nx + ny
        for k in (1, 2, 3):
            res = deficiency_scan(g, DegreeSpec(k))
            pairs = 2 ** nx * 3 ** ny
            assert res.stats.evaluated == pairs, (g, k)
            odd = 0
            for code in range(3 ** n):
                digits = [code // 3 ** v % 3 for v in range(n)]
                if any(digits[x] == 2 for x in range(nx)):
                    continue
                a = [v for v in range(n) if digits[v] == 1]
                b = [v for v in range(n) if digits[v] == 2]
                odd += oracles.delta_naive(nx, ny, g.neighbors, k, a, b)[0] & 1
            assert res.stats.odd_deltas == odd, (g, k)
            assert odd == (pairs if k * ny % 2 else 0), (g, k)
            if res.stats.walked < pairs:
                skipped += 1
                skipped_odd += k * ny % 2
    # Both parities of k * |Y| must reach the skipped-U counts.
    assert skipped > 300 and skipped_odd > 100


def test_scan_walk_skips_pairs_that_cannot_win():
    # The same pairs as a full walk, fewer of them scored: the walk over
    # B is skipped for a U whose lower bound is above the best delta and
    # that can hold no earlier barrier.  A full walk scores `evaluated`.
    g = incidence_graph(star(3))
    res = deficiency_scan(g, DegreeSpec(1))
    assert (res.biased.a, res.biased.b, res.biased.delta) == ((3,), (), -2)
    assert (res.first.a, res.first.b, res.first.delta) == ((3,), (), -2)
    assert res.stats.evaluated == 648
    assert res.stats.walked == 128 < 648
    # A factor-less host of the criterion benchmark's size, |X| + |Y| = 10.
    g = BipartiteGraph(5, 5, [(0, 2, 3, 4), (0, 1, 2), (1,), (4,), (1, 3, 4)])
    res = deficiency_scan(g, DegreeSpec(2))
    assert (res.biased.a, res.biased.b, res.biased.delta) == (
        (0, 1, 4), (5, 6, 7, 8, 9), -4)
    assert (res.first.a, res.first.b, res.first.delta) == (
        (), (5, 6, 7), -2)
    assert res.stats.evaluated == 7776
    assert res.stats.odd_deltas == 0
    assert res.stats.walked == 744 < 7776


def test_scan_minimum_is_gadget_deficiency_k3():
    """The scan's minimum deficiency is minus the gadget's matching
    deficiency (the Tutte-Berge formula of the split-incidence gadget),
    compared as values on the whole |X| + |Y| <= 6 census at k = 3."""
    from bergefactor.harness import enumerate_bipartite_graphs

    hosts = 0
    for g in enumerate_bipartite_graphs(6):
        got = deficiency_scan(g, DegreeSpec(3)).biased.delta
        assert got == -oracles.gadget_deficiency(g, 3), g
        hosts += 1
    assert hosts == 795


def test_scan_budget():
    g = BipartiteGraph(10, 10, [tuple(range(10))] * 10)
    with pytest.raises(BudgetExceededError):
        deficiency_scan(g, DegreeSpec(1), budget=19)


def test_scan_pair_budget():
    # Budget 4 allows 2^2 * 3^2 = 36 pairs: |X| = 2, |Y| = 2 is scanned,
    # |X| = 1, |Y| = 3 (54 pairs, also 4 vertices) is refused.
    spec = DegreeSpec(1)
    ok = BipartiteGraph(2, 2, [(0, 1), (0, 1)])
    assert deficiency_scan(ok, spec, budget=4).stats.evaluated == 36
    with pytest.raises(BudgetExceededError, match="pair budget 36"):
        deficiency_scan(BipartiteGraph(1, 3, [(0, 1, 2)]), spec, budget=4)
    # 2^2 * 3^16 = 1.7e8 pairs on 18 vertices: refused at the default.
    wide = BipartiteGraph(2, 16, [tuple(range(16)), tuple(range(8))])
    with pytest.raises(BudgetExceededError, match="pair budget"):
        deficiency_scan(wide, spec)


# ---------------------------------------------------------------- decide


def test_decide_exists_when_min_delta_nonnegative():
    g = incidence_graph(cycle(5))
    res = decide_by_criterion(g, DegreeSpec(2))
    assert res.exists
    assert res.barrier is None
    assert res.stats.evaluated > 0


def test_decide_returns_first_barrier_in_ternary_order():
    rng = random.Random(31)
    found_any = 0
    for _ in range(40):
        g = _random_bipartite(rng, nx_hi=3, ny_hi=3)
        k = rng.choice((1, 2))
        res = decide_by_criterion(g, DegreeSpec(k))
        want = oracles.first_barrier_ternary(
            g.x_count, g.y_count, g.neighbors, k)
        if want is None:
            assert res.exists
        else:
            found_any += 1
            a, b, val = want
            assert not res.exists
            assert (res.barrier.a, res.barrier.b) == (a, b)
            assert res.barrier.delta == val
    assert found_any > 3  # the sample must actually exercise barriers


def test_decide_first_barrier_on_larger_hosts():
    # |V| = 7-8 and k up to 3, beyond the small hosts above
    rng = random.Random(41)
    found_any = 0
    for _ in range(40):
        ny = rng.randint(3, 6)
        nx = rng.randint(7, 8) - ny
        rows = [tuple(sorted(rng.sample(range(ny), rng.randint(1, ny))))
                for _ in range(nx)]
        g = BipartiteGraph(nx, ny, rows)
        k = rng.choice((1, 2, 3))
        res = decide_by_criterion(g, DegreeSpec(k))
        want = oracles.first_barrier_ternary(nx, ny, g.neighbors, k)
        if want is None:
            assert res.exists
        else:
            found_any += 1
            assert not res.exists
            assert (res.barrier.a, res.barrier.b, res.barrier.delta) == want
    assert 5 < found_any < 40  # both outcomes must occur


def test_decide_star_first_barrier():
    # in base-3 counting order the hub vertex (global 3) is the first
    # assignment whose deficiency goes negative
    g = incidence_graph(star(3))
    res = decide_by_criterion(g, DegreeSpec(1))
    assert not res.exists
    assert (res.barrier.a, res.barrier.b) == ((3,), ())
    assert res.barrier.delta == -2
    # one enumeration: decide evaluates exactly the scan's 2^3 * 3^4 pairs
    assert res.stats.evaluated == 648
    assert res.stats == deficiency_scan(g, DegreeSpec(1)).stats


# ---------------------------------------------------------------- biased


def test_biased_barrier_star():
    g = incidence_graph(star(3))
    br = find_biased_barrier(g, DegreeSpec(1))
    assert br.delta == -2
    assert (br.a, br.b) == ((3,), ())
    assert br.hw == 3
    assert all(c.odd for c in br.components)
    assert [c.vertices for c in br.components] == [(0, 4), (1, 5), (2, 6)]


def test_biased_barrier_raises_when_factor_exists():
    g = incidence_graph(cycle(5))
    with pytest.raises(FactorExistsError):
        find_biased_barrier(g, DegreeSpec(2))


def test_biased_barrier_matches_oracle_key():
    rng = random.Random(37)
    hits = 0
    for _ in range(30):
        g = _random_bipartite(rng, nx_hi=3, ny_hi=3)
        k = rng.choice((1, 2))
        want_min, want_pair, _ = oracles.scan_all_pairs(
            g.x_count, g.y_count, g.neighbors, k)
        if want_min >= 0:
            continue
        hits += 1
        br = find_biased_barrier(g, DegreeSpec(k))
        assert br.delta == want_min
        assert (br.a, br.b) == want_pair
    assert hits > 3


# ------------------------------------------------------------- h measure


def test_h_of_z_synthetic():
    # x0 ~ {y0, y1, y2}, x1 ~ {y4, y5} on 8 Y-vertices, k = 1,
    # A = {x0}, B = {y0}: N(Z) = {y0, y1, y2} hits B once and two odd
    # singleton components, so h(Z) = 3
    g = BipartiteGraph(2, 8, [(0, 1, 2), (4, 5)])
    spec = DegreeSpec(1)
    br = delta(g, [0], [2], spec)
    assert br.delta == -4
    assert h_of_z(g, br, [0]) == 3


def test_h_of_z_validates_z():
    g = BipartiteGraph(2, 8, [(0, 1, 2), (4, 5)])
    br = delta(g, [0], [2], DegreeSpec(1))
    with pytest.raises(ValueError, match="subset of A"):
        h_of_z(g, br, [1])  # x1 is not in A
    with pytest.raises(ValueError, match="subset of A"):
        h_of_z(g, br, [2])  # a Y-vertex


# -------------------------------------------------------------- structure


def test_structure_clauses_on_star_barrier():
    g = incidence_graph(star(3))
    spec = DegreeSpec(1)
    br = find_biased_barrier(g, spec)
    rep = check_barrier_structure(g, br, spec)
    assert rep.i.passed and rep.ii.passed and rep.iii.passed and rep.iv.passed
    assert rep.ok


def test_structure_requires_even_product():
    g = incidence_graph(star(3))  # |Y| = 4
    spec = DegreeSpec(1)
    br = find_biased_barrier(g, spec)
    odd_g = BipartiteGraph(1, 3, [(0, 1, 2)])  # |Y| = 3, k = 1 is odd
    odd_br = find_biased_barrier(odd_g, spec)
    with pytest.raises(ValueError, match="even"):
        check_barrier_structure(odd_g, odd_br, spec)
    assert check_barrier_structure(g, br, spec).ok


def test_structure_holds_on_all_small_barriers():
    """Every biased barrier in the small bipartite census satisfies the
    four structure clauses whenever k * |Y| is even."""
    from bergefactor.harness import enumerate_bipartite_graphs

    checked = 0
    for g in enumerate_bipartite_graphs(5):
        for k in (1, 2):
            if k * g.y_count % 2:
                continue
            res = deficiency_scan(g, DegreeSpec(k))
            if res.biased.delta >= 0:
                continue
            rep = check_barrier_structure(g, res.biased, DegreeSpec(k))
            assert rep.ok, (g, k, res.biased)
            checked += 1
    assert checked > 50


def test_structure_reports_failures_on_unbiased_pairs():
    """Clause diagnostics must actually fire: a hand-built pair that
    puts an X-vertex in B violates clause (i)."""
    g = incidence_graph(star(3))
    spec = DegreeSpec(1)
    rec = delta(g, [1], [0], spec)
    rep = check_barrier_structure(g, rec, spec)
    assert not rep.i.passed
    assert not rep.ok
    assert rep.i.witness


def test_structure_clause_iv_is_exhaustive_up_to_budget():
    """Clause (iv) walks every Z up to 20 eligible vertices and refuses
    past that.  With X-vertex x joined to Y-vertices 2x and 2x + 1 and
    (A, B) = (X, {}), every component of G - A is one Y-vertex, even at
    k = 2, so the walk fails at its first Z."""
    spec = DegreeSpec(2)

    def host(nx):
        g = BipartiteGraph(nx, 2 * nx, [(2 * x, 2 * x + 1) for x in range(nx)])
        return g, delta(g, range(nx), (), spec)

    g, rec = host(20)
    rep = check_barrier_structure(g, rec, spec)
    assert rep.i.passed and rep.ii.passed and rep.iii.passed
    assert (rep.iv.passed, rep.iv.witness) == (
        False, "Z = (0,) has h(Z) = 0 < 2")
    g, rec = host(21)
    with pytest.raises(BudgetExceededError, match="structure clause iv"):
        check_barrier_structure(g, rec, spec)
