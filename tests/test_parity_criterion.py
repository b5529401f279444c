"""Deficiency function, barrier scans, and barrier structure checks."""

import random
from itertools import combinations

import pytest

from bergefactor import (
    BipartiteGraph,
    BudgetExceededError,
    DegreeSpec,
    FactorExistsError,
    check_barrier_structure,
    decide_by_criterion,
    deficiency_scan,
    delta,
    enumerate_bipartite_graphs,
    find_biased_barrier,
    incidence_graph,
)
from bergefactor.budget import check_pairs
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
    # a negative id is out of range too, in A or in B
    for a, b in (([-1], []), ([], [0, -1])):
        with pytest.raises(ValueError, match=r"vertex id outside 0\.\.7"):
            delta(g, a, b, spec)


def test_delta_star_barrier_value():
    # star on three leaves, k = 1: deleting the hub vertex y0 (global 3)
    # splits the graph into three edge-leaf pairs, each odd, so
    # delta = 1 - 3 = -2
    g = incidence_graph(star(3))
    rec = delta(g, [3], [], DegreeSpec(1))
    assert rec.delta == -2
    assert rec.hw == 3


def test_classify_component():
    # Deleting the hub y0 (global 3) leaves three edge-leaf pairs, each
    # with upper target k = 1 and no edge to B, so each is odd.
    g = incidence_graph(star(3))
    comps = delta(g, [3], [], DegreeSpec(1)).components
    assert [(c.vertices, c.odd) for c in comps] == [
        ((0, 4), True), ((1, 5), True), ((2, 6), True)]


def test_classify_component_even():
    g = incidence_graph(cycle(4))  # 4 edges, 4 vertices, k = 2
    comps = delta(g, [], [], DegreeSpec(2)).components
    assert [(c.vertices, c.odd) for c in comps] == [(tuple(range(8)), False)]


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
            want_min, want_pair, saw_odd, _ = oracles.scan_all_pairs(
                g.x_count, g.y_count, g.neighbors, k)
            assert got.biased.delta == want_min
            assert (got.biased.a, got.biased.b) == want_pair
            if k * g.y_count % 2 == 0:
                assert not saw_odd
                assert got.stats.odd_deltas == 0


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
    is all of them when k * |Y| is odd and none when it is even.  The
    same holds for `decide_by_criterion`, whose scan seeks only the
    first barrier and so skips more U-sets."""
    from bergefactor.harness import enumerate_bipartite_graphs

    skipped = skipped_odd = fewer = 0
    for g in enumerate_bipartite_graphs(5):
        nx, ny = g.x_count, g.y_count
        n = nx + ny
        for k in (1, 2, 3):
            res = deficiency_scan(g, DegreeSpec(k))
            dec = decide_by_criterion(g, DegreeSpec(k))
            pairs = 2 ** nx * 3 ** ny
            assert res.stats.evaluated == pairs, (g, k)
            assert dec.stats.evaluated == pairs, (g, k)
            odd = 0
            for code in range(3 ** n):
                digits = [code // 3 ** v % 3 for v in range(n)]
                if any(digits[x] == 2 for x in range(nx)):
                    continue
                a = [v for v in range(n) if digits[v] == 1]
                b = [v for v in range(n) if digits[v] == 2]
                odd += oracles.delta_naive(nx, ny, g.neighbors, k, a, b)[0] & 1
            assert res.stats.odd_deltas == odd, (g, k)
            assert dec.stats.odd_deltas == odd, (g, k)
            assert odd == (pairs if k * ny % 2 else 0), (g, k)
            if res.first is None:
                assert dec.barrier is None, (g, k)
            else:
                assert (dec.barrier.a, dec.barrier.b, dec.barrier.delta) == (
                    res.first.a, res.first.b, res.first.delta), (g, k)
            assert dec.stats.walked <= res.stats.walked, (g, k)
            fewer += dec.stats.walked < res.stats.walked
            if res.stats.walked < pairs:
                skipped += 1
                skipped_odd += k * ny % 2
    # Both parities of k * |Y| must reach the skipped-U counts, and the
    # first-barrier scan must skip U-sets the full scan walks.
    assert skipped > 300 and skipped_odd > 100
    assert fewer > 200


def test_subtree_bound_is_below_its_subtree():
    """The bound behind the scan's drop test, from G[U] alone, against
    the least delta over U's subtree by brute force: never above it, on
    every U of every host with |X| + |Y| <= 5 at k = 1..3 and of 30
    seeded hosts with 6-7 vertices.  Every delta has the parity of k|Y|,
    so the bound rounded up to that parity is a bound too, and is
    checked the same way.  Some subtrees have a rounded bound >= 0 and
    so hold no barrier: the first-barrier scan drops those.  At even
    k|Y| that takes in the subtrees whose raw bound is -1."""
    from bergefactor.harness import enumerate_bipartite_graphs

    hosts = [(g.x_count, g.y_count, g.neighbors, k)
             for g in enumerate_bipartite_graphs(5) for k in (1, 2, 3)]
    rng = random.Random(61)
    for i in range(30):
        ny = rng.randint(2, 4)
        nx = rng.randint(6, 7) - ny
        rows = [tuple(sorted(rng.sample(range(ny), rng.randint(1, ny))))
                for _ in range(nx)]
        hosts.append((nx, ny, rows, i % 3 + 1))
    subtrees = barrier_free = rounded_up = 0
    for nx, ny, rows, k in hosts:
        for u, bound, minimum in oracles.subtree_bounds(nx, ny, rows, k):
            rounded = bound + ((bound ^ k * ny) & 1)
            assert bound <= rounded <= minimum, (nx, ny, rows, k, u)
            subtrees += 1
            barrier_free += rounded >= 0
            rounded_up += bound == -1 and k * ny % 2 == 0
    # 783 subtrees (514 in the census part) have raw bound -1 at even
    # k|Y|; the rounding adds them to the 2915 whose raw bound is >= 0.
    assert subtrees == 12636 and rounded_up == 783
    assert barrier_free == 2915 + 783


def test_scan_walk_skips_pairs_that_cannot_win():
    # The same pairs as a full walk, fewer of them scored: the walk over
    # B is skipped for a U whose lower bound is above the best delta and
    # that can hold no earlier barrier.  A full walk scores `evaluated`.
    # The biased scan drops the U-subtrees whose lower bound is above
    # the best delta and that can hold no earlier barrier.
    g = incidence_graph(star(3))
    res = deficiency_scan(g, DegreeSpec(1))
    assert (res.biased.a, res.biased.b, res.biased.delta) == ((3,), (), -2)
    assert (res.first.a, res.first.b, res.first.delta) == ((3,), (), -2)
    assert res.stats.evaluated == 648
    assert res.stats.walked == 92 < 648
    assert res.stats.u_sets == 72
    # A factor-less host of the criterion benchmark's size, |X| + |Y| = 10.
    g = BipartiteGraph(5, 5, [(0, 2, 3, 4), (0, 1, 2), (1,), (4,), (1, 3, 4)])
    res = deficiency_scan(g, DegreeSpec(2))
    assert (res.biased.a, res.biased.b, res.biased.delta) == (
        (0, 1, 4), (5, 6, 7, 8, 9), -4)
    assert (res.first.a, res.first.b, res.first.delta) == (
        (), (5, 6, 7), -2)
    assert res.stats.evaluated == 7776
    assert res.stats.odd_deltas == 0
    assert res.stats.walked == 1073 < 7776
    assert res.stats.u_sets == 461
    # Seeking only the first barrier, the walk skips every U that cannot
    # hold an earlier one, whatever its bound, and drops every subtree
    # of U-sets that cannot.
    dec = decide_by_criterion(g, DegreeSpec(2))
    assert (dec.barrier.a, dec.barrier.b) == (res.first.a, res.first.b)
    assert dec.stats.walked == 32 < 1073
    assert dec.stats.u_sets == 80 < 461


def test_scan_work_counts_on_census():
    # The work counters of both scan modes, summed over the |X| + |Y| <= 6
    # census at k = 1..3.  A drop test that is not sound drops U-sets
    # that the exact bound keeps; it can leave every barrier as it is
    # and still change these sums.
    walked = {False: 0, True: 0}
    u_sets = {False: 0, True: 0}
    for g in enumerate_bipartite_graphs(6):
        for k in (1, 2, 3):
            for biased in (False, True):
                stats = deficiency_scan(g, DegreeSpec(k), biased=biased).stats
                walked[biased] += stats.walked
                u_sets[biased] += stats.u_sets
    assert walked == {False: 33434, True: 204305}
    assert u_sets == {False: 22780, True: 83470}


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


def test_pair_budget_clamp_keeps_every_verdict():
    # check_pairs builds its cap from the budget clamped to 2(x + y); its
    # verdict and message must be those of the unclamped cap.
    for x in range(13):
        for y in range(13 - x):
            for limit in range(31):
                cap = 2 ** ((limit + 1) // 2) * 3 ** (limit // 2)
                if 2 ** x * 3 ** y > cap:
                    with pytest.raises(BudgetExceededError,
                                       match=f"pair budget {cap} of vertex"
                                       f" budget {limit} "):
                        check_pairs("scan", x, y, limit)
                else:
                    check_pairs("scan", x, y, limit)


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


def test_decide_matches_ternary_oracle_on_census():
    """The first barrier against a brute-force walk of every code, on the
    whole |X| + |Y| <= 6 census at k = 1..3.  The full scan shares the
    skip and drop rule with decide, so only an oracle outside the scan
    can catch a fault in that rule."""
    from bergefactor.harness import enumerate_bipartite_graphs

    scans = barriers = 0
    for g in enumerate_bipartite_graphs(6):
        for k in (1, 2, 3):
            res = decide_by_criterion(g, DegreeSpec(k))
            want = oracles.first_barrier_ternary(
                g.x_count, g.y_count, g.neighbors, k)
            got = (None if res.exists else
                   (res.barrier.a, res.barrier.b, res.barrier.delta))
            assert got == want, (g, k)
            scans += 1
            barriers += want is not None
    assert scans == 2385 and barriers == 2147


def test_decide_prunes_subtrees_on_larger_hosts():
    """On factor-less 8+8 to 9+9 hosts the first barrier lies deep in the
    walk (for k = 1 it is A = B = empty, the last U of the first path),
    and every U-subtree after it is dropped.  The result and the pair
    counts are the biased scan's, which drops only the subtrees that can
    hold no pair as good as its best so far."""
    rng = random.Random(58)
    hosts = 0
    while hosts < 4:
        nx, ny = rng.randint(8, 9), rng.randint(8, 9)
        k = 2 if hosts else 1
        rows = [tuple(sorted(rng.sample(range(ny), rng.randint(1, 4))))
                for _ in range(nx)]
        if min(sum(y in r for r in rows) for y in range(ny)) < k:
            continue
        g = BipartiteGraph(nx, ny, rows)
        dec = decide_by_criterion(g, DegreeSpec(k), budget=20)
        if dec.exists:
            continue
        hosts += 1
        full = deficiency_scan(g, DegreeSpec(k), budget=20)
        first = full.first
        assert (dec.barrier.a, dec.barrier.b, dec.barrier.delta) == (
            first.a, first.b, first.delta), (g, k)
        assert dec.stats.evaluated == full.stats.evaluated == 2 ** nx * 3 ** ny
        assert dec.stats.odd_deltas == full.stats.odd_deltas
        assert full.stats.u_sets < 2 ** (nx + ny)
        assert dec.stats.u_sets * 8 <= 2 ** (nx + ny), (g, k)
        assert dec.stats.walked < full.stats.walked, (g, k)


def _barriers_by_c_code(g, k):
    # Every barrier (A, B) with B inside Y, keyed by the base-3 code of
    # C = A + B (digit 1 on each vertex of C).
    nx, ny = g.x_count, g.y_count
    out = {}
    for c in range(1 << (nx + ny)):
        cs = [v for v in range(nx + ny) if c >> v & 1]
        cy = [v for v in cs if v >= nx]
        for r in range(len(cy) + 1):
            for b in combinations(cy, r):
                a = tuple(v for v in cs if v not in b)
                if oracles.delta_naive(nx, ny, g.neighbors, k, a, b)[0] < 0:
                    out.setdefault(sum(3 ** v for v in cs), []).append((a, b))
    return out


def test_first_barrier_is_alone_in_its_c():
    """The lemma that would make the B-term of the scan's first-barrier
    code redundant, checked by brute force: no barrier has a C = A + B
    with a lower code than the first barrier's, and no other barrier has
    the first barrier's C.  Unproven, so the scan keeps the term; a host
    that breaks the lemma needs it."""
    from bergefactor.harness import enumerate_bipartite_graphs

    hosts = [(g, k) for g in enumerate_bipartite_graphs(5)
             for k in (1, 2, 3)]
    rng = random.Random(71)
    for i in range(20):
        ny = rng.randint(3, 5)
        nx = rng.randint(7, 8) - ny
        rows = [tuple(sorted(rng.sample(range(ny), rng.randint(1, ny))))
                for _ in range(nx)]
        hosts.append((BipartiteGraph(nx, ny, rows), i % 3 + 1))
    barriers = shared = 0
    for g, k in hosts:
        res = decide_by_criterion(g, DegreeSpec(k))
        found = _barriers_by_c_code(g, k)
        assert res.exists == (not found), (g, k)
        if found:
            barriers += 1
            shared += any(len(pairs) > 1 for pairs in found.values())
            assert found[min(found)] == [(res.barrier.a, res.barrier.b)], (
                g, k, found[min(found)])
    # 325 hosts have a barrier, and on 183 some C holds more than one
    assert barriers > 300 and shared > 150


def test_decide_star_first_barrier():
    # in base-3 counting order the hub vertex (global 3) is the first
    # assignment whose deficiency goes negative
    g = incidence_graph(star(3))
    res = decide_by_criterion(g, DegreeSpec(1))
    assert not res.exists
    assert (res.barrier.a, res.barrier.b) == ((3,), ())
    assert res.barrier.delta == -2
    # one enumeration: decide evaluates exactly the scan's 2^3 * 3^4 pairs,
    # and walks fewer of them, as it does not seek the biased pair; it
    # finds the barrier early and drops the U-subtrees after it
    full = deficiency_scan(g, DegreeSpec(1)).stats
    assert res.stats.evaluated == full.evaluated == 648
    assert res.stats.odd_deltas == full.odd_deltas
    assert res.stats.walked == 2 < full.walked == 92
    assert res.stats.u_sets == 10 < full.u_sets == 72


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
        want_min, want_pair, _, _ = oracles.scan_all_pairs(
            g.x_count, g.y_count, g.neighbors, k)
        if want_min >= 0:
            continue
        hits += 1
        br = find_biased_barrier(g, DegreeSpec(k))
        assert br.delta == want_min
        assert (br.a, br.b) == want_pair
    assert hits > 3


def test_biased_pair_matches_oracle_on_small_census():
    """Every host with |X| + |Y| <= 5 at k = 1, 2: the scan's biased
    pair is the oracle's, residual (B, A) ties included.  The scan
    breaks those ties by the least element of a symmetric difference,
    so the census must contain hosts where more than one pair shares
    the minimal (delta, |B|, -|A|)."""
    from bergefactor.harness import enumerate_bipartite_graphs

    tie_decided = 0
    for g in enumerate_bipartite_graphs(5):
        for k in (1, 2):
            got = deficiency_scan(g, DegreeSpec(k)).biased
            want_min, want_pair, _, ties = oracles.scan_all_pairs(
                g.x_count, g.y_count, g.neighbors, k)
            assert (got.delta, (got.a, got.b)) == (want_min, want_pair), (g, k)
            tie_decided += ties > 1
    assert tie_decided > 0, tie_decided


def test_biased_pair_matches_oracle_where_subtrees_drop():
    """Seeded hosts with 7-8 vertices at k = 1..3, past the census
    above: the biased scan drops U-subtrees on them, and keeps walking
    those whose bound ties the best delta, so its pair is still the
    oracle's, residual (B, A) ties included."""
    rng = random.Random(85)
    dropped = tie_decided = 0
    for i in range(12):
        ny = rng.randint(3, 5)
        nx = rng.randint(7, 8) - ny
        rows = [tuple(sorted(rng.sample(range(ny), rng.randint(1, 2))))
                for _ in range(nx)]
        g = BipartiteGraph(nx, ny, rows)
        k = i % 3 + 1
        res = deficiency_scan(g, DegreeSpec(k))
        want_min, want_pair, _, ties = oracles.scan_all_pairs(nx, ny, rows, k)
        got = res.biased
        assert (got.delta, (got.a, got.b)) == (want_min, want_pair), (g, k)
        dropped += res.stats.u_sets < 2 ** (nx + ny)
        tie_decided += ties > 1
    assert dropped > 8 and tie_decided > 3


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
    puts an X-vertex in B violates clause (i), and one whose odd
    component holds a vertex with two edges to B violates clause (ii)."""
    g = incidence_graph(star(3))
    spec = DegreeSpec(1)
    rec = delta(g, [1], [0], spec)
    rep = check_barrier_structure(g, rec, spec)
    assert not rep.i.passed
    assert not rep.ok
    assert rep.i.witness
    # X-vertex 0 joins Y-vertices 1, 2 and 3; with B = {2, 3} at k = 1
    # its component {0, 1} is odd (target 1, two edges to B).
    g = BipartiteGraph(1, 4, [(0, 1, 2)])
    rec = delta(g, [], [2, 3], spec)
    rep = check_barrier_structure(g, rec, spec)
    assert rep.i.passed and not rep.ok
    assert (rep.ii.passed, rep.ii.witness) == (
        False, "vertex 0 of an odd component sends 2 edges to B")


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
