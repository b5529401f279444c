"""Session fixtures for the acceptance suites.

The three instance suites (exhaustive census, random hypergraphs,
random + census bipartite graphs) feed several acceptance criteria
each, so they are computed once per session and the individual
criteria read the collected counters.
"""

import random
import time

import pytest

from bergefactor import (
    DegreeSpec,
    ExhaustiveMode,
    check_barrier_structure,
    decide_by_criterion,
    deficiency_scan,
    enumerate_bipartite_graphs,
    enumerate_hypergraphs,
    find_2k_factor,
    gen_random_bipartite,
    gen_random_hypergraph,
    incidence_graph,
    lift_to_berge,
    toughness,
    verify_berge_factor,
    verify_theorem,
    y_toughness,
)

import oracles

SEED = 20260815


def census_hypergraphs():
    """The criterion-1 census: every hypergraph with n <= 4, edge sizes
    2..n, at most 6 edges, as canonical sorted multisets."""
    for n in range(1, 5):
        yield from enumerate_hypergraphs(n, 6)


@pytest.fixture(scope="session")
def suite1_reports():
    """Exhaustive theorem verification for k = 1, 2 (criterion 1); the
    reports carry their own wall times for the runtime bound."""
    return {k: verify_theorem((1, 4), k, ExhaustiveMode(max_edges=6))
            for k in (1, 2)}


def y_toughness_agrees(h, g):
    """y_toughness of the incidence graph `g` of `h` matches both the
    hypergraph toughness of `h` and the brute-force Y-toughness oracle,
    in value and witness.  y_toughness is computed through `toughness`,
    so only the oracle comparison is independent."""
    tv = y_toughness(g)
    hv = toughness(h)
    ov = oracles.y_toughness_oracle(g.x_count, g.y_count, g.neighbors)
    return (tv.value, tv.witness) == (hv.value, hv.witness) == ov


@pytest.fixture(scope="session")
def suite1_census_stats():
    """Second pass over the criterion-1 census: deficiency scans for
    the parity criterion and the toughness-equivalence comparison."""
    stats = {
        "instances": 0,
        "scans": 0,
        "odd_deltas": 0,
        "walked": 0,
        "equivalence_checked": 0,
        "equivalence_mismatches": 0,
    }
    for h in census_hypergraphs():
        stats["instances"] += 1
        g = incidence_graph(h)
        stats["equivalence_checked"] += 1
        if not y_toughness_agrees(h, g):
            stats["equivalence_mismatches"] += 1
        for k in (1, 2):
            if (k * h.n) % 2:
                continue
            res = deficiency_scan(g, DegreeSpec(k))
            stats["scans"] += 1
            stats["odd_deltas"] += res.stats.odd_deltas
            stats["walked"] += res.stats.walked
    return stats


@pytest.fixture(scope="session")
def suite2():
    """1000 seeded random hypergraphs with n <= 8, k cycling 1, 2, 3.

    First pass (timed, criterion 2): solve, lift, re-verify, count
    violations.  Second pass (untimed): deficiency scans for criterion 4
    and structure checks of biased barriers for criterion 5.
    """
    rng = random.Random(SEED)
    drawn = []
    t0 = time.perf_counter()
    violations = 0
    certificates = 0
    for i in range(1000):
        n = rng.randint(3, 8)
        m = rng.randint(1, 6)
        k = i % 3 + 1
        h = gen_random_hypergraph(n, m, rng.getrandbits(32))
        g = incidence_graph(h)
        factor = find_2k_factor(g, DegreeSpec(k))
        if factor is not None:
            cert = lift_to_berge(h, factor)
            if not verify_berge_factor(h, cert):
                raise AssertionError("certificate failed re-verification")
            certificates += 1
        else:
            eligible = ((k * h.n) % 2 == 0 and h.n >= k + 1
                        and toughness(h).satisfies(k))
            if eligible:
                violations += 1
        drawn.append((h, k, factor is not None))
    elapsed = time.perf_counter() - t0

    scans = odd = walked = 0
    structure_checked = structure_failures = 0
    for h, k, found in drawn:
        if (k * h.n) % 2:
            continue
        g = incidence_graph(h)
        spec = DegreeSpec(k)
        res = deficiency_scan(g, spec)
        scans += 1
        odd += res.stats.odd_deltas
        walked += res.stats.walked
        if not found:
            assert res.biased.delta < 0, "solver found no factor yet no barrier"
            rep = check_barrier_structure(g, res.biased, spec)
            structure_checked += 1
            if not rep.ok:
                structure_failures += 1
    return {
        "total": 1000,
        "violations": violations,
        "certificates": certificates,
        "elapsed": elapsed,
        "scans": scans,
        "odd_deltas": odd,
        "walked": walked,
        "structure_checked": structure_checked,
        "structure_failures": structure_failures,
    }


def _suite3_instance(stats, g, k, run_decide):
    spec = DegreeSpec(k)
    scan = deficiency_scan(g, spec)
    criterion_exists = scan.biased.delta >= 0
    assert scan.biased.delta == -oracles.gadget_deficiency(g, k), (g, k)
    factor = find_2k_factor(g, spec)
    solver_exists = factor is not None
    agree = criterion_exists == solver_exists
    if run_decide:
        res = decide_by_criterion(g, spec)
        agree = agree and res.exists == criterion_exists
    edge_count = sum(len(row) for row in g.neighbors)
    if edge_count <= 18:
        stats["brute_checked"] += 1
        brute = oracles.has_2k_factor(g.x_count, g.y_count, g.neighbors, k)
        agree = agree and brute == solver_exists
    if not agree:
        stats["disagreements"] += 1
    if (k * g.y_count) % 2 == 0:
        stats["scans"] += 1
        stats["odd_deltas"] += scan.stats.odd_deltas
        stats["walked"] += scan.stats.walked
        if not solver_exists:
            rep = check_barrier_structure(g, scan.biased, spec)
            stats["structure_checked"] += 1
            if not rep.ok:
                stats["structure_failures"] += 1


@pytest.fixture(scope="session")
def suite3():
    """Criterion vs solver vs brute force on bipartite instances: the
    full |X| + |Y| <= 7 census plus 500 seeded graphs with |V| <= 14,
    each at k = 1 and k = 2."""
    stats = {
        "census": 0,
        "random": 0,
        "disagreements": 0,
        "brute_checked": 0,
        "scans": 0,
        "odd_deltas": 0,
        "walked": 0,
        "structure_checked": 0,
        "structure_failures": 0,
    }
    for g in enumerate_bipartite_graphs(7):
        stats["census"] += 1
        for k in (1, 2):
            _suite3_instance(stats, g, k, run_decide=True)
    rng = random.Random(SEED + 1)
    for i in range(500):
        ny = rng.randint(2, 8)
        nx = rng.randint(1, min(6, 14 - ny))
        density = rng.choice((0.25, 0.4, 0.6))
        g = gen_random_bipartite(nx, ny, density, rng.getrandbits(32))
        stats["random"] += 1
        # full first-barrier enumeration only on a subsample; the scan
        # route covers existence on every instance
        for k in (1, 2):
            _suite3_instance(stats, g, k, run_decide=(i % 10 == 0))
    return stats
