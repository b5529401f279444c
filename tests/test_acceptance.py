"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible even under output capture) before asserting.

Criteria rely on the session fixtures in conftest.py for the three
shared instance suites; runtime bounds are asserted where stated.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from bergefactor import (
    GeneralGraph,
    Hypergraph,
    incidence_graph,
    max_matching,
    toughness,
)
from bergefactor.families import complete_uniform, cycle, petersen, star

import oracles
from conftest import y_toughness_agrees


def announce(capsys, num, ok, desc):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {verdict} - {desc}")


def test_acceptance_1_exhaustive_theorem(capsys, suite1_reports):
    elapsed = sum(r.elapsed for r in suite1_reports.values())
    violations = sum(len(r.violations) for r in suite1_reports.values())
    counts_ok = all(r.total == 12594 for r in suite1_reports.values())
    ok = violations == 0 and elapsed <= 300 and counts_ok
    announce(capsys, 1, ok,
             f"exhaustive n<=4 m<=6 k in {{1,2}}: {violations} violations, "
             f"{elapsed:.1f}s (limit 300s)")
    assert violations == 0
    assert counts_ok, [r.total for r in suite1_reports.values()]
    assert elapsed <= 300


def test_acceptance_2_random_theorem(capsys, suite2):
    ok = (suite2["violations"] == 0 and suite2["total"] == 1000
          and suite2["elapsed"] <= 600)
    announce(capsys, 2, ok,
             f"1000 random n<=8 k in {{1,2,3}}: {suite2['violations']} "
             f"violations, {suite2['certificates']} certificates re-verified, "
             f"{suite2['elapsed']:.1f}s (limit 600s)")
    assert suite2["violations"] == 0
    assert suite2["certificates"] > 0
    assert suite2["elapsed"] <= 600


def test_acceptance_3_criterion_solver_equivalence(capsys, suite3):
    ok = (suite3["disagreements"] == 0 and suite3["census"] == 7839
          and suite3["random"] == 500)
    announce(capsys, 3, ok,
             f"criterion vs solver vs brute force on {suite3['census']} census "
             f"+ {suite3['random']} random instances (k in {{1,2}}, "
             f"{suite3['brute_checked']} brute-checked): "
             f"{suite3['disagreements']} disagreements")
    assert suite3["census"] == 7839
    assert suite3["random"] == 500
    assert suite3["brute_checked"] > 0
    assert suite3["disagreements"] == 0


def test_acceptance_4_parity_of_deficiency(capsys, suite1_census_stats,
                                           suite2, suite3):
    odd = (suite1_census_stats["odd_deltas"] + suite2["odd_deltas"]
           + suite3["odd_deltas"])
    scans = (suite1_census_stats["scans"] + suite2["scans"]
             + suite3["scans"])
    # Only walked pairs are scored one by one; the scan counts the others
    # by the parity lemma this criterion checks.
    walked = (suite1_census_stats["walked"] + suite2["walked"]
              + suite3["walked"])
    ok = odd == 0 and scans > 0 and walked > 0
    announce(capsys, 4, ok,
             f"parity of deficiency values over suites 1-3 where k|Y| even: "
             f"{odd} odd values across {walked} walked pairs in {scans} scans")
    assert scans > 0
    assert walked > 0
    assert odd == 0


def test_acceptance_5_barrier_structure(capsys, suite2, suite3):
    failures = suite2["structure_failures"] + suite3["structure_failures"]
    checked = suite2["structure_checked"] + suite3["structure_checked"]
    ok = failures == 0 and checked > 0
    announce(capsys, 5, ok,
             f"biased-barrier structure clauses on {checked} factor-less "
             f"instances (k|Y| even): {failures} failures")
    assert checked > 0
    assert failures == 0


def test_acceptance_6_toughness_oracles(capsys):
    t0 = time.perf_counter()
    problems = []

    def check(name, h, want, pair_oracle=True):
        tv = toughness(h)
        if tv.value != want:
            problems.append(f"{name}: got {tv}, want {want}")
            return
        if pair_oracle:
            val, _ = oracles.graph_toughness(h.n, h.edges)
        else:
            val, _ = oracles.hypergraph_toughness(h.n, h.edges)
        if val != want:
            problems.append(f"{name}: oracle got {val}, want {want}")

    for n in range(4, 9):
        check(f"C_{n}", cycle(n), Fraction(1))
    check("K_1_3", star(3), Fraction(1, 3))
    check("K4^(3)", complete_uniform(4, 3), Fraction(1), pair_oracle=False)
    check("Petersen", petersen(), Fraction(4, 3))
    elapsed = time.perf_counter() - t0

    ok = not problems and elapsed <= 60
    announce(capsys, 6, ok,
             f"toughness oracle values exact and cross-checked, "
             f"{elapsed:.1f}s (limit 60s)")
    assert not problems, problems
    assert elapsed <= 60


def test_acceptance_7_matching_oracle(capsys):
    disagreements = 0
    total = 0
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            total += 1
            if len(max_matching(GeneralGraph(n, edges))) != \
                    oracles.max_matching_size(n, edges):
                disagreements += 1
    rng = random.Random(303)
    for _ in range(300):
        n = rng.randint(1, 12)
        pairs = list(combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        total += 1
        if len(max_matching(GeneralGraph(n, edges))) != \
                oracles.max_matching_size(n, edges):
            disagreements += 1

    ok = disagreements == 0
    announce(capsys, 7, ok,
             f"max matching vs brute force on {total} graphs "
             f"(exhaustive <=6 vertices + 300 random <=12): "
             f"{disagreements} disagreements")
    assert total == 33868 + 300
    assert disagreements == 0


def test_acceptance_8_toughness_equivalence(capsys, suite1_census_stats):
    mismatches = suite1_census_stats["equivalence_mismatches"]
    checked = suite1_census_stats["equivalence_checked"]

    rng = random.Random(808)
    for _ in range(300):
        n = rng.randint(1, 7)
        m = rng.randint(0, 8)
        edges = []
        for _ in range(m):
            size = rng.randint(1, n)
            edges.append(sorted(rng.sample(range(n), size)))
        h = Hypergraph(n, sorted(tuple(e) for e in edges))
        checked += 1
        if not y_toughness_agrees(h, incidence_graph(h)):
            mismatches += 1

    ok = mismatches == 0 and checked >= 12594 + 300
    announce(capsys, 8, ok,
             f"y-toughness of the incidence graph equals hypergraph "
             f"toughness and the brute-force oracle on {checked} instances: "
             f"{mismatches} mismatches")
    assert suite1_census_stats["equivalence_checked"] == 12594
    assert mismatches == 0
