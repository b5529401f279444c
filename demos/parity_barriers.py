"""Deciding (2,k)-factors by deficiency, with barrier certificates.

A (2,k)-factor of a bipartite graph picks, at every left vertex, either
nothing or exactly two incident edges, so that every right vertex ends
up with degree exactly k.  Existence is equivalent to every disjoint
pair (A, B) having nonnegative deficiency delta(A, B); a pair with
delta < 0 is a barrier, a finite certificate of non-existence.

Run with:  python3 demos/parity_barriers.py
"""

from bergefactor import (DegreeSpec, check_barrier_structure,
                         decide_by_criterion, deficiency_scan, delta,
                         families, find_biased_barrier, incidence_graph)


def main():
    # The incidence graph of the 5-cycle: X = edges, Y = vertices.
    # Picking both endpoints of every edge gives each vertex degree 2.
    g = incidence_graph(families.cycle(5))
    res = decide_by_criterion(g, DegreeSpec(2))
    print(f"C5 incidence graph, k=2: exists={res.exists} "
          f"({res.stats.evaluated} pairs evaluated)")

    # The star K_{1,3} has no Berge-1-factor: pairing the center into
    # one edge leaves two leaves stranded.  The criterion's scan visits
    # every pair and returns the first barrier in base-3 order.
    g = incidence_graph(families.star(3))
    spec = DegreeSpec(1)
    res = decide_by_criterion(g, spec)
    br = res.barrier
    print()
    print(f"K_{{1,3}} incidence graph, k=1: exists={res.exists}")
    print(f"  first barrier: A={br.a} B={br.b} delta={br.delta}")
    for comp in br.components:
        kind = "odd" if comp.odd else "even"
        print(f"    component {comp.vertices}: {kind}")

    # Any pair can be evaluated directly; the same barrier by hand.
    by_hand = delta(g, [3], [], spec)
    print(f"  delta(A={{3}}, B={{}}) = {by_hand.delta}, "
          f"hw = {by_hand.hw}")

    # The full scan reports the exact minimum and the biased-optimal
    # pair (min delta, then fewest B, then most A).
    scan = deficiency_scan(g, spec)
    print(f"  scan minimum: {scan.biased.delta} at A={scan.biased.a} "
          f"B={scan.biased.b} over {scan.stats.evaluated} pairs, "
          f"odd deltas: {scan.stats.odd_deltas}")

    # Biased barriers are structurally constrained; all four clauses
    # are mechanically checkable.
    biased = find_biased_barrier(g, spec)
    report = check_barrier_structure(g, biased, spec)
    print()
    print("structure of the biased barrier:")
    for name in ("i", "ii", "iii", "iv"):
        clause = getattr(report, name)
        state = "pass" if clause.passed else f"fail ({clause.witness})"
        print(f"  clause {name}: {state}")
    print(f"  overall: {'pass' if report.ok else 'fail'}")


if __name__ == "__main__":
    main()
