"""From hypergraph to Berge-k-factor, constructively.

The pipeline: take the incidence bipartite graph, choose a greedy
selection on it, and where that leaves need, expand it into a
split-incidence gadget whose perfect matchings encode (2,k)-factors and
complete the matching.  The (hyperedge, pair) assignments are read off
the selection or the mate array and checked once, by
`verify_2k_factor`.  The result is an independently re-checkable
certificate.

Run with:  python3 demos/factor_pipeline.py
"""

from bergefactor import (DegreeSpec, build_gadget, families,
                         find_2k_factor, find_berge_k_factor,
                         incidence_graph, serialize_bkf,
                         verify_berge_factor)


def main():
    # A 2-factor of the 4-cycle: every vertex in exactly two edges.
    c4 = families.cycle(4)
    cert = find_berge_k_factor(c4, 2)
    print("Berge-2-factor of C4:")
    for edge_index, (u, v) in cert.pairs:
        print(f"  hyperedge {edge_index} carries ({u}, {v})")
    verdict = verify_berge_factor(c4, cert)
    print(f"  re-verified: {verdict.ok}")

    # The same machinery, step by step, with the solver's own trace.
    print()
    print("path P4, k=1, traced:")
    p4 = families.path(4)
    cert = find_berge_k_factor(p4, 1, trace=lambda line: print(f"  | {line}"))
    print(f"  certificate: {cert.pairs}")

    # The gadget itself is inspectable: each incidence becomes an edge
    # between two ends, each hyperedge a pair joined to its ends, and
    # each vertex k copies joined to its ends.  A hyperedge of size 2,
    # as every edge of P4 is, is contracted to one edge between its two
    # vertices' ends, which both of its incidences share.
    g = incidence_graph(p4)
    gadget = build_gadget(g, DegreeSpec(1))
    print(f"  gadget: {gadget.graph.n} vertices, "
          f"{len(gadget.graph.edges)} edges, "
          f"{len(set(gadget.inter_edges.values()))} of them carry the "
          f"{len(gadget.inter_edges)} host incidences")

    # Negative case: the star has no Berge-1-factor, so the solver
    # returns nothing and the scan in parity_barriers.py explains why.
    print()
    star = families.star(3)
    print(f"K_{{1,3}}, k=1: {find_berge_k_factor(star, 1)}")
    f = find_2k_factor(incidence_graph(star), DegreeSpec(1))
    print(f"underlying (2,1)-factor: {f}")

    # Certificates serialize to a plain text format.
    cert = find_berge_k_factor(c4, 2)
    print()
    print("serialized certificate for C4, k=2:")
    print(serialize_bkf(cert), end="")


if __name__ == "__main__":
    main()
