"""Per-gadget profile of the blossom matcher on a benchmark workload.

    python3 tools/matcher_profile.py --workload factor-large --seed 1 --count 150

Builds the split-incidence gadget of each of the first COUNT instances
that `bench/workloads.instances` generates for the workload and seed,
leaving out hosts that `sparse_y_vertex` answers before a gadget is
built, and runs the matcher on each as `find_2k_factor` does:
`complete_matching` from the gadget's warm start, on an adjacency that
the gadget's expander builds only where the forests reach.  One pass
counts the calls of the search kernel `matching._augment_from` and the
vertices expanded; TIMED_PASSES more passes time the matcher alone,
expansion included.  Prints one `key=value` line each:

    gadgets        gadgets built
    gadget_vertices  vertices per gadget, mean
    gadget_edges   edges per gadget, mean
    perfect        gadgets with a perfect matching
    phases         kernel calls with more than one root
    single_root    kernel calls with one root
    augmentations  matching edges the kernel calls added
    expanded       share of gadget vertices whose neighbours were built,
                   mean over gadgets
    matcher_ms     matcher time per gadget, best pass

Every line but `matcher_ms` depends only on the instances and the
package, so two checkouts compare with `diff`.  The package is imported
from the `src/` tree next to this script.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from bergefactor import matching  # noqa: E402
from bergefactor.factor_solver import build_gadget, sparse_y_vertex  # noqa: E402
from bergefactor.formats import parse_big, parse_hg  # noqa: E402
from bergefactor.incidence import incidence_graph  # noqa: E402
from bergefactor.parity_criterion import DegreeSpec  # noqa: E402
import workloads  # noqa: E402

TIMED_PASSES = 3


def gadgets(name: str, seed: int, count: int) -> list:
    out = []
    for inst in workloads.instances(name, seed, count):
        host = (incidence_graph(parse_hg(inst.text)) if inst.suffix == ".hg"
                else parse_big(inst.text))
        spec = DegreeSpec(inst.k)
        if sparse_y_vertex(host, spec) is None:
            out.append(build_gadget(host, spec))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=150)
    args = ap.parse_args(argv)
    built = gadgets(args.workload, args.seed, args.count)

    counts = {"phases": 0, "single_root": 0, "augmentations": 0}
    kernel = matching._augment_from

    def counted(roots, adj, match, *args):
        counts["phases" if len(roots) > 1 else "single_root"] += 1
        exposed = match.count(-1)
        retired = kernel(roots, adj, match, *args)
        counts["augmentations"] += (exposed - match.count(-1)) // 2
        return retired

    perfect = 0
    expanded = 0.0
    matching._augment_from = counted
    try:
        for gd in built:
            adj = [None] * gd.n
            perfect += matching.complete_matching(list(gd.start), adj,
                                                  gd.expand)
            expanded += 1 - adj.count(None) / max(1, gd.n)
    finally:
        matching._augment_from = kernel

    best = float("inf")
    for _ in range(TIMED_PASSES):
        t0 = time.perf_counter()
        for gd in built:
            matching.complete_matching(list(gd.start), [None] * gd.n,
                                       gd.expand)
        best = min(best, time.perf_counter() - t0)

    per = max(1, len(built))
    print(f"gadgets={len(built)}")
    print(f"gadget_vertices={sum(gd.n for gd in built) / per:.1f}")
    print(f"gadget_edges={sum(len(gd.graph.edges) for gd in built) / per:.1f}")
    print(f"perfect={perfect}")
    for key, value in counts.items():
        print(f"{key}={value}")
    print(f"expanded={expanded / per:.3f}")
    print(f"matcher_ms={1000 * best / per:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
