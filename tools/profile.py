"""Work profile of one kernel of the package on a benchmark workload.

    python3 tools/profile.py KERNEL --workload W [--seed S] [--count C]

Runs KERNEL on each of the first C instances that
`bench/workloads.instances` generates for workload W and seed S.  One
pass counts the kernel's work; TIMED_PASSES more passes time the kernel
alone.  Prints one `key=value` line each, in the order listed below for
the kernel; the last line is the kernel's time per instance, best pass.
Every other line depends only on the instances and the package, so two
checkouts compare with `diff`.  The time line is for orientation only:
on a shared host, `matcher_ms` spread 0.44-0.80 ms over six runs of the
same code.  Claim a change from the count lines, or from alternating
`bench/run.py` runs of the two checkouts.  The package is imported from
the `src/` tree next to this script.

`matcher` (any workload; C = 150) follows `find_2k_factor` on each
instance.  It leaves out the hosts that `find_2k_factor` answers
before any selection, those that `sparse_y_vertex` answers and those
with k|Y| odd, runs `greedy_selection` on the rest and counts those
whose selection is already a factor, which are answered without a
gadget, and among them those that a restart answered, which it tells
by wrapping `factor_solver._restart_order`.  On each other host it lays out the
split-incidence gadget from the selection and runs the matcher:
`complete_matching` from the gadget's warm start, on an adjacency that
the gadget's expander builds only where the forests reach.  It counts
the calls of the search kernel `matching._augment_from` and the
vertices expanded, and prints:

    gadgets          gadgets laid out
    complete_starts  hosts answered by the selection, with no gadget
    restarted        of those, hosts whose degree-ordered pass left
                     need and a restart met it
    gadget_vertices  vertices per gadget, mean
    gadget_edges     edges per gadget, mean
    perfect          gadgets with a perfect matching
    phases           kernel calls with more than one root
    single_root      kernel calls with one root
    augmentations    matching edges the kernel calls added
    expanded         share of gadget vertices whose neighbours were
                     built, mean over gadgets
    matcher_ms       matcher time per gadget, expansion included

`toughness` (`census` only, the one workload that calls it; C = 512)
runs `toughness` on each host, counts the work of the level search
`hypergraph._search_level`, and prints:

    hosts         hosts searched
    levels        cutset sizes searched, summed over the hosts
    nodes         search nodes visited (partial and full cutsets)
    leaves        full cutsets reached
    toughness_ms  toughness time per host

`scan` (`criterion` only, the workload whose op is this scan; C = 400)
runs `deficiency_scan` on each host, once seeking the first barrier
alone (`biased=False`, as `criterion` does) and once seeking the biased
pair too (as `barrier --biased` does).  It sums the scans' `ScanStats`
and prints:

    hosts             hosts scanned
    decide_u_sets     U-sets whose state the first-barrier scans used
    decide_walked     pairs the first-barrier scans scored one by one
    decide_evaluated  pairs the first-barrier scans covered
    biased_u_sets     U-sets whose state the biased scans used
    biased_walked     pairs the biased scans scored one by one
    biased_evaluated  pairs the biased scans covered
    scan_ms           time per host of both scans
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from bergefactor import factor_solver, hypergraph, matching  # noqa: E402
from bergefactor.factor_solver import (build_gadget, greedy_selection,  # noqa: E402
                                       sparse_y_vertex)
from bergefactor.formats import parse_big, parse_hg  # noqa: E402
from bergefactor.incidence import incidence_graph  # noqa: E402
from bergefactor.parity_criterion import DegreeSpec, deficiency_scan  # noqa: E402
import workloads  # noqa: E402

TIMED_PASSES = 3

# A kernel's profile takes the instances and returns the number it
# profiled, its counts in print order and a run() that the timing
# passes call.
Profile = tuple[int, dict, Callable[[], None]]


def matcher(insts) -> Profile:
    built = []
    complete = restarted = 0
    order = factor_solver._restart_order
    runs = []

    def counted_order(*args):
        runs.append(1)
        return order(*args)

    factor_solver._restart_order = counted_order
    try:
        for inst in insts:
            host = (incidence_graph(parse_hg(inst.text))
                    if inst.suffix == ".hg" else parse_big(inst.text))
            spec = DegreeSpec(inst.k)
            if (sparse_y_vertex(host, spec) is not None
                    or inst.k * host.y_count % 2):
                continue
            runs.clear()
            selection, unmet = greedy_selection(host, spec)
            if unmet:
                built.append(build_gadget(host, spec, selection))
            else:
                complete += 1
                restarted += bool(runs)
    finally:
        factor_solver._restart_order = order

    calls = {"phases": 0, "single_root": 0, "augmentations": 0}
    kernel = matching._augment_from

    def counted(roots, adj, match, *args):
        calls["phases" if len(roots) > 1 else "single_root"] += 1
        exposed = match.count(-1)
        retired = kernel(roots, adj, match, *args)
        calls["augmentations"] += (exposed - match.count(-1)) // 2
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

    def run():
        for gd in built:
            matching.complete_matching(list(gd.start), [None] * gd.n,
                                       gd.expand)

    per = max(1, len(built))
    counts = {
        "complete_starts": complete,
        "restarted": restarted,
        "gadget_vertices": f"{sum(gd.n for gd in built) / per:.1f}",
        "gadget_edges": f"{sum(len(gd.graph.edges) for gd in built) / per:.1f}",
        "perfect": perfect, **calls, "expanded": f"{expanded / per:.3f}"}
    return len(built), counts, run


def toughness(insts) -> Profile:
    hosts = [parse_hg(inst.text) for inst in insts]
    counts = {"levels": 0, "nodes": 0, "leaves": 0}
    search = hypergraph._search_level

    def counted(plan, size, need, best):
        best, nodes, leaves = search(plan, size, need, best)
        counts["levels"] += 1
        counts["nodes"] += nodes
        counts["leaves"] += leaves
        return best, nodes, leaves

    def run():
        for h in hosts:
            hypergraph.toughness(h)

    hypergraph._search_level = counted
    try:
        run()
    finally:
        hypergraph._search_level = search
    return len(hosts), counts, run


def scan(insts) -> Profile:
    hosts = [(parse_big(inst.text), DegreeSpec(inst.k)) for inst in insts]
    counts = {}
    for mode, biased in (("decide", False), ("biased", True)):
        stats = [deficiency_scan(g, spec, biased=biased).stats
                 for g, spec in hosts]
        for key in ("u_sets", "walked", "evaluated"):
            counts[f"{mode}_{key}"] = sum(getattr(s, key) for s in stats)

    def run():
        for g, spec in hosts:
            deficiency_scan(g, spec, biased=False)
            deficiency_scan(g, spec)

    return len(hosts), counts, run


class Kernel(NamedTuple):
    profile: Callable[[list], Profile]
    unit: str              # key of the instance count, the first line
    workloads: list[str]   # the --workload choices
    count: int             # the --count default


KERNELS = {
    "matcher": Kernel(matcher, "gadgets", sorted(workloads.WORKLOADS), 150),
    "toughness": Kernel(toughness, "hosts", ["census"], 512),
    "scan": Kernel(scan, "hosts", ["criterion"], 400),
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="kernel", required=True)
    for name, kern in KERNELS.items():
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True, choices=kern.workloads)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--count", type=int, default=kern.count)
    args = ap.parse_args(argv)
    kern = KERNELS[args.kernel]
    n, counts, run = kern.profile(
        workloads.instances(args.workload, args.seed, args.count))

    best = float("inf")
    for _ in range(TIMED_PASSES):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)

    print(f"{kern.unit}={n}")
    for key, value in counts.items():
        print(f"{key}={value}")
    print(f"{args.kernel}_ms={1000 * best / max(1, n):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
