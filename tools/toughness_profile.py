"""Per-level work profile of exact toughness on a benchmark workload.

    python3 tools/toughness_profile.py --workload census --seed 1 --count 512

Runs `toughness` on each of the first COUNT hosts that
`bench/workloads.instances` generates for the workload and seed.  One
pass counts the work of the level search `hypergraph._search_level`;
TIMED_PASSES more passes time `toughness` alone.  Prints one
`key=value` line each:

    hosts         hosts searched
    levels        cutset sizes searched, summed over the hosts
    nodes         search nodes visited (partial and full cutsets)
    leaves        full cutsets reached
    toughness_ms  toughness time per host, best pass

Every line but `toughness_ms` depends only on the instances and the
package, so two checkouts compare with `diff`.  Only `census` is
offered: the other workloads never call `toughness`.  The package is
imported from the `src/` tree next to this script.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from bergefactor import hypergraph  # noqa: E402
from bergefactor.formats import parse_hg  # noqa: E402
import workloads  # noqa: E402

TIMED_PASSES = 3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["census"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=512)
    args = ap.parse_args(argv)
    hosts = [parse_hg(inst.text)
             for inst in workloads.instances(args.workload, args.seed,
                                             args.count)]

    counts = {"levels": 0, "nodes": 0, "leaves": 0}
    search = hypergraph._search_level

    def counted(plan, size, need, best):
        best, nodes, leaves = search(plan, size, need, best)
        counts["levels"] += 1
        counts["nodes"] += nodes
        counts["leaves"] += leaves
        return best, nodes, leaves

    hypergraph._search_level = counted
    try:
        for h in hosts:
            hypergraph.toughness(h)
    finally:
        hypergraph._search_level = search

    best = float("inf")
    for _ in range(TIMED_PASSES):
        t0 = time.perf_counter()
        for h in hosts:
            hypergraph.toughness(h)
        best = min(best, time.perf_counter() - t0)

    print(f"hosts={len(hosts)}")
    for key, value in counts.items():
        print(f"{key}={value}")
    print(f"toughness_ms={1000 * best / max(1, len(hosts)):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
