"""Work profile of the deficiency scan on a benchmark workload.

    python3 tools/scan_profile.py --workload criterion --seed 1 --count 400

Runs `deficiency_scan` on each of the first COUNT hosts that
`bench/workloads.instances` generates for the workload and seed, once
seeking the first barrier alone (`biased=False`, as `criterion` does)
and once seeking the biased pair too (as `barrier --biased` does).  One
pass sums the scans' `ScanStats`; TIMED_PASSES more passes time the two
scans alone.  Prints one `key=value` line each:

    hosts             hosts scanned
    decide_u_sets     U-sets whose state the first-barrier scans used
    decide_walked     pairs the first-barrier scans scored one by one
    decide_evaluated  pairs the first-barrier scans covered
    biased_u_sets     U-sets whose state the biased scans used
    biased_walked     pairs the biased scans scored one by one
    biased_evaluated  pairs the biased scans covered
    scan_ms           time per host of both scans, best pass

Every line but `scan_ms` depends only on the instances and the package,
so two checkouts compare with `diff`.  Only `criterion` is offered: it
is the workload whose op is this scan.  The package is imported from
the `src/` tree next to this script.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from bergefactor.formats import parse_big  # noqa: E402
from bergefactor.parity_criterion import DegreeSpec, deficiency_scan  # noqa: E402
import workloads  # noqa: E402

TIMED_PASSES = 3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["criterion"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=400)
    args = ap.parse_args(argv)
    hosts = [(parse_big(inst.text), DegreeSpec(inst.k))
             for inst in workloads.instances(args.workload, args.seed,
                                             args.count)]

    counts = {}
    for mode, biased in (("decide", False), ("biased", True)):
        u_sets = walked = evaluated = 0
        for g, spec in hosts:
            stats = deficiency_scan(g, spec, biased=biased).stats
            u_sets += stats.u_sets
            walked += stats.walked
            evaluated += stats.evaluated
        counts[f"{mode}_u_sets"] = u_sets
        counts[f"{mode}_walked"] = walked
        counts[f"{mode}_evaluated"] = evaluated

    best = float("inf")
    for _ in range(TIMED_PASSES):
        t0 = time.perf_counter()
        for g, spec in hosts:
            deficiency_scan(g, spec, biased=False)
            deficiency_scan(g, spec)
        best = min(best, time.perf_counter() - t0)

    print(f"hosts={len(hosts)}")
    for key, value in counts.items():
        print(f"{key}={value}")
    print(f"scan_ms={1000 * best / max(1, len(hosts)):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
