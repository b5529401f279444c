"""Command line front end.

Exit codes: 0 success / property holds; 1 property fails (no factor, a
violation, a rejected certificate); 2 usage or input format error;
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .budget import BudgetExceededError
# find_berge_k_factor is not called here since `factor` builds the
# incidence graph once for the search and the barrier fallback, but
# bench/tracing.py wraps it under this module's name.
from .factor_solver import (find_2k_factor, find_berge_k_factor,  # noqa: F401
                            lift_to_berge, sparse_reason, sparse_y_vertex)
from .formats import (load_barrier, load_bipartite, load_certificate,
                      load_hypergraph, serialize_bar, serialize_big,
                      serialize_bkf)
from .harness import ExhaustiveMode, RandomMode, tightness_search, verify_theorem
from .hypergraph import toughness, verify_berge_factor
from .incidence import incidence_graph
from .parity_criterion import (DegreeSpec, check_barrier_structure,
                               decide_by_criterion, deficiency_scan, delta,
                               find_biased_barrier)


def _non_negative(text: str) -> int:
    """argparse type of the options that give a count or a budget: a
    negative one is a usage error (exit 2), not an empty run."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _set_fmt(vs) -> str:
    return "{" + ",".join(map(str, vs)) + "}"


def _cmd_toughness(args) -> int:
    tv = toughness(load_hypergraph(args.file), args.enum_budget)
    print(tv)
    if not tv.infinite:
        print(f"witness {_set_fmt(tv.witness)}")
    return 0


def _cmd_incidence(args) -> int:
    sys.stdout.write(serialize_big(incidence_graph(load_hypergraph(args.file))))
    return 0


def _cmd_criterion(args) -> int:
    g = load_bipartite(args.file)
    res = decide_by_criterion(g, DegreeSpec(args.k), args.enum_budget)
    if res.exists:
        print(f"a (2,{args.k})-factor exists")
        return 0
    br = res.barrier
    print(f"no (2,{args.k})-factor: delta={br.delta} |A|={len(br.a)} |B|={len(br.b)}")
    sys.stdout.write(serialize_bar(br))
    return 1


def _cmd_barrier(args) -> int:
    g = load_bipartite(args.file)
    spec = DegreeSpec(args.k)
    if args.biased or args.check_structure:
        br = deficiency_scan(g, spec, args.enum_budget).biased
    else:
        br = decide_by_criterion(g, spec, args.enum_budget).barrier
    if br is None or br.delta >= 0:
        print(f"no barrier: a (2,{args.k})-factor exists")
        return 1
    # Checked before the certificate is written, so an error exit (odd
    # k * |Y|) never carries one.
    report = (check_barrier_structure(g, br, spec)
              if args.check_structure else None)
    sys.stdout.write(serialize_bar(br))
    if report is None:
        return 0
    for name, cc in (("i", report.i), ("ii", report.ii),
                     ("iii", report.iii), ("iv", report.iv)):
        msg = "pass" if cc.passed else f"fail ({cc.witness})"
        print(f"clause {name}: {msg}")
    print(f"structure: {'pass' if report.ok else 'fail'}")
    return 0 if report.ok else 1


def _cmd_factor(args) -> int:
    trace = print if args.trace else None
    h = load_hypergraph(args.file)
    spec = DegreeSpec(args.k)
    g = incidence_graph(h)
    cert = find_2k_factor(g, spec, trace=trace)
    if cert is not None:
        text = serialize_bkf(lift_to_berge(h, cert))
        if args.output:
            Path(args.output).write_text(text)
            print(f"certificate written to {args.output}")
        else:
            sys.stdout.write(text)
        return 0
    try:
        br = find_biased_barrier(g, spec, args.enum_budget)
    except BudgetExceededError:
        # Past the scan budget, a Y-vertex y of degree d < k still gives
        # the barrier (A, B) = ({}, {y}): its delta is at most d - k.
        # A Y-vertex with d2 < k X-neighbours of degree >= 2 gives it
        # too, at delta <= d2 - k: each degree-1 X-neighbour is an odd
        # component that cancels its own edge into B.
        y = sparse_y_vertex(g, spec)
        if y is None:
            raise
        br = delta(g, (), (g.x_count + y,), spec)
        if br.delta >= 0:
            raise RuntimeError(f"{sparse_reason(g, spec, y)} gave delta "
                               f"{br.delta}")
    print(f"no Berge-{args.k}-factor: barrier delta={br.delta}")
    sys.stdout.write(serialize_bar(br))
    return 1


def _cmd_verify(args) -> int:
    cert_path = Path(args.cert)
    if cert_path.suffix == ".bkf":
        h = load_hypergraph(args.file)
        cert = load_certificate(cert_path)
        if args.k is not None and args.k != cert.k:
            print(f"reject: certificate is for k={cert.k}, not k={args.k}")
            return 1
        verdict = verify_berge_factor(h, cert)
        if verdict:
            print("accept")
            return 0
        print(f"reject: {verdict.reason}")
        return 1
    if cert_path.suffix == ".bar":
        if args.k is None:
            print("error: -k is required to verify a .bar certificate",
                  file=sys.stderr)
            return 2
        g = load_bipartite(args.file)
        br = load_barrier(cert_path)
        spec = DegreeSpec(args.k)
        try:
            rec = delta(g, br.a, br.b, spec)
        except ValueError as e:
            print(f"reject: {e}")
            return 1
        if rec.delta != br.delta:
            print(f"reject: recomputed delta {rec.delta} != stated {br.delta}")
            return 1
        if set(rec.components) != set(br.components):
            print("reject: component classification mismatch")
            return 1
        if br.delta >= 0:
            print(f"reject: delta {br.delta} is non-negative, not a barrier")
            return 1
        print(f"accept: barrier delta={br.delta}")
        return 0
    print(f"error: unrecognized certificate extension {cert_path.suffix!r}",
          file=sys.stderr)
    return 2


def _cmd_theorem(args) -> int:
    if args.trials is not None:
        mode: ExhaustiveMode | RandomMode = RandomMode(args.trials, args.seed)
        n_lo = args.n_min if args.n_min is not None else 3
    else:
        mode = ExhaustiveMode(args.max_edges)
        n_lo = args.n_min if args.n_min is not None else 1
    rep = verify_theorem((n_lo, args.n_max), args.k, mode)
    if args.porcelain:
        print(f"k={rep.k}")
        print(f"mode={rep.mode}")
        print(f"total={rep.total}")
        print(f"eligible={rep.eligible}")
        print(f"factors={rep.factors_found}")
        print(f"violations={len(rep.violations)}")
        if rep.seed is not None:
            print(f"seed={rep.seed}")
        print(f"elapsed={rep.elapsed:.3f}")
    else:
        print(f"theorem check: k={rep.k}, {rep.mode}")
        print(f"instances: {rep.total} total, {rep.eligible} eligible, "
              f"{rep.factors_found} with factors")
        for v in rep.violations:
            print(f"VIOLATION: n={v.hypergraph.n} edges={list(v.hypergraph.edges)} "
                  f"tau={v.tau} barrier delta={v.barrier.delta}")
        print(f"violations: {len(rep.violations)}")
        print(f"elapsed: {rep.elapsed:.2f}s")
        if not rep.eligible:
            print("result: PASS (no eligible instance)")
        else:
            print(f"result: {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def _cmd_tightness(args) -> int:
    res = tightness_search(args.k, args.budget, args.n_max, args.seed)
    if args.porcelain:
        print(f"k={res.k}")
        print(f"examined={res.examined}")
        print(f"candidates={res.candidates}")
        if res.best_tau is None:
            print("tau=none")
        else:
            print(f"tau={res.best_tau.numerator}/{res.best_tau.denominator}")
        print(f"seed={res.seed}")
        print(f"elapsed={res.elapsed:.3f}")
    else:
        print(f"tightness search: k={res.k}, budget={args.budget}, "
              f"n<={args.n_max}, seed={res.seed}")
        print(f"examined {res.examined} instances, {res.candidates} lack a factor")
        if res.best_tau is None:
            print("best: none found")
        else:
            if res.instance is None or res.barrier is None:
                raise RuntimeError("tightness result has a tau but no instance")
            print(f"best tau: {res.best_tau.numerator}/{res.best_tau.denominator}")
            print(f"instance: n={res.instance.n} edges={list(res.instance.edges)}")
            print(f"barrier delta={res.barrier.delta}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later
    call in the process: `parse_args` returns a fresh namespace each
    time, and nothing changes the parser once it is built."""
    p = argparse.ArgumentParser(
        prog="bergefactor",
        description="Hypergraph toughness, parity-factor criterion and "
                    "Berge-k-factor tooling.")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name: str, func, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        return sp

    def budget_opt(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--enum-budget", type=_non_negative, default=None,
                        metavar="N",
                        help="override the enumeration size budget")

    sp = cmd("toughness", _cmd_toughness,
             "exact toughness of the hypergraph of a .hg or .big file")
    sp.add_argument("file")
    budget_opt(sp)

    sp = cmd("y-toughness", _cmd_toughness,
             "Y-side toughness of a .big bipartite graph (or .hg via incidence)")
    sp.add_argument("file")
    budget_opt(sp)

    sp = cmd("incidence", _cmd_incidence,
             "print the incidence bipartite graph of a .hg file as .big")
    sp.add_argument("file")

    sp = cmd("criterion", _cmd_criterion,
             "decide (2,k)-factor existence by the deficiency criterion")
    sp.add_argument("file")
    sp.add_argument("-k", type=int, required=True)
    budget_opt(sp)

    sp = cmd("barrier", _cmd_barrier, "find a barrier certifying no (2,k)-factor")
    sp.add_argument("file")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--biased", action="store_true",
                    help="return the canonical biased barrier (full scan)")
    sp.add_argument("--check-structure", action="store_true",
                    help="check the biased barrier's structural clauses (implies --biased)")
    budget_opt(sp)

    sp = cmd("factor", _cmd_factor,
             "construct a Berge-k-factor of a .hg hypergraph or of the "
             "hypergraph a .big represents")
    sp.add_argument("file")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("-o", "--output", metavar="CERT",
                    help="write the .bkf certificate here instead of stdout")
    sp.add_argument("--trace", action="store_true",
                    help="print gadget, matching and extraction progress")
    budget_opt(sp)

    sp = cmd("verify", _cmd_verify,
             "verify a .bkf factor certificate or a .bar barrier certificate")
    sp.add_argument("file", help="the graph the certificate refers to")
    sp.add_argument("cert")
    sp.add_argument("-k", type=int,
                    help="degree target (required for .bar, checked for .bkf)")

    sp = cmd("theorem", _cmd_theorem,
             "verify the toughness theorem exhaustively or on random instances")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--n-min", type=int, default=None)
    sp.add_argument("--max-edges", type=_non_negative, default=6)
    sp.add_argument("--trials", type=_non_negative, default=None,
                    help="random mode with this many instances")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--porcelain", action="store_true",
                    help="stable key=value output")

    sp = cmd("tightness", _cmd_tightness,
             "search for the toughest factor-less instance")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--budget", type=_non_negative, required=True,
                    help="number of streamed instances to examine")
    sp.add_argument("--n-max", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--porcelain", action="store_true")

    return p


def cli(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
