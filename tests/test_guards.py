"""Runtime guards that must hold under `python -O`, which strips
`assert` statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bergefactor

SRC = Path(bergefactor.__file__).resolve().parent

_REJECTING_VERIFIER = """
import bergefactor.factor_solver as fs
from bergefactor import DegreeSpec, incidence_graph
from bergefactor.families import complete_graph, cycle
from bergefactor.hypergraph import Verdict

assert False, "this child must run with -O"
fs.verify_2k_factor = lambda g, factor: Verdict(False, "rejected on purpose")
real = fs.build_gadget
laid = []


def counted(*args):
    laid.append(args)
    return real(*args)


fs.build_gadget = counted
for h, k in ((cycle(4), 2), (complete_graph(5), 2)):
    laid.clear()
    try:
        fs.find_2k_factor(incidence_graph(h), DegreeSpec(k))
    except RuntimeError as e:
        print(f"{len(laid)} gadgets, raised:", e)
    else:
        print("returned an unchecked factor")
"""


def _run_under_O(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_solver_rejects_unverified_factor_under_O():
    # on a host whose selection is a factor, so that no gadget is laid
    # out, and on one whose selection leaves need
    lines = _run_under_O(_REJECTING_VERIFIER).splitlines()
    assert lines == [
        f"{n} gadgets, raised: gadget extraction produced a bad factor: "
        "rejected on purpose" for n in (0, 1)], lines


_BAD_START = """
from bergefactor import GeneralGraph, complete_matching

assert False, "this child must run with -O"
g = GeneralGraph(4, [(0, 1), (1, 2), (2, 3)])
for start in ([1, -1, -1, -1], [1, 0, -1]):
    try:
        complete_matching(start, g.adjacency)
    except ValueError as e:
        print("raised:", e)
    else:
        print("accepted a start that is no matching")
"""


def test_matcher_rejects_non_involutive_start_under_O():
    # a start that is no involution, and one of the wrong length
    lines = _run_under_O(_BAD_START).splitlines()
    assert lines[0].startswith("raised: start pairs vertex 0 with 1"), lines
    assert lines[1:] == ["raised: start has 3 entries, the graph 4 vertices"]


_BAD_GADGET_START = """
import dataclasses

import bergefactor.factor_solver as fs
from bergefactor import DegreeSpec, incidence_graph, matching
from bergefactor.families import complete_graph

assert False, "this child must run with -O"
real = fs.build_gadget
kernel = matching._augment_from
searches = []


def counted(*args):
    searches.append(len(args[0]))
    return kernel(*args)


def doctored(involution):
    # The first root's first neighbour t is inner in its tree, so t's
    # mate is the first vertex past the roots that the forest expands.
    # Pair t with a non-neighbour s; unless `involution`, the old mates
    # of t and s still point at them.
    def build(*args):
        gd = real(*args)
        start = list(gd.start)
        t = gd.expand(start.index(-1))[0]
        s = next(v for v, w in enumerate(start)
                 if w not in (-1, t, start[t]) and v not in gd.expand(t))
        if involution:
            start[start[t]], start[start[s]] = start[s], start[t]
        start[t], start[s] = s, t
        return dataclasses.replace(gd, start=tuple(start))
    return build


# The selection on K_5 at k = 2 leaves need 2 after its restarts, so a
# gadget is laid out.
matching._augment_from = counted
for involution in (False, True):
    fs.build_gadget = doctored(involution)
    searches.clear()
    try:
        fs.find_2k_factor(incidence_graph(complete_graph(5)), DegreeSpec(2))
    except ValueError as e:
        print(f"raised after {len(searches)} searches:", e)
    else:
        print("searched from an unchecked start")
"""


def test_factor_search_rejects_a_bad_gadget_start_under_O():
    # a start that is no involution fails before any search; an
    # involution that pairs a vertex with a non-neighbour fails when the
    # forest first builds that vertex's neighbours
    lines = _run_under_O(_BAD_GADGET_START).splitlines()
    assert [ln.split(": ")[0] for ln in lines] == [
        "raised after 0 searches", "raised after 1 searches"], lines
    assert all(ln.endswith("which is not a matching edge") for ln in lines)


_WRONG_DELTA = """
import dataclasses

import bergefactor.parity_criterion as pc
from bergefactor import DegreeSpec, incidence_graph
from bergefactor.families import star

assert False, "this child must run with -O"
real = pc.delta


def wrong(*args):
    rec = real(*args)
    return dataclasses.replace(rec, delta=rec.delta + 2)


pc.delta = wrong
g = incidence_graph(star(3))
for fn in (pc.deficiency_scan, pc.decide_by_criterion, pc.find_biased_barrier):
    try:
        fn(g, DegreeSpec(1))
    except RuntimeError as e:
        print(fn.__name__, "raised:", e)
    else:
        print(fn.__name__, "returned an unchecked pair")
"""


def test_scan_rejects_misevaluated_pair_under_O():
    lines = _run_under_O(_WRONG_DELTA).splitlines()
    assert [ln.split(" raised: ")[0] for ln in lines] == [
        "deficiency_scan", "decide_by_criterion", "find_biased_barrier"], lines
    assert all("re-evaluates to delta" in ln for ln in lines), lines


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements vanish under python -O: {found}"


def test_package_exports_resolve():
    names = bergefactor.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(bergefactor, n)]
    assert missing == [], f"__all__ names that do not resolve: {missing}"
    namespace: dict = {}
    exec("from bergefactor import *", namespace)
    assert set(names) <= namespace.keys()
