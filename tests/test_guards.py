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
from bergefactor.families import cycle
from bergefactor.hypergraph import Verdict

assert False, "this child must run with -O"
fs.verify_2k_factor = lambda g, factor: Verdict(False, "rejected on purpose")
try:
    fs.find_2k_factor(incidence_graph(cycle(4)), DegreeSpec(2))
except RuntimeError as e:
    print("raised:", e)
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
    out = _run_under_O(_REJECTING_VERIFIER)
    assert out.startswith("raised: gadget extraction produced a bad "
                          "factor: rejected on purpose"), out


_BAD_START = """
from bergefactor import GeneralGraph, perfect_matching

assert False, "this child must run with -O"
g = GeneralGraph(4, [(0, 1), (1, 2), (2, 3)])
try:
    perfect_matching(g, [1, -1, -1, -1])
except ValueError as e:
    print("raised:", e)
else:
    print("accepted a start that is not an involution")
"""


def test_matcher_rejects_non_involutive_start_under_O():
    out = _run_under_O(_BAD_START)
    assert out.startswith("raised: start pairs vertex 0 with 1"), out


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
