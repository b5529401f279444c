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


def test_solver_rejects_unverified_factor_under_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", _REJECTING_VERIFIER],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: gadget extraction produced a bad "
                                 "factor: rejected on purpose"), out.stdout


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements vanish under python -O: {found}"
