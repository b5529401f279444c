"""The profile scripts in `tools/` run against the package in `src/` and
print exactly the `key=value` lines their docstrings list.  Two of them
wrap a private kernel of the package, so a change to how that kernel is
called shows here first."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _documented_keys(script):
    # The indented block after "line each:" in the docstring, one key
    # per line; deeper-indented lines continue a description.
    doc = ast.get_docstring(ast.parse(script.read_text()))
    block = doc.split("line each:\n\n", 1)[1].split("\n\n", 1)[0]
    return [ln.split()[0] for ln in block.splitlines()
            if ln.startswith("    ") and not ln[4].isspace()]


@pytest.mark.parametrize("tool, workload", [
    pytest.param("matcher_profile", "census", id="matcher_profile"),
    pytest.param("toughness_profile", "census", id="toughness_profile"),
    pytest.param("scan_profile", "criterion", id="scan_profile"),
])
def test_profile_tool_prints_its_documented_keys(tool, workload):
    script = ROOT / "tools" / f"{tool}.py"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--count", "3"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert all("=" in ln for ln in lines), out.stdout
    assert [ln.split("=", 1)[0] for ln in lines] == _documented_keys(script)
