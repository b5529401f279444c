"""`tools/profile.py` runs against the package in `src/`, and each of
its kernels prints exactly the `key=value` lines that the kernel's block
in the tool's docstring lists.  Two kernels wrap a private function of
the package, so a change to how that function is called shows here
first."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "profile.py"

# Each kernel with a workload it offers.
KERNELS = {"matcher": "census", "toughness": "census", "scan": "criterion"}


def _profile(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(TOOL), *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)


def _documented_keys(kernel):
    # The indented block after the paragraph that opens with `kernel`,
    # one key per line; deeper-indented lines continue a description.
    doc = ast.get_docstring(ast.parse(TOOL.read_text()))
    para = doc.split(f"\n\n`{kernel}` (", 1)[1]
    block = para.split(":\n\n", 1)[1].split("\n\n", 1)[0]
    return [ln.split()[0] for ln in block.splitlines()
            if ln.startswith("    ") and not ln[4].isspace()]


@pytest.mark.parametrize("kernel", KERNELS)
def test_profile_tool_prints_its_documented_keys(kernel):
    out = _profile(kernel, "--workload", KERNELS[kernel], "--count", "3")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert all("=" in ln for ln in lines), out.stdout
    assert [ln.split("=", 1)[0] for ln in lines] == _documented_keys(kernel)
    assert lines[-1].startswith(f"{kernel}_ms=")


def test_profile_tool_refuses_a_workload_its_kernel_does_not_offer():
    out = _profile("toughness", "--workload", "criterion", "--count", "3")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "invalid choice: 'criterion'" in out.stderr


def test_profile_tool_kernels_are_all_tested():
    out = _profile("--help")
    assert out.returncode == 0, out.stderr
    choices = re.search(r"\{([\w,]+)\}", out.stdout).group(1).split(",")
    assert sorted(choices) == sorted(KERNELS)


def test_matcher_profile_counts_the_hosts_answered_without_a_gadget():
    # on the first 150 `factor-large` hosts of seed 1 the greedy
    # selection is a factor on all: the degree-ordered pass on 74, and a
    # restart on the other 76, so no gadget is laid out; with the
    # restarts the greedy visits 114.1 Y-vertices per host
    out = _profile("matcher", "--workload", "factor-large", "--seed", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:4] == ["gadgets=0", "complete_starts=150",
                         "restarted=76", "y_visits=114.1"], lines


def test_scan_profile_counts_on_the_first_criterion_hosts():
    # the first 40 `criterion` hosts of seed 1 hold 388800 pairs in
    # all; the first-barrier scans score 0.7% of them and the biased
    # scans 15%, so a change in the scan's pruning or in its accounting
    # moves these lines
    out = _profile("scan", "--workload", "criterion", "--seed", "1",
                   "--count", "40")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[1:7] == ["decide_u_sets=6914", "decide_walked=2659",
                          "decide_evaluated=388800", "biased_u_sets=20963",
                          "biased_walked=57051",
                          "biased_evaluated=388800"], lines
