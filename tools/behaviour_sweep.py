"""Same-bytes behaviour sweep of the command line.

Writes a fixed corpus of small inputs into a temporary directory, runs
`toughness`, `y-toughness`, `criterion`, `barrier` (plain, `--biased`,
`--check-structure`) and `factor` on each at k = 1..3, then `verify` on
every `.bar` and `.bkf` certificate those runs print.  The `tough*.hg`
files, random hypergraphs with 11 to 14 vertices, go through `toughness`
and `y-toughness` only: they cover the sizes at which the toughness scan
prunes most.  Each run prints one line

    argv  exit  sha256(stdout)  sha256(stderr)

with paths relative to the corpus directory, so the outputs of two
checkouts compare with `diff`:

    python3 tools/behaviour_sweep.py > after.txt

The corpus comes from this script's own seeded generator, not from the
package's, so a change to the package cannot change its inputs.  The
commands run in-process against the `src/` tree next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bergefactor.cli import cli  # noqa: E402


def hg_text(n: int, edges) -> str:
    edges = sorted(tuple(sorted(e)) for e in edges)
    return "\n".join([f"{n} {len(edges)}"]
                     + [" ".join(map(str, e)) for e in edges]) + "\n"


def big_text(ny: int, rows) -> str:
    return "\n".join([f"{len(rows)} {ny}"]
                     + [" ".join(map(str, sorted(r))) for r in rows]) + "\n"


def corpus() -> dict[str, str]:
    """File name -> text: named families, random files with at most 14
    vertices in the incidence view, then the larger `tough*.hg` files."""
    files = {}
    for n in range(2, 7):
        files[f"path{n}.hg"] = hg_text(n, [(i, i + 1) for i in range(n - 1)])
    for n in range(3, 8):
        files[f"cycle{n}.hg"] = hg_text(
            n, [(i, (i + 1) % n) for i in range(n)])
    for leaves in range(2, 6):
        files[f"star{leaves}.hg"] = hg_text(
            leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    files["k4.hg"] = hg_text(4, combinations(range(4), 2))
    files["k5.hg"] = hg_text(5, combinations(range(5), 2))
    files["k5_3uniform.hg"] = hg_text(5, combinations(range(5), 3))
    files["k23.hg"] = hg_text(5, [(i, 2 + j) for i in range(2) for j in range(3)])
    # Over the criterion budget: an incidence graph of 25 vertices, and a
    # 2 + 16 host whose 2^2 * 3^16 pairs exceed the pair budget.
    petersen = ([(i, (i + 1) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    files["petersen.hg"] = hg_text(10, petersen)
    files["pairs_over.big"] = big_text(16, [range(16), range(16)])
    # Over every scan budget, with Y-vertices (the leaves, the ends) of
    # degree 1, so `factor` at k >= 2 answers without the scan.
    files["star30.hg"] = hg_text(31, [(0, i) for i in range(1, 31)])
    files["path30.hg"] = hg_text(30, [(i, i + 1) for i in range(29)])
    rng = random.Random(20261018)
    for i in range(30):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(6, 14 - n))
        edges = [rng.sample(range(n), rng.randint(1, min(4, n)))
                 for _ in range(m)]
        files[f"rand{i:02d}.hg"] = hg_text(n, edges)
    for i in range(30):
        ny = rng.randint(1, 7)
        nx = rng.randint(1, min(5, 12 - ny))
        rows = [rng.sample(range(ny), rng.randint(0, ny)) for _ in range(nx)]
        files[f"rand{i:02d}.big"] = big_text(ny, rows)
    for i in range(10):
        n = rng.randint(11, 14)
        edges = [rng.sample(range(n), rng.randint(2, 6))
                 for _ in range(rng.randint(n, 3 * n))]
        files[f"tough{i:02d}.hg"] = hg_text(n, edges)
    return files


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest()
              for s in (out, err)]
    print("  ".join([" ".join(argv), str(code)] + digest))
    return code, out.getvalue()


def barrier_text(stdout: str) -> str:
    """The `.bar` part of a barrier run: everything before the clause
    report that `--check-structure` appends."""
    lines = stdout.splitlines(keepends=True)
    keep = [ln for ln in lines
            if not ln.startswith(("clause ", "structure:"))]
    return "".join(keep)


def sweep() -> None:
    certs: list[tuple[str, str, int, str]] = []  # input, file, k, text
    for name, text in corpus().items():
        Path(name).write_text(text)
        stem = name.replace(".", "_")
        if name.endswith(".hg"):
            run(["toughness", name])
        run(["y-toughness", name])
        if name.startswith("tough"):
            continue
        for k in (1, 2, 3):
            code, out = run(["criterion", name, "-k", str(k)])
            if code == 1:
                certs.append((name, f"{stem}.criterion.k{k}.bar",
                              k, out.split("\n", 1)[1]))
            for flags in ([], ["--biased"], ["--check-structure"]):
                code, out = run(["barrier", name, "-k", str(k)] + flags)
                if code in (0, 1) and not out.startswith("no barrier"):
                    tag = flags[0].strip("-") if flags else "plain"
                    certs.append((name, f"{stem}.barrier-{tag}.k{k}.bar",
                                  k, barrier_text(out)))
            code, out = run(["factor", name, "-k", str(k)])
            if code == 0:
                certs.append((name, f"{stem}.factor.k{k}.bkf", k, out))
            elif code == 1:
                certs.append((name, f"{stem}.factor.k{k}.bar",
                              k, out.split("\n", 1)[1]))
    for name, cert, k, text in certs:
        Path(cert).write_text(text)
        if cert.endswith(".bar"):
            run(["verify", name, cert, "-k", str(k)])
        else:
            run(["verify", name, cert])


def main() -> None:
    # The default budgets are part of the behaviour being compared.
    os.environ.pop("BF_BUDGET", None)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            sweep()
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
