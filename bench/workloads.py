"""Seeded instance generators, ops and output checks for the benchmark.

Each workload draws from ``random.Random(f"{name}:{seed}")`` and writes
the instance text itself (``.hg`` or ``.big``), so one seed gives the
same bytes whatever the package under test does.  Sizes, k and the
other properties that set an op's cost are fixed by instance position,
sizes through low-discrepancy sequences, and only the edges are random.
Any prefix of the instance list, and so any run that stops part-way
through it, is then a balanced sample, which keeps the seed-to-seed
spread of the metrics small.

An op always starts from a file on disk, never from an object built
earlier: ``Hypergraph.edge_masks``, ``BipartiteGraph.y_neighbors`` and
``GeneralGraph.adjacency`` are cached properties, and an object reused
across ops would skip work a user's first call pays for.

Outcomes of ``Workload.check``: ``OK`` (the answer was verified),
``REFUSED`` (an enumeration budget refused the request, CLI exit 3) or
an error string naming what the check rejected.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

OK = "ok"
REFUSED = "refused"

_PHI = (math.sqrt(5) - 1) / 2
_SQRT2 = math.sqrt(2) - 1

# Size ranges (inclusive) and the criterion host size.  Each keeps a
# 25-s run at 170+ ops, so that op_p90_ms has 17+ samples above it.
CENSUS_N = (10, 14)
FACTOR_N = (40, 80)
NOFACTOR_N = (60, 120)
CRITERION_V = 10


def spread(i: int, lo: int, hi: int, alpha: float = _PHI) -> int:
    """The i-th term of a low-discrepancy sequence over lo..hi."""
    return lo + int(((i + 1) * alpha) % 1.0 * (hi - lo + 1))


@dataclass(frozen=True)
class Instance:
    """One generated input: file suffix, text, degree target k and the
    answer known by construction (None when unknown)."""

    suffix: str
    text: str
    k: int
    has_factor: bool | None


def hg_text(n: int, edges: list[tuple[int, ...]]) -> str:
    lines = [f"{n} {len(edges)}"]
    lines += [" ".join(map(str, e)) for e in sorted(edges)]
    return "\n".join(lines) + "\n"


def big_text(ny: int, rows: list[list[int]]) -> str:
    lines = [f"{len(rows)} {ny}"]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def _random_edge(rng: random.Random, n: int, must: tuple[int, ...] = ()
                 ) -> tuple[int, ...]:
    """A hyperedge of size 2..6 containing every vertex of `must`."""
    size = rng.randint(max(2, len(must)), min(6, n))
    vs = set(must)
    while len(vs) < size:
        vs.add(rng.randrange(n))
    return tuple(sorted(vs))


def regular_multigraph(rng: random.Random, n: int, k: int
                       ) -> list[tuple[int, int]]:
    """A loopless k-regular multigraph on n vertices (k*n even), by
    pairing k stubs per vertex and redrawing any pairing with a loop."""
    stubs = [v for v in range(n) for _ in range(k)]
    while True:
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in pairs):
            return pairs


def gen_census(rng: random.Random, count: int) -> list[Instance]:
    """n in CENSUS_N, m n..3n, edge sizes 2..6, k in {1,2,3} with k*n
    even.  n, m and k are fixed by position; only the edges are random."""
    out = []
    for i in range(count):
        n = spread(i, *CENSUS_N)
        ks = [k for k in (1, 2, 3) if k * n % 2 == 0]
        k = ks[i % len(ks)]
        m = spread(i, n, 3 * n, _SQRT2)
        edges = [_random_edge(rng, n) for _ in range(m)]
        out.append(Instance(".hg", hg_text(n, edges), k, None))
    return out


def gen_factor_large(rng: random.Random, count: int) -> list[Instance]:
    """A planted Berge-k-factor (k in {2,3}): every edge of a k-regular
    multigraph grows into a hyperedge of size 2..6, then n random
    hyperedges are added."""
    out = []
    for i in range(count):
        n = spread(i, *FACTOR_N)
        k = 2 + i % 2
        n += (k * n) % 2
        edges = [_random_edge(rng, n, pair)
                 for pair in regular_multigraph(rng, n, k)]
        edges += [_random_edge(rng, n) for _ in range(n)]
        out.append(Instance(".hg", hg_text(n, edges), k, True))
    return out


def unequal_bipartite(rng: random.Random, n: int, k: int, gap: int
                      ) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Sides A, B with |A| + |B| = n and |B| - |A| = gap or gap + 1, and a
    simple edge set in which every vertex has degree at least k.  Vertex
    labels are shuffled so the sides are not contiguous."""
    labels = list(range(n))
    rng.shuffle(labels)
    a_size = (n - gap) // 2
    side_a, side_b = labels[:a_size], labels[a_size:]
    edges: set[tuple[int, int]] = set()
    for a in side_a:
        for b in rng.sample(side_b, k):
            edges.add((a, b))
    for b in side_b:
        have = {a for a, bb in edges if bb == b}
        for a in rng.sample([a for a in side_a if a not in have],
                            max(0, k - len(have))):
            edges.add((a, b))
    for _ in range(n // 2):
        edges.add((rng.choice(side_a), rng.choice(side_b)))
    return side_a, side_b, sorted(edges)


def gen_nofactor_large(rng: random.Random, count: int) -> list[Instance]:
    """2-uniform bipartite hypergraphs with unequal sides and minimum
    degree >= k: a k-regular spanning subgraph would need k|A| = k|B|,
    so no Berge-k-factor exists, yet no vertex is too sparse for the
    gadget to be built.  The side gap, 1..4, is fixed by position: it
    sets how many matcher roots fail, which dominates the cost."""
    out = []
    for i in range(count):
        n = spread(i, *NOFACTOR_N)
        k = 2 + i % 2
        n += (k * n) % 2
        _, _, edges = unequal_bipartite(rng, n, k, 1 + (i // 2) % 4)
        out.append(Instance(".hg", hg_text(n, [tuple(sorted(e)) for e in edges]),
                            k, False))
    return out


def has_2k_factor(ny: int, rows: list[list[int]], k: int) -> bool:
    """Backtracking (2,k)-factor search, independent of the package:
    each X-vertex takes none or two of its Y-neighbours, and every
    Y-vertex must end with exactly k."""
    need = [k] * ny
    left = [0] * ny  # X-vertices not yet decided that could still serve y
    for r in rows:
        for y in r:
            left[y] += 1
    order = sorted(range(len(rows)), key=lambda x: len(rows[x]))

    def go(i: int) -> bool:
        if i == len(order):
            return not any(need)
        r = rows[order[i]]
        for y in r:
            left[y] -= 1
        choices = [()] + [(r[a], r[b]) for a in range(len(r))
                          for b in range(a + 1, len(r))]
        for pick in choices:
            if any(need[y] == 0 for y in pick):
                continue
            for y in pick:
                need[y] -= 1
            if all(need[y] <= left[y] for y in r) and go(i + 1):
                return True
            for y in pick:
                need[y] += 1
        for y in r:
            left[y] += 1
        return False

    return go(0)


def gen_criterion(rng: random.Random, count: int) -> list[Instance]:
    """Bipartite hosts with |X| + |Y| = CRITERION_V, X-rows of 1..4
    neighbours and every Y-degree >= k.  Half the hosts have k = 1 and
    |Y| = 6, half k = 2 and |Y| = 5, so k|Y| is even and a factor has
    enough X-vertices to use.  One in four has a factor, the rest have
    none (the answer comes from `has_2k_factor`).  Both mixes are fixed
    by position, so only the edges are random.

    The cost of the first-barrier pass comes in steps of about 3x, set
    by the highest vertex the first barrier needs.  One host size and
    this mix put op_p50_ms among the cheap ops and op_p90_ms inside the
    top step, away from the gaps between steps, where a percentile
    would jump from seed to seed."""
    out = []
    total = CRITERION_V
    for i in range(count):
        k = 1 + (i // 4) % 2
        want = i % 4 == 0
        ny = 6 if k == 1 else 5
        nx = total - ny
        while True:
            rows = [sorted(rng.sample(range(ny), rng.randint(1, 4)))
                    for _ in range(nx)]
            deg = [0] * ny
            for r in rows:
                for y in r:
                    deg[y] += 1
            if min(deg) >= k and has_2k_factor(ny, rows, k) == want:
                break
        out.append(Instance(".big", big_text(ny, rows), k, want))
    return out




# --- ops and checks ---------------------------------------------------------
#
# `bf` is the imported `bergefactor` package.  Ops look every function up
# through its module at call time, so the tracer's wrappers see them.


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str


def run_cli(bf, argv: list[str]) -> CliResult:
    """One in-process `bergefactor` command with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bf.cli.cli(argv)
    return CliResult(code, out.getvalue())


def _bipartite_of(bf, inst: Instance):
    if inst.suffix == ".hg":
        return bf.incidence.incidence_graph(bf.formats.parse_hg(inst.text))
    return bf.formats.parse_big(inst.text)


def check_barrier_text(bf, inst: Instance, text: str) -> str:
    """Recompute a printed .bar certificate: the stated delta and
    components must match the recomputation, and delta must be < 0."""
    br = bf.formats.parse_bar(text)
    rec = bf.parity_criterion.delta(_bipartite_of(bf, inst), br.a, br.b,
                                    bf.parity_criterion.DegreeSpec(inst.k))
    if rec.delta != br.delta:
        return f"barrier delta {br.delta} != recomputed {rec.delta}"
    if set(rec.components) != set(br.components):
        return "barrier components differ from the recomputation"
    if rec.delta >= 0:
        return f"barrier delta {rec.delta} is not negative"
    return OK


def census_op(bf, path: str, inst: Instance):
    """The two questions the theorem connects, called as
    `harness.verify_theorem` calls them: exact toughness, then a
    Berge-k-factor."""
    h = bf.formats.load_hypergraph(path)
    return (bf.hypergraph.toughness(h),
            bf.factor_solver.find_berge_k_factor(h, inst.k))


def census_check(bf, inst: Instance, res) -> str:
    tau, cert = res
    h = bf.formats.parse_hg(inst.text)
    if tau.value is not None:
        rest = bf.hypergraph.strong_delete(h, tau.witness).hypergraph
        c = len(bf.hypergraph.components(rest))
        if c < 2 or Fraction(len(tau.witness), c) != tau.value:
            return f"toughness {tau} does not match its witness {tau.witness}"
    if cert is not None:
        verdict = bf.hypergraph.verify_berge_factor(h, cert)
        if cert.k != inst.k or not verdict:
            return f"factor certificate rejected: {verdict.reason}"
        return OK
    if tau.satisfies(inst.k) and h.n >= inst.k + 1:
        return f"no Berge-{inst.k}-factor although toughness {tau} >= k"
    return OK


def factor_op(bf, path: str, inst: Instance) -> CliResult:
    return run_cli(bf, ["factor", path, "-k", str(inst.k)])


def factor_check(bf, inst: Instance, res: CliResult) -> str:
    """`factor` prints a .bkf certificate (exit 0) or a barrier line
    followed by a .bar certificate (exit 1); exit 3 is a refusal."""
    if res.code == 3:
        return REFUSED
    if res.code == 0:
        if inst.has_factor is False:
            return "claimed a factor on a factor-less instance"
        cert = bf.formats.parse_bkf(res.out)
        verdict = bf.hypergraph.verify_berge_factor(
            bf.formats.parse_hg(inst.text), cert)
        if cert.k != inst.k or not verdict:
            return f"factor certificate rejected: {verdict.reason}"
        return OK
    if res.code == 1:
        if inst.has_factor:
            return "reported no factor on an instance with a planted one"
        head, _, bar = res.out.partition("\n")
        if not head.startswith(f"no Berge-{inst.k}-factor"):
            return f"unexpected output {head!r}"
        return check_barrier_text(bf, inst, bar)
    return f"exit code {res.code}"


def criterion_op(bf, path: str, inst: Instance) -> CliResult:
    return run_cli(bf, ["criterion", path, "-k", str(inst.k)])


def criterion_check(bf, inst: Instance, res: CliResult) -> str:
    """Compare the criterion's yes/no against the matching route and the
    generator's own answer, and recompute any barrier it prints."""
    if res.code == 3:
        return REFUSED
    g = bf.formats.parse_big(inst.text)
    solver = bf.factor_solver.find_2k_factor(
        g, bf.parity_criterion.DegreeSpec(inst.k)) is not None
    if solver != inst.has_factor:
        return f"find_2k_factor says {solver}, the generator says {inst.has_factor}"
    if res.code == 0:
        if not solver:
            return "criterion claims a factor that does not exist"
        return OK
    if res.code == 1:
        if solver:
            return "criterion denies a factor that exists"
        head, _, bar = res.out.partition("\n")
        if not head.startswith(f"no (2,{inst.k})-factor"):
            return f"unexpected output {head!r}"
        return check_barrier_text(bf, inst, bar)
    return f"exit code {res.code}"


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random, int], list[Instance]]
    op: Callable
    check: Callable


WORKLOADS = {w.name: w for w in (
    Workload("census", gen_census, census_op, census_check),
    Workload("factor-large", gen_factor_large, factor_op, factor_check),
    Workload("nofactor-large", gen_nofactor_large, factor_op, factor_check),
    Workload("criterion", gen_criterion, criterion_op, criterion_check),
)}


def instances(name: str, seed: int, count: int) -> list[Instance]:
    """The first `count` instances of workload `name` for `seed`."""
    return WORKLOADS[name].generate(random.Random(f"{name}:{seed}"), count)
