"""Instance generators and the two experiment drivers: theorem
verification (every tough-enough hypergraph has a Berge-k-factor) and
tightness search (how tough can a factor-less hypergraph be)."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Iterator

from .factor_solver import find_2k_factor, find_berge_k_factor
from .hypergraph import Hypergraph, ToughnessValue, toughness
from .incidence import BipartiteGraph, incidence_graph
from .parity_criterion import Barrier, DegreeSpec, find_biased_barrier


def gen_random_hypergraph(n: int, m: int, seed: int) -> Hypergraph:
    """Draw m edges, each of a size uniform in 2..n, vertex sets uniform
    without replacement inside each edge (repeated edges across draws
    are kept: multiset semantics).  Identical arguments give identical
    output."""
    if n < 2:
        raise ValueError(f"need n >= 2 for edges of size >= 2, got {n}")
    if m < 0:
        raise ValueError("m must be non-negative")
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        size = rng.randint(2, n)
        edges.append(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(n, sorted(edges))


def gen_random_bipartite(x_count: int, y_count: int, density: float,
                         seed: int) -> BipartiteGraph:
    """Random bipartite graph: each (x, y) edge present independently
    with the given density; empty X-rows get one forced edge so the
    graph stays hypergraph-representable."""
    rng = random.Random(seed)
    rows = []
    for _ in range(x_count):
        row = [y for y in range(y_count) if rng.random() < density]
        if not row:
            row = [rng.randrange(y_count)]
        rows.append(row)
    return BipartiteGraph(x_count, y_count, rows)


def possible_edges(n: int) -> list[tuple[int, ...]]:
    """All candidate hyperedges on n vertices with at least 2 vertices,
    in ascending tuple order."""
    out: list[tuple[int, ...]] = []
    for r in range(2, n + 1):
        out.extend(combinations(range(n), r))
    out.sort()
    return out


def enumerate_hypergraphs(n: int, max_edges: int) -> Iterator[Hypergraph]:
    """Every hypergraph on n labeled vertices given as a sorted multiset
    of edges of size at least 2, with at most max_edges edges (no
    isomorphism rejection)."""
    pe = possible_edges(n)
    for t in range(max_edges + 1):
        for combo in combinations_with_replacement(pe, t):
            yield Hypergraph(n, list(combo))


def enumerate_bipartite_graphs(total_max: int) -> Iterator[BipartiteGraph]:
    """Every bipartite graph with |X| + |Y| <= total_max, no isolated
    X-vertices (each X-row a nonempty subset of Y), labeled census."""
    for ny in range(1, total_max):
        rows = [[y for y in range(ny) if m >> y & 1]
                for m in range(1, 1 << ny)]
        for nx in range(1, total_max - ny + 1):
            for choice in product(range(len(rows)), repeat=nx):
                yield BipartiteGraph(nx, ny, [rows[i] for i in choice])


def enumerate_graph_edge_sets(n: int) -> Iterator[Hypergraph]:
    """All 2-uniform hypergraphs (simple graphs) on n labeled vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Hypergraph(n, [pairs[i] for i in range(len(pairs))
                             if mask >> i & 1])


@dataclass(frozen=True)
class ExhaustiveMode:
    """Every hypergraph with edges of size >= 2 and at most max_edges
    edges."""

    max_edges: int = 6


@dataclass(frozen=True)
class RandomMode:
    """`trials` seeded random hypergraphs, each with 1..6 edges."""

    trials: int
    seed: int


@dataclass(frozen=True)
class Violation:
    """A hypothesis-satisfying instance the solver could not factor,
    with the barrier that would certify non-existence."""

    hypergraph: Hypergraph
    tau: ToughnessValue
    k: int
    barrier: Barrier


@dataclass(frozen=True)
class TheoremReport:
    k: int
    mode: str
    total: int
    eligible: int
    factors_found: int
    violations: tuple[Violation, ...]
    elapsed: float
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_theorem(n_range: tuple[int, int], k: int,
                   mode: ExhaustiveMode | RandomMode) -> TheoremReport:
    """Check the factor theorem over a census or a seeded random batch:
    every instance with tau >= k, k*n even and n >= k+1 must admit a
    Berge-k-factor.  Certificates are re-verified; a missing factor is
    recorded with its biased barrier.  The exhaustive mode takes n <= 5
    and the random mode n <= 10; a larger range is a ValueError, as no
    budget covers it."""
    n_lo, n_hi = n_range
    if n_lo < 1 or n_lo > n_hi:
        raise ValueError(f"bad n range [{n_lo}, {n_hi}]")
    spec = DegreeSpec(k)
    start = time.perf_counter()
    seed: int | None
    if isinstance(mode, ExhaustiveMode):
        if n_hi > 5:
            raise ValueError(
                f"exhaustive theorem verification supports n <= 5, got {n_hi}")
        instances: Iterator[Hypergraph] = (
            h for n in range(n_lo, n_hi + 1)
            for h in enumerate_hypergraphs(n, mode.max_edges))
        seed = None
        desc = f"exhaustive n<={n_hi} m<={mode.max_edges}"
    else:
        if n_hi > 10:
            raise ValueError(
                f"random theorem verification supports n <= 10, got {n_hi}")
        if n_lo < 2:
            raise ValueError("random mode needs n >= 2")

        def draw() -> Iterator[Hypergraph]:
            rng = random.Random(mode.seed)
            for _ in range(mode.trials):
                n = rng.randint(n_lo, n_hi)
                m = rng.randint(1, 6)
                yield gen_random_hypergraph(n, m, rng.getrandbits(32))

        instances = draw()
        seed = mode.seed
        desc = f"random trials={mode.trials} n<={n_hi}"
    total = eligible = found = 0
    violations: list[Violation] = []
    for h in instances:
        total += 1
        if (k * h.n) % 2 != 0 or h.n < k + 1:
            continue
        tau = toughness(h)
        if not tau.satisfies(k):
            continue
        eligible += 1
        if find_berge_k_factor(h, k) is not None:
            found += 1
        else:
            violations.append(Violation(
                h, tau, k, find_biased_barrier(incidence_graph(h), spec)))
    return TheoremReport(k, desc, total, eligible, found, tuple(violations),
                         time.perf_counter() - start, seed)


@dataclass(frozen=True)
class TightnessResult:
    """Best (toughest) factor-less instance found within the budget."""

    k: int
    examined: int
    candidates: int
    best_tau: Fraction | None
    instance: Hypergraph | None
    barrier: Barrier | None
    seed: int
    elapsed: float


def _tightness_stream(k: int, n_max: int, seed: int) -> Iterator[Hypergraph]:
    # 2-uniform census first (n ascending), then random hypergraphs.
    for n in range(2, min(n_max, 6) + 1):
        yield from enumerate_graph_edge_sets(n)
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, n_max)
        m = rng.randint(1, 2 * n)
        yield gen_random_hypergraph(n, m, rng.getrandbits(32))


def tightness_search(k: int, max_instances: int, n_max: int = 8,
                     seed: int = 0) -> TightnessResult:
    """Stream instances (small-graph census, then seeded random
    hypergraphs), keep the highest toughness among those that satisfy
    the parity and size hypotheses yet lack a Berge-k-factor.  The
    stream is deterministic in (k, n_max, seed) and the budget is a
    prefix length, so a bigger budget never lowers the result.  Ties
    keep the first instance found."""
    if n_max < 2 or n_max > 12:
        raise ValueError("n_max must be in 2..12")
    spec = DegreeSpec(k)
    start = time.perf_counter()
    examined = candidates = 0
    best_tau: Fraction | None = None
    best_h: Hypergraph | None = None
    for h in _tightness_stream(k, n_max, seed):
        if examined >= max_instances:
            break
        examined += 1
        if (k * h.n) % 2 != 0 or h.n < k + 1:
            continue
        if find_2k_factor(incidence_graph(h), spec) is not None:
            continue
        candidates += 1
        tau = toughness(h)
        if tau.value is None:
            raise RuntimeError(
                "complete hypergraph without a factor contradicts the theorem")
        if best_tau is None or tau.value > best_tau:
            best_tau = tau.value
            best_h = h
    barrier = None
    if best_h is not None:
        barrier = find_biased_barrier(incidence_graph(best_h), spec)
    return TightnessResult(k, examined, candidates, best_tau, best_h, barrier,
                           seed, time.perf_counter() - start)
