"""Parity-factor existence criterion and barrier certificates.

Degree targets on a bipartite host graph G[X, Y]: an X-vertex may take
degree 0 or 2 (even parity enforced), a Y-vertex exactly k.  A spanning
subgraph with these targets (a (2,k)-factor) exists iff no disjoint
vertex pair (A, B) has negative deficiency

    delta(A, B) = sum of upper targets over A
                - sum of lower targets over B
                + sum over B of degrees in G - A
                - number of odd components of G - (A + B),

where a component D is odd when its total upper target plus the number
of edges joining it to B is odd.  A pair with delta < 0 is a barrier.
The *biased* barrier minimizes delta, then |B|, then maximizes |A|, with
residual ties broken lexicographically on (B, A) as sorted index
sequences, which makes it unique.

Vertices are addressed by global index: X first (0..|X|-1), then Y
(|X|..|X|+|Y|-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import budget as _budget
from ._bits import bit_tuple, mask_of
from .hypergraph import Hypergraph, components
from .incidence import BipartiteGraph


class FactorExistsError(Exception):
    """Raised when a barrier is requested but the graph has a factor."""


@dataclass(frozen=True)
class DegreeSpec:
    """Degree targets for a (2,k)-factor: X-vertices 0-or-2, Y-vertices
    exactly k, parity tracked on the X side."""

    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 8:
            raise ValueError("k must be in 1..8")


@dataclass(frozen=True)
class Component:
    """One component of G - (A + B) with its parity class."""

    vertices: tuple[int, ...]
    odd: bool


@dataclass(frozen=True)
class Barrier:
    """A fully evaluated disjoint pair (A, B).  It certifies
    non-existence of the factor exactly when delta < 0."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    delta: int
    components: tuple[Component, ...]

    @property
    def hw(self) -> int:
        """Number of odd components of G - (A + B)."""
        return sum(c.odd for c in self.components)

    @property
    def is_barrier(self) -> bool:
        return self.delta < 0


@dataclass(frozen=True)
class ScanStats:
    """Bookkeeping from an enumeration: pairs evaluated, and how many of
    the evaluated deltas were odd (must be zero whenever k|Y| is even,
    which `parity_checked` records)."""

    evaluated: int
    odd_deltas: int
    parity_checked: bool


@dataclass(frozen=True)
class CriterionResult:
    exists: bool
    barrier: Barrier | None
    stats: ScanStats


@dataclass(frozen=True)
class ScanResult:
    """Outcome of the full deficiency scan as checked `Barrier` records:
    `biased` is the biased-optimal pair, whose delta is the exact
    minimum, and `first` the first barrier in base-3 order, None when no
    pair has delta < 0."""

    biased: Barrier
    first: Barrier | None
    stats: ScanStats


@dataclass(frozen=True)
class ClauseCheck:
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class StructureReport:
    """Structural facts that every biased barrier satisfies when k|Y| is
    even: (i) B lies inside Y; (ii) vertices of odd components send at
    most one edge to B; (iii) vertices of even components send none;
    (iv) every Z inside A-and-X with no B-neighbor has h(Z) >= 2|Z|."""

    i: ClauseCheck
    ii: ClauseCheck
    iii: ClauseCheck
    iv: ClauseCheck

    @property
    def ok(self) -> bool:
        return (self.i.passed and self.ii.passed
                and self.iii.passed and self.iv.passed)


def _global_adjacency(g: BipartiteGraph) -> list[int]:
    """Adjacency bitmasks over global ids (X then Y)."""
    nx = g.x_count
    adj = [0] * (nx + g.y_count)
    for x, nbrs in enumerate(g.neighbors):
        m = 0
        for y in nbrs:
            m |= 1 << (nx + y)
            adj[nx + y] |= 1 << x
        adj[x] = m
    return adj


def delta(g: BipartiteGraph, a: Iterable[int], b: Iterable[int],
          spec: DegreeSpec) -> Barrier:
    """Evaluate the deficiency of the disjoint pair (A, B), returning the
    populated record (delta value and component classification).  This
    is the one evaluator: the scan re-checks every pair it returns
    through it.  The components come from the union-find kernel of
    `hypergraph.components`, not from the scan's per-U fill, so the
    check does not share the walk's component algorithm."""
    nx = g.x_count
    n_total = nx + g.y_count
    a_mask = mask_of(a)
    b_mask = mask_of(b)
    if (a_mask | b_mask) >> n_total:
        raise ValueError(f"vertex id outside 0..{n_total - 1}")
    if a_mask & b_mask:
        raise ValueError("A and B overlap")
    adjg = _global_adjacency(g)
    k = spec.k
    x_all = (1 << nx) - 1
    y_all = ((1 << n_total) - 1) & ~x_all
    cut = a_mask | b_mask
    s = 2 * (a_mask & x_all).bit_count() + k * (a_mask & y_all).bit_count()
    s -= k * (b_mask & y_all).bit_count()
    bb = b_mask
    while bb:
        lb = bb & -bb
        bb ^= lb
        s += (adjg[lb.bit_length() - 1] & ~a_mask).bit_count()
    # G - (A + B) as a 2-uniform hypergraph on the global ids; the
    # vertices of A + B come back as singletons and are skipped.
    rest = Hypergraph(n_total, [(x, nx + y)
                                for x, nbrs in enumerate(g.neighbors)
                                if not cut >> x & 1
                                for y in nbrs if not cut >> (nx + y) & 1])
    comps: list[Component] = []
    for comp in components(rest):
        if cut >> comp[0] & 1:
            continue
        eb = sum((adjg[v] & b_mask).bit_count() for v in comp)
        # X-vertices have even upper target 2, so only Y counts here.
        odd = bool((k * sum(v >= nx for v in comp) + eb) & 1)
        comps.append(Component(comp, odd))
        s -= odd
    return Barrier(bit_tuple(a_mask), bit_tuple(b_mask), s, tuple(comps))


def classify_component(g: BipartiteGraph, a: Iterable[int], b: Iterable[int],
                       spec: DegreeSpec, d: Iterable[int]) -> str:
    """Parity class ("odd" or "even") of the component `d` of
    G - (A + B); rejects vertex sets that are not components."""
    rec = delta(g, a, b, spec)
    target = tuple(sorted(d))
    for comp in rec.components:
        if comp.vertices == target:
            return "odd" if comp.odd else "even"
    raise ValueError(f"{target} is not a component of G - (A + B)")


def deficiency_scan(g: BipartiteGraph, spec: DegreeSpec,
                    budget: int | None = None) -> ScanResult:
    """Exact minimum of the deficiency over all disjoint pairs, with the
    biased tie-break applied (min delta, then min |B|, then max |A|,
    then lexicographically least (B, A)), and the first barrier in
    base-3 counting order over assignment vectors (vertex 0 is the
    fastest digit; 0 = untouched, 1 = A, 2 = B).

    Only pairs with B inside Y are enumerated: dropping an X-vertex from
    B to the untouched set never raises the deficiency (its lower target
    is 0, and it joins at most as many components as it has edges
    outside A), so the minimum and every biased-optimal pair live in
    this family.  The same move lowers that vertex's digit from 2 to 0,
    so the first barrier lives there too.  The scan walks the untouched
    set U = V - (A + B); components of G - (A + B) depend only on U, so
    their parity data is computed once per U and each B inside V - U is
    then scored in O(1) per Gray-code step.  A pair's base-3 code is the
    code of C = V - U, where every vertex has digit at least 1, plus
    3^y for each y in B, so the first barrier is tracked in the same
    walk.  Hosts above the vertex budget b, or with more than
    2^ceil(b/2) * 3^floor(b/2) pairs, are refused before the walk.

    Both pairs are returned as `Barrier` records built by `delta`; a
    re-evaluated delta that differs from the walk's raises
    RuntimeError."""
    nx, ny = g.x_count, g.y_count
    n_total = nx + ny
    limit = _budget.DEFAULT_CRITERION_BUDGET if budget is None else budget
    _budget.check("criterion scan", n_total, limit)
    _budget.check_pairs("criterion scan", nx, ny, limit)
    k = spec.k
    adjg = _global_adjacency(g)
    all_mask = (1 << n_total) - 1
    y_all = ((1 << ny) - 1) << nx
    x_all = (1 << nx) - 1
    parity_checked = (k * ny) % 2 == 0
    evaluated = 0
    odd_deltas = 0
    best_d = best_nb = best_na = 0  # seeded below by the first pair
    best_state: tuple[int, int, list[int]] | None = None  # (c_mask, bi, ys)
    best_lex: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    pow3 = [3 ** v for v in range(n_total + 1)]
    first_code = pow3[n_total]  # above every assignment code
    first_d = 0
    first_state: tuple[int, int, list[int]] | None = None

    def lex_of(c_mask: int, bi: int, ys: list[int]
               ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        b_ids = tuple(ys[j] for j in bit_tuple(bi))
        b_mask = mask_of(b_ids)
        return b_ids, bit_tuple(c_mask ^ b_mask)

    for u_mask in range(1 << n_total):
        c_mask = all_mask ^ u_mask
        # The binary digits of C read in base 3 give sum of 3^v over C.
        c_code = int(f"{c_mask:b}", 3)
        cy_mask = c_mask & y_all
        ys: list[int] = []
        t = cy_mask
        while t:
            lb = t & -t
            t ^= lb
            ys.append(lb.bit_length() - 1)
        tcount = len(ys)
        # Degree of y in G - A is |N(y) & U| for every split of C, since
        # B holds no X-vertices; fold the -2k B-membership cost in now.
        wts = [(adjg[y] & u_mask).bit_count() - 2 * k for y in ys]
        pows = [pow3[y] for y in ys]
        # Components of G[U]: parity seed, plus for each candidate
        # B-vertex a flag saying whether it sends an odd number of edges
        # into the component (only the parity of e(D, B) matters).
        # odd0 holds the components odd at B = empty; affect[j] is the
        # set of components whose parity flips when ys[j] toggles.
        odd0 = 0
        affect = [0] * tcount
        ncomp = 0
        rem = u_mask
        while rem:
            low = rem & -rem
            comp = low
            frontier = low
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    lb = f & -f
                    f ^= lb
                    nxt |= adjg[lb.bit_length() - 1]
                frontier = nxt & u_mask & ~comp
                comp |= frontier
            rem &= ~comp
            if (k * (comp & y_all).bit_count()) & 1:
                odd0 |= 1 << ncomp
            for j in range(tcount):
                if (adjg[ys[j]] & comp).bit_count() & 1:
                    affect[j] |= 1 << ncomp
            ncomp += 1
        const = 2 * (c_mask & x_all).bit_count() + k * tcount
        c_size = c_mask.bit_count()
        evaluated += 1 << tcount
        # Gray-code walk over B subsets: one vertex toggles per step, so
        # the weight sum, |B|, the code and the odd-component set update
        # in O(1).
        cur = 0
        sw = 0
        nb = 0
        code = c_code
        odd_mask = odd0
        step = 0
        last = 1 << tcount
        while True:
            dlt = const + sw - odd_mask.bit_count()
            odd_deltas += dlt & 1
            if dlt < 0 and code < first_code:
                first_code, first_d = code, dlt
                first_state = (c_mask, cur, ys)
            na = c_size - nb
            if (best_state is None or dlt < best_d
                    or (dlt == best_d
                        and (nb < best_nb
                             or (nb == best_nb and na > best_na)))):
                best_d, best_nb, best_na = dlt, nb, na
                best_state = (c_mask, cur, ys)
                best_lex = None
            elif dlt == best_d and nb == best_nb and na == best_na:
                if best_lex is None:
                    best_lex = lex_of(*best_state)
                cand = lex_of(c_mask, cur, ys)
                if cand < best_lex:
                    best_state = (c_mask, cur, ys)
                    best_lex = cand
            step += 1
            if step == last:
                break
            j = (step & -step).bit_length() - 1
            bit = 1 << j
            cur ^= bit
            if cur & bit:
                sw += wts[j]
                nb += 1
                code += pows[j]
            else:
                sw -= wts[j]
                nb -= 1
                code -= pows[j]
            odd_mask ^= affect[j]
    if best_state is None:  # the (empty, empty) pair is always scanned
        raise RuntimeError("deficiency scan evaluated no pair")

    def checked(state: tuple[int, int, list[int]], want: int) -> Barrier:
        # Re-evaluate the chosen pair through `delta` and require the
        # delta the walk found for it.
        b_ids, a_ids = lex_of(*state)
        rec = delta(g, a_ids, b_ids, spec)
        if rec.delta != want:
            raise RuntimeError(f"pair A={a_ids} B={b_ids} re-evaluates to "
                               f"delta {rec.delta}, scan found {want}")
        return rec

    first = None if first_state is None else checked(first_state, first_d)
    return ScanResult(checked(best_state, best_d), first,
                      ScanStats(evaluated, odd_deltas, parity_checked))


def decide_by_criterion(g: BipartiteGraph, spec: DegreeSpec,
                        budget: int | None = None) -> CriterionResult:
    """Decide factor existence: `exists` iff the deficiency is
    non-negative on every disjoint pair.  When barriers exist, the one
    returned is the first in base-3 counting order over assignment
    vectors (vertex 0 is the fastest digit; 0 = untouched, 1 = A,
    2 = B): the scan's checked `first` record.  `stats` are the scan's."""
    scan = deficiency_scan(g, spec, budget)
    return CriterionResult(scan.first is None, scan.first, scan.stats)


def find_biased_barrier(g: BipartiteGraph, spec: DegreeSpec,
                        budget: int | None = None) -> Barrier:
    """The unique biased barrier, the scan's checked `biased` record;
    raises FactorExistsError when the graph has a (2,k)-factor (no
    barrier exists)."""
    scan = deficiency_scan(g, spec, budget)
    if scan.biased.delta >= 0:
        raise FactorExistsError("graph has a (2,k)-factor")
    return scan.biased


def h_of_z(g: BipartiteGraph, barrier: Barrier, z: Iterable[int]) -> int:
    """For Z inside A-and-X of the given barrier: the number of
    B-vertices adjacent to Z plus the number of odd components Z sends
    an edge into."""
    nx = g.x_count
    zs = set(z)
    a_x = {v for v in barrier.a if v < nx}
    if not zs <= a_x:
        raise ValueError("Z must be a subset of A intersected with X")
    adjg = _global_adjacency(g)
    nz = 0
    for x in zs:
        nz |= adjg[x]
    b_mask = mask_of(barrier.b)
    count = (nz & b_mask).bit_count()
    for comp in barrier.components:
        if comp.odd and (mask_of(comp.vertices) & nz):
            count += 1
    return count


def check_barrier_structure(g: BipartiteGraph, biased: Barrier,
                            spec: DegreeSpec) -> StructureReport:
    """Check the four structural clauses a biased barrier must satisfy.
    Requires k|Y| even (clause (iv) fails otherwise in general); odd
    products are rejected.  Clause (iv) walks every nonempty Z of the
    eligible vertices (those of A-and-X with no B-neighbor) up to the
    first failure, and refuses more than 20 of them (the vertex budget)."""
    if (spec.k * g.y_count) % 2 != 0:
        raise ValueError("structure checks require k * |Y| to be even")
    nx = g.x_count
    adjg = _global_adjacency(g)
    b_mask = mask_of(biased.b)

    bad = [v for v in biased.b if v < nx]
    clause_i = (ClauseCheck(True) if not bad
                else ClauseCheck(False, f"B contains X-vertex {bad[0]}"))

    clause_ii = ClauseCheck(True)
    clause_iii = ClauseCheck(True)
    for comp in biased.components:
        for v in comp.vertices:
            eb = (adjg[v] & b_mask).bit_count()
            if comp.odd and eb > 1 and clause_ii.passed:
                clause_ii = ClauseCheck(
                    False, f"vertex {v} of an odd component sends {eb} edges to B")
            if not comp.odd and eb > 0 and clause_iii.passed:
                clause_iii = ClauseCheck(
                    False, f"vertex {v} of an even component sends {eb} edges to B")

    a_x = [v for v in biased.a if v < nx]
    eligible = [x for x in a_x if not (adjg[x] & b_mask)]
    _budget.check("structure clause iv", len(eligible),
                  _budget.DEFAULT_VERTEX_BUDGET)
    odd_masks = [mask_of(c.vertices) for c in biased.components if c.odd]
    clause_iv = ClauseCheck(True)
    for m in range(1, 1 << len(eligible)):
        zs = tuple(eligible[j] for j in bit_tuple(m))
        nz = 0
        for x in zs:
            nz |= adjg[x]
        hz = sum(1 for om in odd_masks if om & nz)
        if hz < 2 * len(zs):
            clause_iv = ClauseCheck(False, f"Z = {zs} has h(Z) = {hz} < {2 * len(zs)}")
            break
    return StructureReport(clause_i, clause_ii, clause_iii, clause_iv)
