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
from ._bits import bit_tuple, bits, mask_of
from .hypergraph import _component_groups
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
    which `parity_checked` records).  Both count every pair the scan
    covers, 2^|X| * 3^|Y| with B inside Y, including the pairs of the
    U-sets whose Gray-code walk the scan's lower bound skips; `walked`
    counts only the pairs that walk actually scored."""

    evaluated: int
    odd_deltas: int
    parity_checked: bool
    walked: int


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
    through it.  The components come from the union-find kernel behind
    `hypergraph.components`, not from the scan's carried per-U
    components, so the check does not share the walk's component
    algorithm."""
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
    # G - (A + B): one 2-edge mask per incidence on the global ids, with
    # A + B deleted by the kernel.
    edge_masks = [1 << x | 1 << (nx + y)
                  for x, nbrs in enumerate(g.neighbors) for y in nbrs]
    comps: list[Component] = []
    for comp in _component_groups(n_total, edge_masks, cut):
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
    so the first barrier lives there too.

    The scan walks the untouched set U = V - (A + B) depth first, adding
    one vertex above U's highest at a time, so each U is reached once
    and its state is updated from its parent's, not rebuilt: the
    components of G[U], each with its parity row (its parity at B empty,
    and the B-candidates y in C & Y of C = V - U that send it an odd
    number of edges; rows merge by XOR), the code of C and the constant
    part of delta.  Components of G - (A + B) depend only on U, so each
    B inside C & Y is then scored in O(1) per Gray-code step.  A pair's
    base-3 code is the code of C, where every vertex has digit at least
    1, plus 3^y for each y in B, so the first barrier is tracked in the
    same walk.

    Before that walk, a lower bound on every delta of the U (the
    constant part, less every component some pair of the U can make
    odd, plus every negative B-candidate weight) is compared with the
    best pair so far: a U whose bound is above the best delta (ties are
    always walked), and that can hold no earlier barrier (bound >= 0, or
    C's code, the least of the U, above the first barrier's), is not
    walked.  Its pairs are still counted: all 2^|C & Y| in `evaluated`,
    and the odd ones in `odd_deltas` by linearity over GF(2), from the
    same per-U data the walk reads, so the counts equal the walk's.
    Hosts above the vertex budget b, or with more than
    2^ceil(b/2) * 3^floor(b/2) pairs, are refused before any scan state
    is built.

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
    parity_checked = (k * ny) % 2 == 0
    evaluated = 0
    odd_deltas = 0
    walked = 0
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

    # One stack entry per U: (u_mask, comps, reach, neg, xpar, dodd,
    # c_code, const).  comps lists G[U]'s components as (mask, row)
    # pairs, where row has bit y for each B-candidate y in C & Y with
    # |N(y) & D| odd, and bit `flag` when D is odd at B = empty (its
    # k|D & Y| is odd).  A pair's delta is const + (sum over B of
    # |N(y) & U| - 2k: its degree in G - A, since B holds no X-vertices,
    # with the -2k B-membership cost folded in) - (odd components), with
    # const = 2|C & X| + k|C & Y| and D odd when its flag bit and its
    # bits on B have odd parity.  reach counts the components with a
    # nonzero row (the ones some pair of the U makes odd), neg is the sum
    # of the negative weights, xpar the XOR of all rows, and dodd has bit
    # y when |N(y) & U| is odd.
    flag = 1 << n_total
    k_flag = flag if k & 1 else 0
    two_k = 2 * k
    stack = [(0, [], 0, -two_k * ny, 0, 0, (pow3[n_total] - 1) // 2,
              2 * nx + k * ny)]
    while stack:
        (u_mask, comps, reach, neg, xpar, dodd, c_code,
         const) = stack.pop()
        cy = y_all & ~u_mask
        tcount = cy.bit_count()
        evaluated += 1 << tcount
        # No delta of this U is below lb.
        lb = const - reach + neg
        if (best_state is not None and lb > best_d
                and (lb >= 0 or c_code > first_code)):
            # No pair of this U can beat or tie the best pair, nor be an
            # earlier barrier, so its walk is skipped.  Over GF(2) a
            # pair's delta is const + (flag bits) plus, for each y in B,
            # its weight plus the number of rows holding y; the walk
            # would count half of the pairs odd when some such term is
            # odd, and otherwise all or none of them.
            if (dodd ^ xpar) & cy:
                odd_deltas += 1 << tcount >> 1
            elif (const + (xpar >> n_total)) & 1:
                odd_deltas += 1 << tcount
        else:
            walked += 1 << tcount
            c_mask = all_mask ^ u_mask
            c_size = c_mask.bit_count()
            # The B-candidates in increasing order, with weights and
            # powers of 3.  odd0 holds the components odd at B = empty,
            # and affect[j] those whose parity flips when ys[j] toggles,
            # each component as the bit of its lowest vertex.
            ys = list(bits(cy))
            wts = [(adjg[y] & u_mask).bit_count() - two_k for y in ys]
            pows = [pow3[y] for y in ys]
            odd0 = 0
            affect = [0] * tcount
            for m, row in comps:
                rep = m & -m
                if row & flag:
                    odd0 |= rep
                for j in range(tcount):
                    if row >> ys[j] & 1:
                        affect[j] |= rep
            # Gray-code walk over B subsets: one vertex toggles per
            # step, so the weight sum, |B|, the code and the
            # odd-component set update in O(1).
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
        # Children: U + v for every v above U's highest vertex, pushed
        # highest first, so that the lowest is popped first.  On the
        # `criterion` benchmark's hosts this order leaves 17% of the
        # pairs to the walk, the reverse order 36%.
        for v in range(n_total - 1, u_mask.bit_length() - 1, -1):
            vb = 1 << v
            av = adjg[v]
            if v >= nx:
                # A Y-vertex leaves the B-candidates (its weight leaves
                # neg) and adds k to its component's target.
                own = k_flag
                w = (av & u_mask).bit_count() - two_k
                nneg = neg - w if w < 0 else neg
                nconst = const - k
                ndodd = dodd
            else:
                # An X-vertex adds 1 to the weight of each neighbour.
                own = av & ~u_mask
                nneg = neg
                for y in bits(own):
                    if (adjg[y] & u_mask).bit_count() < two_k:
                        nneg += 1
                nconst = const - 2
                ndodd = dodd ^ av
            # v joins the components it meets; their rows and its own
            # merge by XOR, and v leaves the row as it leaves C.
            merged = vb
            row = own
            nreach = reach
            ncomps = []
            for comp in comps:
                m, r = comp
                if m & av:
                    merged |= m
                    row ^= r
                    if r:
                        nreach -= 1
                else:
                    ncomps.append(comp)
            # xpar loses the merged rows (row ^ own before the mask) and
            # gains the new one.
            gone = row ^ own
            row &= ~vb
            if row:
                nreach += 1
            ncomps.append((merged, row))
            stack.append((u_mask | vb, ncomps, nreach, nneg,
                          xpar ^ gone ^ row, ndodd, c_code - pow3[v],
                          nconst))
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
                      ScanStats(evaluated, odd_deltas, parity_checked, walked))


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
