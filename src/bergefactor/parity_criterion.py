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


@dataclass(frozen=True)
class ScanStats:
    """Bookkeeping from a scan: `evaluated` is the size of the pair
    family it covers, 2^|X| * 3^|Y| with B inside Y, and `odd_deltas`
    how many of those pairs have an odd delta (must be zero whenever
    k|Y| is even).  `walked` counts the pairs the scan's Gray-code walk
    scored, and `u_sets` the untouched sets U whose state the scan used,
    not those of the subtrees it dropped.  Both depend on what the
    caller asked for: a scan without the biased pair skips and drops
    more.  The pairs not walked count in `odd_deltas` by the parity
    lemma (every delta has the parity of k|Y|), so the lemma is checked
    on walked pairs only, and independently by
    `test_scan_even_parity_exhaustive`."""

    evaluated: int
    odd_deltas: int
    walked: int
    u_sets: int


@dataclass(frozen=True)
class CriterionResult:
    exists: bool
    barrier: Barrier | None
    stats: ScanStats


@dataclass(frozen=True)
class ScanResult:
    """Outcome of the full deficiency scan as checked `Barrier` records:
    `biased` is the biased-optimal pair, whose delta is the exact
    minimum, None when the scan was not asked for it, and `first` the
    first barrier in base-3 order, None when no pair has delta < 0."""

    biased: Barrier | None
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
    a, b = tuple(a), tuple(b)
    if not all(0 <= v < n_total for v in a + b):
        raise ValueError(f"vertex id outside 0..{n_total - 1}")
    a_mask = mask_of(a)
    b_mask = mask_of(b)
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


def deficiency_scan(g: BipartiteGraph, spec: DegreeSpec,
                    budget: int | None = None, *,
                    biased: bool = True) -> ScanResult:
    """Exact minimum of the deficiency over all disjoint pairs, with the
    biased tie-break applied (min delta, then min |B|, then max |A|,
    then lexicographically least (B, A)), and the first barrier in
    base-3 counting order over assignment vectors (vertex 0 is the
    fastest digit; 0 = untouched, 1 = A, 2 = B).  With biased=False
    only the first barrier is sought, and `ScanResult.biased` is None.

    Only pairs with B inside Y are enumerated: dropping an X-vertex from
    B to the untouched set never raises the deficiency (its lower target
    is 0, and it joins at most as many components as it has edges
    outside A), so the minimum and every biased-optimal pair live in
    this family.  The same move lowers that vertex's digit from 2 to 0,
    so the first barrier lives there too.

    The scan walks the untouched set U = V - (A + B) depth first, adding
    one vertex below U's lowest at a time, highest first, so each U is
    reached once, the most significant base-3 digits are settled first,
    and each U's state is updated from its parent's, not rebuilt: the
    components of G[U], each with its parity row (its parity at B empty,
    and the B-candidates y in C & Y of C = V - U that send it an odd
    number of edges; rows merge by XOR), the code of C and the constant
    part of delta.  Components of G - (A + B) depend only on U, so each
    B inside C & Y is then scored in O(1) per Gray-code step.  A pair's
    base-3 code is the code of C, where every vertex has digit at least
    1, plus 3^y for each y in B, so the first barrier is tracked in the
    same walk.

    One rule decides what is walked.  A set of pairs can matter only
    if one of them can beat or tie the best pair so far (ties are
    always walked), or be a barrier earlier than the first one found.
    A barrier's delta is at most -1, or -2 when k|Y| is even, since
    every delta has the parity of k|Y| (the parity lemma).  With
    biased=False the best delta starts below every bound, so only the
    second half counts.  Each set is judged by a lower bound on its
    deltas and the least code it holds.  For one U the bound lb is the
    constant part, less every component some pair of the U can make
    odd, plus every negative B-candidate weight, and the least code is
    C's.  A U that cannot matter is not walked.  Its subtree, the U
    and its descendants, moves vertices below U's lowest vertex t
    (t = n for U empty) from C into U.  An X-vertex moved lowers the
    constant part by 2, makes at most one more odd component and lowers
    no weight, and a component of G[U] that no pair of the U makes odd
    stays even in every descendant unless it merges with a moved
    vertex.  When t > |X|, U holds no X-vertex and no moved Y-vertex
    lowers the bound.  So no delta of the subtree is below
    lb - 3 min(t, |X|), and no code below C's code less (3^t - 1)/2.
    A subtree that cannot matter is dropped: its root is not pushed,
    or, if the best delta or the first barrier's code has fallen since
    it was pushed, it is dropped when popped.

    `ScanStats.evaluated` is the family's size, 2^|X| * 3^|Y|.  The
    pairs not walked count in `odd_deltas` by the parity lemma (every
    delta has the parity of k|Y|); the lemma is checked on the walked
    pairs, whose deltas are counted one by one, and independently by an
    exhaustive test.
    `ScanStats.u_sets` counts the U-sets not dropped.  Hosts above the
    vertex budget b, or with more than 2^ceil(b/2) * 3^floor(b/2)
    pairs, are refused before any scan state is built.

    The pairs found are returned as `Barrier` records built by `delta`;
    a re-evaluated delta that differs from the walk's raises
    RuntimeError."""
    nx, ny = g.x_count, g.y_count
    n_total = nx + ny
    limit = _budget.DEFAULT_CRITERION_BUDGET if budget is None else budget
    _budget.check("criterion scan", n_total, limit)
    _budget.check_pairs("criterion scan", nx, ny, limit)
    k = spec.k
    adjg = _global_adjacency(g)
    all_mask = (1 << n_total) - 1
    x_all = (1 << nx) - 1
    y_all = ((1 << ny) - 1) << nx
    odd_deltas = 0
    walked = 0
    u_sets = 0
    # Each selection is kept as the masks of C = A + B and of B.  The
    # biased one starts at the walk's first pair, A = V and B empty, and
    # best_rank is its (delta, |B|, -|A|), best_d its delta.  Without
    # it, best_d starts below every delta and every bound (each is at
    # least -2k|Y| - |V| - 3|X|), so no pair is ranked and the skip and
    # drop tests keep only their first-barrier halves.
    best_d = 2 * nx + k * ny if biased else -2 * k * ny - n_total - 3 * nx - 1
    best_rank = (best_d, 0, -n_total)
    best_c, best_b = all_mask, 0
    pow3 = [3 ** v for v in range(n_total + 1)]
    # The descendants of a U whose lowest vertex is t (n for U empty)
    # move vertices below t from C to U: half[t] = (3^t - 1)/2 is the
    # most that lowers a code.
    half = [(p - 1) // 2 for p in pow3]
    # dip[t] = 3|X below t| is the most those moves lower a delta bound.
    dip = [3 * min(t, nx) for t in range(n_total + 1)]
    first_code = pow3[n_total]  # above every assignment code
    first_d = 0  # stays 0 while no barrier is found
    first_c = first_b = 0
    top = -1 if k * ny & 1 else -2  # the largest delta of a barrier

    # One stack entry per U: (u_mask, low, comps, reach, neg, c_code,
    # const), low being U's lowest vertex (n for U empty).  comps lists
    # G[U]'s components as (mask, row) pairs, where row has bit y for
    # each B-candidate y in C & Y with |N(y) & D| odd, and bit `flag`
    # when D is odd at B = empty (its k|D & Y| is odd).
    # A pair's delta is const + (sum over B of |N(y) & U| - 2k: its
    # degree in G - A, since B holds no X-vertices, with the -2k
    # B-membership cost folded in) - (odd components), with
    # const = 2|C & X| + k|C & Y| and D odd when its flag bit and its
    # bits on B have odd parity.  reach counts the components with a
    # nonzero row (the ones some pair of the U makes odd), and neg is
    # the sum of the negative weights.  under[U & X] holds the Y-vertices
    # with fewer than 2k neighbours in U, whose weight is negative while
    # they are B-candidates; it is filled as the walk meets each U & X.
    flag = 1 << n_total
    k_flag = flag if k & 1 else 0
    two_k = 2 * k
    under: dict[int, int] = {}
    stack = [(0, n_total, [], 0, -two_k * ny, half[n_total],
              2 * nx + k * ny)]
    while stack:
        u_mask, low, comps, reach, neg, c_code, const = stack.pop()
        cy = y_all & ~u_mask
        # No delta of this U is below lb, and none of its subtree below
        # sb.  The U was pushed past the same drop test, but best_d and
        # first_code may have fallen since.
        lb = const - reach + neg
        sb = lb - dip[low]
        if sb > best_d and (sb > top or c_code - half[low] > first_code):
            continue
        u_sets += 1
        tcount = cy.bit_count()
        # Walk the U unless no pair of it can beat or tie the best pair,
        # or be an earlier barrier.
        if lb <= best_d or (lb <= top and c_code <= first_code):
            walked += 1 << tcount
            c_mask = all_mask ^ u_mask
            # The B-candidates in increasing order, with their bits,
            # weights and powers of 3.  odd0 holds the components odd at
            # B = empty, and affect[j] those whose parity flips when ys[j]
            # toggles, each component as the bit of its lowest vertex.
            ys = list(bits(cy))
            ybits = [1 << y for y in ys]
            wts = [(adjg[y] & u_mask).bit_count() - two_k for y in ys]
            pows = [pow3[y] for y in ys]
            odd0 = 0
            affect = [0] * tcount
            for m, row in comps:
                rep = m & -m
                if row & flag:
                    odd0 |= rep
                for j in range(tcount):
                    if row & ybits[j]:
                        affect[j] |= rep
            # Gray-code walk over B subsets (cur is B's mask): one vertex
            # toggles per step, so the weight sum, the code and the
            # odd-component set update in O(1).
            cur = 0
            sw = 0
            code = c_code
            odd_mask = odd0
            step = 0
            last = 1 << tcount
            while True:
                dlt = const + sw - odd_mask.bit_count()
                odd_deltas += dlt & 1
                if dlt < 0 and code < first_code:
                    first_code, first_d = code, dlt
                    first_c, first_b = c_mask, cur
                if dlt <= best_d:
                    nb = cur.bit_count()
                    rank = (dlt, nb, nb - c_mask.bit_count())
                    if rank < best_rank or (
                            rank == best_rank
                            and (bit_tuple(cur), bit_tuple(c_mask ^ cur))
                            < (bit_tuple(best_b), bit_tuple(best_c ^ best_b))):
                        best_d, best_rank = dlt, rank
                        best_c, best_b = c_mask, cur
                step += 1
                if step == last:
                    break
                j = (step & -step).bit_length() - 1
                bit = ybits[j]
                cur ^= bit
                if cur & bit:
                    sw += wts[j]
                    code += pows[j]
                else:
                    sw -= wts[j]
                    code -= pows[j]
                odd_mask ^= affect[j]
        # Children: U + v for every v below U's lowest vertex, pushed
        # lowest first, so that the highest is popped first.  On 400 of
        # the `criterion` benchmark's hosts this order leaves 14% of the
        # pairs to the biased walk and 0.9% to the first-barrier walk,
        # which uses 16% of the U-sets; the reverse order leaves 18%
        # and 7.3%, and the first-barrier walk uses 40%.
        for v in range(low):
            vb = 1 << v
            ncode = c_code - pow3[v]
            nconst = const - (k if v >= nx else 2)
            # The child's bound below is at least this one, since moving
            # v never lowers neg and makes at most one more component
            # reachable: when this one drops the child, no merge is made.
            sb = nconst + neg - reach - 1 - dip[v]
            if sb > best_d and (sb > top or ncode - half[v] > first_code):
                continue
            av = adjg[v]
            if v >= nx:
                # A Y-vertex leaves the B-candidates (its weight leaves
                # neg) and adds k to its component's target.
                own = k_flag
                w = (av & u_mask).bit_count() - two_k
                nneg = neg - w if w < 0 else neg
            else:
                # An X-vertex adds 1 to the weight of each neighbour, which
                # lifts neg by one for each B-candidate neighbour whose
                # weight was negative.
                own = av & ~u_mask
                ux = u_mask & x_all
                neg_y = under.get(ux)
                if neg_y is None:
                    neg_y = under[ux] = mask_of(
                        y for y in range(nx, n_total)
                        if (adjg[y] & ux).bit_count() < two_k)
                nneg = neg + (own & neg_y).bit_count()
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
            row &= ~vb
            if row:
                nreach += 1
            sb = nconst + nneg - nreach - dip[v]
            if sb > best_d and (sb > top or ncode - half[v] > first_code):
                # No pair of the child's subtree can beat or tie the
                # best pair, or be an earlier barrier: it is not pushed.
                continue
            ncomps.append((merged, row))
            stack.append((u_mask | vb, v, ncomps, nreach, nneg, ncode,
                          nconst))
    evaluated = 2 ** nx * 3 ** ny  # the pair family, B inside Y
    if k * ny & 1:  # the skipped pairs, by the parity lemma
        odd_deltas += evaluated - walked

    def checked(c_mask: int, b_mask: int, want: int) -> Barrier:
        # Re-evaluate the chosen pair through `delta` and require the
        # delta the walk found for it.
        a_ids, b_ids = bit_tuple(c_mask ^ b_mask), bit_tuple(b_mask)
        rec = delta(g, a_ids, b_ids, spec)
        if rec.delta != want:
            raise RuntimeError(f"pair A={a_ids} B={b_ids} re-evaluates to "
                               f"delta {rec.delta}, scan found {want}")
        return rec

    first = checked(first_c, first_b, first_d) if first_d < 0 else None
    return ScanResult(checked(best_c, best_b, best_d) if biased else None,
                      first, ScanStats(evaluated, odd_deltas, walked, u_sets))


def decide_by_criterion(g: BipartiteGraph, spec: DegreeSpec,
                        budget: int | None = None) -> CriterionResult:
    """Decide factor existence: `exists` iff the deficiency is
    non-negative on every disjoint pair.  When barriers exist, the one
    returned is the first in base-3 counting order over assignment
    vectors (vertex 0 is the fastest digit; 0 = untouched, 1 = A,
    2 = B): the checked `first` record of a scan that does not seek the
    biased pair, and so drops every U-subtree that can hold no earlier
    barrier, including every one whose delta bound is above the largest
    delta of a barrier: -1, or -2 when k|Y| is even.  `stats`
    are that scan's: `walked` and `u_sets` are at most a biased scan's,
    the other two the same."""
    scan = deficiency_scan(g, spec, budget, biased=False)
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
        # h(Z) counts the B-vertices adjacent to Z plus the odd components
        # Z sends an edge into.  Eligible Z have no B-neighbour, so it is
        # the odd-component count alone.
        nz = 0
        for x in zs:
            nz |= adjg[x]
        hz = sum(1 for om in odd_masks if om & nz)
        if hz < 2 * len(zs):
            clause_iv = ClauseCheck(False, f"Z = {zs} has h(Z) = {hz} < {2 * len(zs)}")
            break
    return StructureReport(clause_i, clause_ii, clause_iii, clause_iv)
