"""Hypergraph model: components, strong deletion, exact toughness,
completeness, and Berge-factor certificate verification.

Vertices are the integers 0..n-1.  Edges form an *indexed multiset*: the
same vertex set may occur at several positions, and the position is the
edge's identity (Berge certificates reference edges by index).  Deleting
a vertex set S strongly removes every edge that meets S, so toughness
here is min |S| / c(H - S) over cutsets S that leave at least two
components, computed exactly as a ratio of integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import budget as _budget
from ._bits import bit_tuple, mask_of


class Hypergraph:
    """n vertices plus an ordered multiset of nonempty hyperedges.
    The constructor checks and sorts its input; `_canonical` trusts a
    caller that has done so (the parser, `hypergraph_of`)."""

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        for pos, edge in enumerate(edges):
            vs = tuple(sorted(edge))
            if not vs:
                raise ValueError(f"edge {pos} is empty")
            if len(set(vs)) != len(vs):
                raise ValueError(f"edge {pos} repeats a vertex: {vs}")
            if vs[0] < 0 or vs[-1] >= n:
                raise ValueError(
                    f"edge {pos} references a vertex outside 0..{n - 1}: {vs}")
            canon.append(vs)
        self.n = n
        self.edges: tuple[tuple[int, ...], ...] = tuple(canon)

    @classmethod
    def _canonical(cls, n: int, edges: tuple[tuple[int, ...], ...]
                   ) -> "Hypergraph":
        """Wrap `edges` unchecked.  The caller guarantees what `__init__`
        would establish: n >= 0, and `edges` a tuple of nonempty, strictly
        ascending int tuples with every vertex in 0..n-1."""
        h = cls.__new__(cls)
        h.n, h.edges = n, edges
        return h

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(e) for e in self.edges)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Hypergraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph({self.n}, {[list(e) for e in self.edges]})"


@dataclass(frozen=True)
class ToughnessValue:
    """Exact toughness: a rational plus the cutset achieving it, or
    infinite (value None) when no deletion disconnects the structure.
    The witness is the smallest, then lexicographically least,
    minimizing cutset."""

    value: Fraction | None
    witness: tuple[int, ...] | None

    @property
    def infinite(self) -> bool:
        return self.value is None

    def satisfies(self, bound: int | Fraction) -> bool:
        """True when the structure is `bound`-tough."""
        return self.value is None or self.value >= bound

    def __str__(self) -> str:
        if self.value is None:
            return "infinite"
        return f"{self.value.numerator}/{self.value.denominator}"


@dataclass(frozen=True)
class StrongDeletion:
    """Survivors of a strong deletion, with old->new index maps."""

    hypergraph: Hypergraph
    vertex_map: dict[int, int]
    edge_map: dict[int, int]


@dataclass(frozen=True)
class BergeFactorCertificate:
    """Claim that a spanning k-regular multigraph embeds in the
    hypergraph: each pair (hyperedge index, (u, v)) places one multigraph
    edge inside the named hyperedge.  Distinct pairs must name distinct
    hyperedges; the pair multiset may repeat {u, v}."""

    k: int
    pairs: tuple[tuple[int, tuple[int, int]], ...]

    @classmethod
    def make(cls, k: int, pairs: Iterable[tuple[int, Iterable[int]]]
             ) -> "BergeFactorCertificate":
        canon = []
        for e, uv in pairs:
            u, v = sorted(uv)
            canon.append((int(e), (int(u), int(v))))
        return cls(k, tuple(sorted(canon)))


@dataclass(frozen=True)
class Verdict:
    """Accept, or reject naming the first violated requirement."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def components(h: Hypergraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest
    member.  Vertices are connected when a chain of pairwise
    intersecting edges joins them; edgeless vertices are singletons."""
    return _component_groups(h.n, h.edge_masks, 0)


def _component_groups(n: int, edge_masks: Sequence[int],
                      s_mask: int) -> list[tuple[int, ...]]:
    """Components of H - S on the vertices 0..n-1 given by their edge
    masks, as `components` orders them; the vertices of S are left
    out, and the edges meeting S with them.  One union-find pass merges
    the vertices of every edge that misses S; edgeless survivors stay
    singletons."""
    parent = list(range(n))
    for em in edge_masks:
        if em & s_mask:
            continue
        low = em & -em
        a = _find(parent, low.bit_length() - 1)
        m = em ^ low
        while m:
            low = m & -m
            m ^= low
            b = _find(parent, low.bit_length() - 1)
            if b != a:
                parent[b] = a
    groups: dict[int, list[int]] = {}
    for v in range(n):
        if not s_mask >> v & 1:
            groups.setdefault(_find(parent, v), []).append(v)
    return [tuple(g) for g in groups.values()]


def strong_delete(h: Hypergraph, s: Iterable[int]) -> StrongDeletion:
    """Remove the vertices in `s` together with every edge meeting `s`.

    Surviving vertices and edges are reindexed contiguously; the result
    records both old->new maps."""
    s_set = set(s)
    for v in s_set:
        if not 0 <= v < h.n:
            raise ValueError(f"vertex {v} outside 0..{h.n - 1}")
    keep = [v for v in range(h.n) if v not in s_set]
    vmap = {v: i for i, v in enumerate(keep)}
    emap: dict[int, int] = {}
    new_edges = []
    for idx, edge in enumerate(h.edges):
        if any(v in s_set for v in edge):
            continue
        emap[idx] = len(new_edges)
        new_edges.append([vmap[v] for v in edge])
    return StrongDeletion(Hypergraph(len(keep), new_edges), vmap, emap)


def toughness(h: Hypergraph, budget: int | None = None) -> ToughnessValue:
    """Exact toughness by a branch and bound over the vertices, run once
    per cutset size in increasing order.

    Returns the minimum |S| / c(H - S) over all S with c(H - S) >= 2, as a
    Fraction, together with the smallest and then lexicographically least
    minimizing S.  Returns the infinite value when no such S exists,
    which `is_complete` decides before any search.

    Level s holds the cutsets of size s.  H - S has at most n - s
    components, so no cutset of size s or more falls below the best ratio
    found so far once s / (n - s) reaches it, and the search stops there;
    a later level could only tie, and a tie never displaces a smaller
    witness.  Within a level, a cutset of size s can improve or tie the
    best ratio bn / bd only with at least need = max(2, ceil(s·bd / bn))
    components (2 while there is no best).  `_search_level` decides the
    vertices one at a time, in descending order of degree over the
    edges of size 2 or more (ties by id): each joins S or survives, and
    a survivor adds the edges that miss S and end at it in that order,
    merging the components they touch.  An undecided vertex is attached
    when an edge of size 2 or more ends at it and every other vertex of
    that edge survives: if it survives too, that edge merges it into a
    component it meets, so it adds no component.  Of the vertices still
    undecided, free will join S; attached or not, a vertex adds at most
    one component by surviving and none by joining, so no completion
    has more than comps + rest - max(free, attached) components, with
    comps the components so far and rest the undecided vertices.  A
    partial cutset, reached by joining or by surviving, whose bound
    falls below need is dropped with its whole subtree: no dropped
    cutset could improve or tie, and no value or witness changes; at
    s = bn, need is bd, so every tie still reaches the witness
    comparison, which is made in the original labels.  Each plan entry
    holds a vertex's bit, the edges it adds when it survives (those it
    ends), and the edges whose second-to-last vertex it is: when it
    survives, each of those that misses S attaches its last vertex.
    Instances above the enumeration budget (the `budget` argument,
    default 20 vertices) are refused, never truncated."""
    if h.n < 1:
        raise ValueError("toughness needs at least one vertex")
    limit = _budget.DEFAULT_VERTEX_BUDGET if budget is None else budget
    _budget.check("toughness", h.n, limit)
    if is_complete(h):
        return ToughnessValue(None, None)
    n = h.n
    degree = [0] * n
    for e in h.edges:
        if len(e) > 1:
            for v in e:
                degree[v] += 1
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # Each edge of size 2 or more is added by its last vertex in the
    # order, and attaches it from its second-to-last vertex; the attach
    # bit is the last vertex's place counted from the one after that.
    ends: list[set[int]] = [set() for _ in range(n)]
    attaches: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    for e, em in zip(h.edges, h.edge_masks):
        if len(e) > 1:
            prev, last = sorted(pos[v] for v in e)[-2:]
            ends[last].add(em)
            attaches[prev].add((em, 1 << (last - prev - 1)))
    plan = [(1 << v, tuple(ends[i]), tuple(attaches[i]))
            for i, v in enumerate(order)]
    # Best ratio tracked as a num/den pair to avoid a Fraction per
    # cutset; the numerator is the best cutset's size.
    best = (0, 0, 0)
    for size in range(n + 1):
        bn, bd, _ = best
        # Fewest components with which a cutset of this size could
        # still improve or tie the best ratio.
        need = 2
        if bd:
            if size * bd >= bn * (n - size):
                break
            need = max(2, -(-size * bd // bn))
        best, _nodes, _leaves = _search_level(plan, size, need, best)
    # Some pair {u, v} is no 2-edge, so S = V - {u, v} leaves 2
    # components and the search always finds a cutset.
    bn, bd, best_mask = best
    return ToughnessValue(Fraction(bn, bd), bit_tuple(best_mask))


def _search_level(plan: Sequence[tuple[int, tuple[int, ...],
                                        tuple[tuple[int, int], ...]]],
                  size: int, need: int, best: tuple[int, int, int]
                  ) -> tuple[tuple[int, int, int], int, int]:
    """One level of `toughness`: the cutsets S of `size` vertices with at
    least `need` components, searched depth first.  `plan` gives, in
    visit order, each vertex's bit, the edge masks whose last vertex it
    is, and the edges whose second-to-last vertex it is, each as a pair
    (edge mask, attach bit): the attach bit marks the edge's last vertex
    by its place in the order, counted from the vertex after this one.
    `best` is (bn, bd, mask): the best ratio bn / bd so far as a pair,
    bd = 0 while there is none, and its cutset.  Returns the updated
    `best`, the nodes visited and the leaves (full cutsets) reached;
    `toughness` uses only `best`."""
    n = len(plan)
    bn, bd, best_mask = best
    nodes = leaves = 0
    # One entry per node: (i, free, s_mask, comps, att), the first i
    # vertices of the order decided, free of them still to join S, comps
    # the component masks of the survivors so far, and att the attached
    # undecided vertices, bit j for the vertex at place i + j of the
    # order.  A survivor's attach bits are thus relative to its child,
    # and `att >> 1` drops the vertex being decided.  Edges that end at
    # an undecided vertex are not added yet, so they can only merge more.
    stack: list[tuple[int, int, int, list[int], int]] = [
        (0, size, 0, [], 0)]
    while stack:
        i, free, s_mask, comps, att = stack.pop()
        # Walk down from the popped node, to the join child while some
        # vertex must still join S (the survive child waits on the
        # stack), and to the survive child once none must.
        while True:
            nodes += 1
            rest = n - i
            if free == rest:
                # The rest join S and add no edge.
                leaves += 1
                c = len(comps)
                if c >= need:
                    for b, _, _ in plan[i:]:
                        s_mask |= b
                    if bd == 0 or size * bd < bn * c:
                        bn, bd, best_mask, need = size, c, s_mask, c
                    elif size == bn and c == bd:
                        # Equal sizes: the set holding the least element
                        # of the symmetric difference is the smaller tuple.
                        diff = s_mask ^ best_mask
                        if s_mask & diff & -diff:
                            best_mask = s_mask
                break
            b, ending, attaching = plan[i]
            reach = 0
            for em in ending:
                if not em & s_mask:
                    reach |= em
            if reach:
                merged = b
                grown = []
                for cm in comps:
                    if cm & reach:
                        merged |= cm
                    else:
                        grown.append(cm)
                grown.append(merged)
            else:
                grown = comps + [b]
            # Each undecided vertex adds at most one component, and none
            # if it joins S or if it is attached and survives, so at
            # least max(free, attached) of them add none; merges only
            # remove more.  Both children are bounded.
            slack = len(grown) + rest - 1 - need
            alive = slack >= free
            if alive:
                grown_att = att >> 1
                for em, last in attaching:
                    if not em & s_mask:
                        grown_att |= last
                alive = slack >= grown_att.bit_count()
            if free:
                if alive:
                    stack.append((i + 1, free, s_mask, grown, grown_att))
                free -= 1
                slack = len(comps) + rest - 1 - need
                att >>= 1
                if slack < free or slack < att.bit_count():
                    break
                s_mask |= b
            elif alive:
                comps, att = grown, grown_att
            else:
                break
            i += 1
    return (bn, bd, best_mask), nodes, leaves


def is_complete(h: Hypergraph) -> bool:
    """True when every deletion of at most n-2 vertices leaves a connected
    remainder (a single surviving vertex counts as connected), that is,
    when the toughness is infinite.  That holds exactly when every
    vertex pair is itself a 2-edge: deleting V - {u, v} strongly removes
    every edge but those inside {u, v}, and a remainder keeps all the
    2-edges among its own vertices."""
    pairs = {e for e in h.edges if len(e) == 2}
    return len(pairs) == h.n * (h.n - 1) // 2


def verify_berge_factor(h: Hypergraph, cert: BergeFactorCertificate) -> Verdict:
    """Accept iff the certificate is well formed, injective on hyperedge
    indices, each pair lies inside its hyperedge, and every vertex of `h`
    is covered exactly k times."""
    return _check_factor(h.n, h.edges, cert)


def _check_factor(n: int, rows: Sequence[Sequence[int]],
                  cert: BergeFactorCertificate) -> Verdict:
    """`verify_berge_factor` on the hyperedges `rows` over vertices
    0..n-1.  `factor_solver.verify_2k_factor` calls it on a bipartite
    host's X-rows, which may be empty and so form no `Hypergraph`."""
    m = len(rows)
    for e, uv in cert.pairs:
        if (len(uv) != 2 or not 0 <= e < m or uv[0] == uv[1]
                or not all(0 <= u < n for u in uv)):
            return Verdict(False, f"malformed certificate: pair ({e}, {uv})")
    seen: set[int] = set()
    for e, _pair in cert.pairs:
        if e in seen:
            return Verdict(False, f"injection violated: hyperedge {e} used twice")
        seen.add(e)
    for e, (u, v) in cert.pairs:
        edge = rows[e]
        if u not in edge or v not in edge:
            return Verdict(
                False, f"containment violated: ({u}, {v}) not inside hyperedge {e}")
    degree = [0] * n
    for _e, (u, v) in cert.pairs:
        degree[u] += 1
        degree[v] += 1
    for v, d in enumerate(degree):
        if d != cert.k:
            return Verdict(
                False, f"degree violated: vertex {v} has degree {d}, want {cert.k}")
    return Verdict(True)
