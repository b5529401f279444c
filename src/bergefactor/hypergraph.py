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
    """n vertices plus an ordered multiset of nonempty hyperedges."""

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


ACCEPT = Verdict(True)


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def components(h: Hypergraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest
    member.  Vertices are connected when a chain of pairwise
    intersecting edges joins them; edgeless vertices are singletons."""
    parent = list(range(h.n))
    _component_count(parent, h.edge_masks, 0, 0)
    groups: dict[int, list[int]] = {}
    for v in range(h.n):
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


def _component_count(parent: list[int], edge_masks: Sequence[int],
                     s_mask: int, need: int) -> int:
    """Components of H - S, counting edgeless survivors as singletons.
    Merges the survivors in `parent`, a union-find list over all
    n = len(parent) vertices, which the caller passes as the identity.

    The count starts at n - |S| and only falls as edges merge, so once
    it drops below `need` the caller's answer is settled: the count
    returns then, a partial value below `need` and no smaller than the
    true count.  `need` = 0 never stops early and leaves `parent` fully
    merged."""
    count = len(parent) - s_mask.bit_count()
    for em in edge_masks:
        if em & s_mask:
            continue
        m = em
        low = m & -m
        a = _find(parent, low.bit_length() - 1)
        m ^= low
        while m:
            low = m & -m
            m ^= low
            b = _find(parent, low.bit_length() - 1)
            if b != a:
                parent[b] = a
                count -= 1
                if count < need:
                    return count
    return count


def toughness(h: Hypergraph, budget: int | None = None) -> ToughnessValue:
    """Exact toughness by a cutset scan in increasing |S|.

    Returns the minimum |S| / c(H - S) over all S with c(H - S) >= 2, as a
    Fraction, together with the smallest and then lexicographically least
    minimizing S.  Returns the infinite value when no such S exists,
    which `is_complete` decides before any scan.

    Level s holds the cutsets of size s.  H - S has at most n - s
    components, so no cutset of size s or more falls below the best ratio
    found so far once s / (n - s) reaches it, and the scan stops there;
    a later level could only tie, and a tie never displaces a smaller
    witness.  Within a level, a cutset of size s can improve or tie the
    best ratio bn / bd only with at least need = max(2, ceil(s·bd / bn))
    components (2 while there is no best), and each component count
    stops as soon as it falls below that.  The count only falls as edges
    merge, so a stopped cutset could neither improve nor tie, and no
    value or witness changes; at s = bn, need is bd, so every tie still
    reaches the witness comparison.  Instances above the enumeration
    budget (default 20 vertices; override per call or via BF_BUDGET) are
    refused, never truncated."""
    if h.n < 1:
        raise ValueError("toughness needs at least one vertex")
    limit = _budget.resolve(budget, _budget.DEFAULT_VERTEX_BUDGET)
    _budget.check("toughness", h.n, limit)
    if is_complete(h):
        return ToughnessValue(None, None)
    masks = h.edge_masks
    n = h.n
    full = 1 << n
    # Best ratio tracked as a num/den pair to avoid a Fraction per
    # subset; the numerator is the best cutset's size.
    bn = 0
    bd = 0
    best_mask = 0
    # Fewest components with which a cutset of this size could still
    # improve or tie the best ratio.
    need = 2
    for size in range(n + 1):
        if bd:
            if size * bd >= bn * (n - size):
                break
            need = max(2, -(-size * bd // bn))
        s_mask = (1 << size) - 1
        while s_mask < full:
            c = _component_count(list(range(n)), masks, s_mask, need)
            if c >= need:
                if bd == 0 or size * bd < bn * c:
                    bn, bd, best_mask, need = size, c, s_mask, c
                elif (size == bn and c == bd
                      and bit_tuple(s_mask) < bit_tuple(best_mask)):
                    best_mask = s_mask
            if not s_mask:
                break
            # Gosper's step: the next larger mask with the same popcount.
            low = s_mask & -s_mask
            ripple = s_mask + low
            s_mask = (((ripple ^ s_mask) >> 2) // low) | ripple
    if bd == 0:
        return ToughnessValue(None, None)
    return ToughnessValue(Fraction(bn, bd), bit_tuple(best_mask))


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
    m = len(h.edges)
    for e, (u, v) in cert.pairs:
        if not (0 <= e < m and 0 <= u < h.n and 0 <= v < h.n) or u == v:
            return Verdict(False, f"malformed certificate: pair ({e}, ({u}, {v}))")
    seen: set[int] = set()
    for e, _pair in cert.pairs:
        if e in seen:
            return Verdict(False, f"injection violated: hyperedge {e} used twice")
        seen.add(e)
    for e, (u, v) in cert.pairs:
        edge = h.edges[e]
        if u not in edge or v not in edge:
            return Verdict(
                False, f"containment violated: ({u}, {v}) not inside hyperedge {e}")
    degree = [0] * h.n
    for _e, (u, v) in cert.pairs:
        degree[u] += 1
        degree[v] += 1
    for v, d in enumerate(degree):
        if d != cert.k:
            return Verdict(
                False, f"degree violated: vertex {v} has degree {d}, want {cert.k}")
    return ACCEPT
