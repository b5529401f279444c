"""Maximum matching in general graphs via blossom contraction.

Unweighted Edmonds matching: a deterministic greedy pass over the
sorted adjacency (u ascending, each neighbour w > u, which is the order
of the canonical edge list), then one BFS search per vertex still
exposed when its turn comes, in id order, contracting odd cycles by
rebasing them onto their stem (the `base` array).  The greedy pass
extends whatever matching the caller starts from: `max_matching` starts
from none, `perfect_matching` may be given a warm start.  A contraction
relabels only the vertices of the blossoms it merges, found through a
member list kept per blossom base, and queues the newly outer ones in
ascending id order.  A search costs O(E) for the scan plus, per
contraction, the blossom's size and the two tree paths walked to its
base, so O(V * E) in the worst case, plus O(V) to allocate its own `p`,
`base` and `used` arrays.  Scan order is fixed by the sorted adjacency
lists, so equal inputs always produce equal matchings.

A failed search settles that the graph has no perfect matching
(Berge): if a perfect matching M* existed, the component of the
symmetric difference of M and M* at the still-exposed root would be an
augmenting path from it, whatever matching M the searches started
from.  `perfect_matching` stops at that first failure.  `max_matching`
runs every search; its result is maximum because a root with no
augmenting path gains none after later augmentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class GeneralGraph:
    """Simple undirected graph on 0..n-1, stored as its adjacency: one
    ascending tuple of neighbours per vertex.  `GeneralGraph(n, edges)`
    rejects loops and out-of-range ends and collapses parallel edges;
    `from_adjacency` wraps an adjacency its builder already made
    canonical.  `edges` is the canonical (smaller, larger) edge list in
    ascending order, derived on first use."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)

    @classmethod
    def from_adjacency(cls, adjacency: tuple[tuple[int, ...], ...]
                       ) -> "GeneralGraph":
        """Wrap `adjacency` unchecked.  The caller guarantees what
        `__init__` would establish: each tuple ascending, no loop, every
        neighbour in range, and w in adjacency[u] exactly when u is in
        adjacency[w]."""
        g = cls.__new__(cls)
        g.n = len(adjacency)
        g.adjacency = adjacency
        return g

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, w) for u, a in enumerate(self.adjacency)
                     for w in a if w > u)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GeneralGraph)
                and self.adjacency == other.adjacency)

    def __hash__(self) -> int:
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"GeneralGraph({self.n}, {list(self.edges)})"


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored sorted."""

    edges: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(tuple(sorted(tuple(sorted(p)) for p in pairs)))

    def __len__(self) -> int:
        return len(self.edges)


def _is_matching(g: GeneralGraph, m: Matching) -> bool:
    host = set(g.edges)
    used: set[int] = set()
    for u, v in m.edges:
        if (u, v) not in host or u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def is_perfect(g: GeneralGraph, m: Matching) -> bool:
    """True when `m` covers every vertex of `g`.  Rejects inputs that are
    not matchings of `g` outright."""
    if not _is_matching(g, m):
        raise ValueError("not a matching of the host graph")
    return 2 * len(m.edges) == g.n


def _augment_from(root: int, adj: tuple[tuple[int, ...], ...],
                  match: list[int], identity: list[int]) -> bool:
    # BFS over outer vertices; p[] holds the traversal parent of outer
    # vertices, base[] the blossom base each vertex currently maps to,
    # starting from a copy of `identity`, the list(range(n)) built once
    # per matching (copying it is cheaper than rebuilding it).
    n = len(match)
    p = [-1] * n
    base = identity.copy()
    used = [False] * n
    used[root] = True
    q = [root]  # every outer vertex, in BFS order
    members: dict[int, list[int]] = {}  # base -> vertices, non-trivial only

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, flower: set[int]) -> None:
        while base[v] != b:
            flower.add(base[v])
            flower.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    head = 0
    while head < len(q):
        v = q[head]
        head += 1
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # Odd cycle: contract it onto the common base.  Only the
                # vertices of the flower are relabelled; the new outer
                # ones join the queue in ascending id order.
                cur = lca(v, to)
                flower: set[int] = set()
                mark_path(v, cur, to, flower)
                mark_path(to, cur, v, flower)
                # cur is outer, and so is every member of a non-trivial
                # blossom: the vertices already based at cur need nothing.
                flower.discard(cur)
                grown = members.setdefault(cur, [cur])
                fresh = []
                for b in flower:
                    group = members.pop(b, None) or [b]
                    for i in group:
                        base[i] = cur
                        if not used[i]:
                            fresh.append(i)
                    grown.extend(group)
                fresh.sort()
                for i in fresh:
                    used[i] = True
                q.extend(fresh)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    # Exposed vertex reached: flip the augmenting path.
                    while to != -1:
                        pv = p[to]
                        ppv = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = ppv
                    return True
                used[match[to]] = True
                q.append(match[to])
    return False


def _searches(g: GeneralGraph, match: list[int]) -> Iterator[bool]:
    """Extend the matching in `match` (-1 marks an exposed vertex) with
    the greedy pass over the sorted adjacency, then run one search per
    exposed root in id order, yielding whether it augmented.  A caller
    that stops reading runs no further search."""
    n = g.n
    adj = g.adjacency
    for u in range(n):
        if match[u] == -1:
            for w in adj[u]:
                if w > u and match[w] == -1:
                    match[u] = w
                    match[w] = u
                    break
    identity = list(range(n))
    for v in range(n):
        if match[v] == -1:
            yield _augment_from(v, adj, match, identity)


def _matching_of(match: list[int]) -> Matching:
    # Read off the mate array, pairs come out as (smaller, larger) in
    # ascending order, which is the order `Matching.make` would sort to.
    return Matching(tuple((v, w) for v, w in enumerate(match) if v < w))


def max_matching(g: GeneralGraph) -> Matching:
    """Maximum-cardinality matching, deterministic for a fixed input."""
    match = [-1] * g.n
    for _ in _searches(g, match):
        pass
    return _matching_of(match)


def perfect_matching(g: GeneralGraph, start: Sequence[int] | None = None
                     ) -> Matching | None:
    """A perfect matching of `g`, or None when it has none.  The greedy
    pass and the searches extend `start`, a mate array (start[v] is v's
    mate, -1 when v is exposed) of edges of `g`, or the empty matching
    when it is None; so the result depends on `start`, and without one
    it is `max_matching(g)`.  The searches stop at the first exposed
    root with no augmenting path (Berge), so a graph without a perfect
    matching costs one failed search, not one per exposed root.  A
    `start` that is not a matching of `g` raises ValueError."""
    n = g.n
    if start is None:
        match = [-1] * n
    else:
        match = list(start)
        if len(match) != n:
            raise ValueError(f"start has {len(match)} entries, "
                             f"the graph {n} vertices")
        adj = g.adjacency
        for v, w in enumerate(match):
            if w != -1 and not (0 <= w < n and match[w] == v
                                and w in adj[v]):
                raise ValueError(f"start pairs vertex {v} with {w}, "
                                 "which is not a matching edge")
    return _matching_of(match) if all(_searches(g, match)) else None
