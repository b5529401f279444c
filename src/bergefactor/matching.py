"""Maximum matching in general graphs via blossom contraction.

Unweighted Edmonds matching: a maximal start, the caller's or one from a
deterministic greedy pass over the sorted adjacency (u ascending, each
neighbour w > u, which is the order of the canonical edge list), then
one kernel grows an alternating forest from the roots it is given.  An
edge between two outer vertices of one tree closes an odd cycle, which
is contracted by relabelling only the merged blossoms' members (a list
kept per base); its base is found by walking up from both ends in turn,
at most twice the longer of the two walks the relabelling makes anyway.
Between two trees such an edge is an augmenting path: both paths flip,
both trees retire and no later edge enters them.  A call ends with the
BFS wave of its first augmentation (a Hopcroft-Karp phase), so it costs
O(E) plus its contractions.  Scan order is fixed by the sorted
adjacency, so equal inputs always produce equal matchings.

`complete_matching` is the one driver: it checks the caller's mate
array, then runs phases, each from every vertex the last one left
exposed, until none is left or a phase augments nothing.  That phase's
forest is Hungarian: no augmenting path starts at any root, so the
pairs left in the mate array are a maximum matching (Berge) and no
perfect matching exists.  Its adjacency may be built lazily: an entry
is None until the forest first scans its vertex and the caller's
expander builds it, so a graph that is mostly matched already is mostly
never built.  `max_matching` is the greedy pass from the empty
matching, then `complete_matching`, whose answer it does not need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence


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


def _augment_from(roots: Sequence[int], adj: Sequence[tuple[int, ...] | None],
                  match: list[int], identity: list[int],
                  expand: Callable[[int], tuple[int, ...]] | None = None
                  ) -> int:
    """Grow one forest from `roots` and flip the disjoint augmenting
    paths it meets, within one phase; returns the number of trees
    retired, 0 when the forest is Hungarian.  An entry of `adj` may be
    None, a vertex whose neighbours are not built yet: the first time
    the forest scans it, `expand(v)` builds its ascending neighbour
    tuple into `adj`, and v's mate must be among them, or ValueError."""
    # p[] holds traversal parents, base[] blossom bases, starting from a
    # copy of `identity`, the list(range(n)) built once per matching;
    # used[] marks outer vertices and tree[] each forest vertex's root.
    n = len(match)
    p = [-1] * n
    base = identity.copy()
    used = [False] * n
    tree = [-1] * n
    dead = [False] * n  # by root
    for r in roots:
        used[r] = True
        tree[r] = r
    q = list(roots)  # every outer vertex, in BFS order
    members: dict[int, list[int]] = {}  # base -> vertices, non-trivial only
    retired = 0
    stop = n  # the queue never holds more than n vertices

    def lca(a: int, b: int) -> int:
        # Walk up from both ends in turn; the first base seen from both
        # is the nearest common one.  A walker at its root waits there.
        a, b = base[a], base[b]
        seen_a, seen_b = {a}, {b}
        while True:
            if match[a] != -1:
                a = base[p[match[a]]]
            if a in seen_b:
                return a
            seen_a.add(a)
            a, b, seen_a, seen_b = b, a, seen_b, seen_a

    def mark_path(v: int, b: int, child: int, flower: set[int]) -> None:
        while base[v] != b:
            flower.add(base[v])
            flower.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def flip(u: int, w: int) -> None:
        # u takes w, u's old mate takes its parent, ... up to u's root.
        while True:
            old = match[u]
            match[u] = w
            match[w] = u
            if old == -1:
                return
            w = old
            u = p[old]

    head = 0
    while head < len(q) and head < stop:
        v = q[head]
        head += 1
        tv = tree[v]
        if dead[tv]:
            continue
        a = adj[v]
        if a is None:
            a = adj[v] = expand(v)
            if match[v] != -1 and match[v] not in a:
                raise ValueError(f"start pairs vertex {v} with {match[v]}, "
                                 "which is not a matching edge")
        for to in a:
            if base[v] == base[to] or match[v] == to:
                continue
            if used[to]:
                tt = tree[to]
                if tt == tv:
                    # Odd cycle: contract it onto the common base.  Only
                    # the vertices of the flower are relabelled; the new
                    # outer ones join the queue in ascending id order.
                    cur = lca(v, to)
                    flower: set[int] = set()
                    mark_path(v, cur, to, flower)
                    mark_path(to, cur, v, flower)
                    # cur is outer, and so is every member of a
                    # non-trivial blossom: the vertices already based at
                    # cur need nothing.
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
                    continue
                if dead[tt]:
                    continue
                dead[tt] = True  # two trees meet
                retired += 1
            elif p[to] != -1:
                continue
            elif match[to] != -1:
                p[to] = v
                mate = match[to]
                tree[to] = tree[mate] = tv
                used[mate] = True
                q.append(mate)
                continue
            # Augmenting path through v-to (to is outer in another tree,
            # or exposed outside the forest): flip both sides, retire
            # v's tree and close the phase at the end of this wave.
            mate = match[to]
            flip(v, to)
            if mate != -1:
                flip(p[mate], mate)
            dead[tv] = True
            retired += 1
            stop = min(stop, len(q))
            break
    return retired


def _greedy(adj: tuple[tuple[int, ...], ...], match: list[int]) -> None:
    # Extend the mate array `match` (-1 when exposed) greedily.
    for u, a in enumerate(adj):
        if match[u] == -1:
            for w in a:
                if w > u and match[w] == -1:
                    match[u] = w
                    match[w] = u
                    break


def _matching_of(match: list[int]) -> Matching:
    # Read off the mate array, pairs come out as (smaller, larger) in
    # ascending order, which is the order `Matching.make` would sort to.
    return Matching(tuple((v, w) for v, w in enumerate(match) if v < w))


def complete_matching(match: list[int],
                      adj: Sequence[tuple[int, ...] | None],
                      expand: Callable[[int], tuple[int, ...]] | None = None
                      ) -> bool:
    """Extend the mate array `match` (match[v] is v's mate, -1 when v is
    exposed) in place to a perfect matching of the graph whose neighbour
    tuples `adj` holds; False when there is none.  An entry of `adj` may
    be None until the search first scans that vertex and `expand(v)`
    builds it, so only the vertices the forests reach are ever built;
    `expand` may be left out when every entry is built.  Forest phases
    run from the exposed vertices of `match`, with no greedy pass, so it
    should be maximal; each later phase starts from the roots the last
    one left exposed, and a phase that retires no tree ends on a
    Hungarian forest and answers False, leaving in `match` a maximum
    matching of the graph.  `match` must have one entry per vertex and
    be an involution in range, checked before the search, and each of
    its pairs an edge, checked up front where `adj` is built and
    otherwise as its vertex is built; any fault raises ValueError."""
    n = len(match)
    if len(adj) != n:
        raise ValueError(f"start has {n} entries, the graph {len(adj)} "
                         "vertices")
    for v, w in enumerate(match):
        if w != -1 and not (0 <= w < n and match[w] == v
                            and (adj[v] is None or w in adj[v])):
            raise ValueError(f"start pairs vertex {v} with {w}, "
                             "which is not a matching edge")
    roots = [v for v, w in enumerate(match) if w == -1]
    identity = list(range(n))
    while roots:
        if not _augment_from(roots, adj, match, identity, expand):
            return False
        roots = [v for v in roots if match[v] == -1]
    return True


def max_matching(g: GeneralGraph) -> Matching:
    """Maximum-cardinality matching, deterministic for a fixed input."""
    match = [-1] * g.n
    _greedy(g.adjacency, match)
    complete_matching(match, g.adjacency)
    return _matching_of(match)
