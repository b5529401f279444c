"""Incidence bipartite view of a hypergraph.

X-vertices stand for hyperedges, Y-vertices for hypergraph vertices,
with x ~ y exactly when the hyperedge contains the vertex.  Strongly
deleting a Y-set removes it together with every X-neighbor, which
mirrors edge-destroying vertex deletion on the hypergraph side;
Y-toughness is the toughness notion this induces, and it coincides with
the hypergraph's toughness, since every surviving X-vertex keeps all
its Y-neighbors: it is `toughness(hypergraph_of(g))`, whose witness is
Y-local.

Global vertex ids (used by the criterion and barrier machinery) list X
first: x_i has id i, y_j has id x_count + j.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .hypergraph import Hypergraph


class BipartiteGraph:
    """Bipartite graph given by each X-vertex's sorted Y-neighborhood.
    The constructor checks and sorts its input; `_canonical` trusts a
    caller that has done so (the parser, `incidence_graph`)."""

    def __init__(self, x_count: int, y_count: int,
                 neighbors: Iterable[Iterable[int]] = ()):
        if x_count < 0 or y_count < 0:
            raise ValueError("side sizes must be non-negative")
        canon = []
        for x, nbrs in enumerate(neighbors):
            ns = tuple(sorted(nbrs))
            if len(set(ns)) != len(ns):
                raise ValueError(f"X-vertex {x} lists a neighbor twice: {ns}")
            if ns and (ns[0] < 0 or ns[-1] >= y_count):
                raise ValueError(
                    f"X-vertex {x} has a neighbor outside 0..{y_count - 1}: {ns}")
            canon.append(ns)
        if len(canon) != x_count:
            raise ValueError(f"expected {x_count} neighborhoods, got {len(canon)}")
        self.x_count = x_count
        self.y_count = y_count
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(canon)

    @classmethod
    def _canonical(cls, x_count: int, y_count: int,
                   neighbors: tuple[tuple[int, ...], ...]) -> "BipartiteGraph":
        """Wrap `neighbors` unchecked.  The caller guarantees what
        `__init__` would establish: both sides non-negative, and
        `neighbors` a tuple of x_count strictly ascending int tuples with
        every neighbor in 0..y_count-1."""
        g = cls.__new__(cls)
        g.x_count, g.y_count, g.neighbors = x_count, y_count, neighbors
        return g

    @cached_property
    def y_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each Y-vertex's X-neighbours, fewest Y-neighbours first, ties
        by X id (X order when X has one degree): the order in which
        `greedy_selection` scans them."""
        nbrs = self.neighbors
        degree = list(map(len, nbrs))
        rev: list[list[int]] = [[] for _ in range(self.y_count)]
        for x in sorted(range(self.x_count), key=degree.__getitem__):
            for y in nbrs[x]:
                rev[y].append(x)
        return tuple(map(tuple, rev))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self.x_count == other.x_count
                and self.y_count == other.y_count
                and self.neighbors == other.neighbors)

    def __hash__(self) -> int:
        return hash((self.x_count, self.y_count, self.neighbors))

    def __repr__(self) -> str:
        return (f"BipartiteGraph({self.x_count}, {self.y_count}, "
                f"{[list(n) for n in self.neighbors]})")


def incidence_graph(h: Hypergraph) -> BipartiteGraph:
    """Bipartite graph with X = edge positions of `h`, Y = vertices of
    `h`, adjacency by containment.  Edge multiplicity survives as
    X-vertices with equal neighborhoods."""
    return BipartiteGraph._canonical(len(h.edges), h.n, h.edges)


def hypergraph_of(g: BipartiteGraph) -> Hypergraph:
    """Inverse of `incidence_graph`: vertex set Y, one edge N(x) per
    X-vertex, in X order.  Rejects graphs with isolated X-vertices,
    which represent no hypergraph (edges are nonempty)."""
    for x, nbrs in enumerate(g.neighbors):
        if not nbrs:
            raise ValueError(
                f"not hypergraph-representable: X-vertex {x} is isolated")
    return Hypergraph._canonical(g.y_count, g.neighbors)
