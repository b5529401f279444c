"""Incidence bipartite view of a hypergraph, and Y-side strong deletion.

X-vertices stand for hyperedges, Y-vertices for hypergraph vertices,
with x ~ y exactly when the hyperedge contains the vertex.  Strongly
deleting a Y-set removes it together with every X-neighbor, which
mirrors edge-destroying vertex deletion on the hypergraph side;
Y-toughness is the toughness notion this induces, and it coincides with
the hypergraph's toughness.

Global vertex ids (used by the criterion and barrier machinery) list X
first: x_i has id i, y_j has id x_count + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .hypergraph import Hypergraph, ToughnessValue, components, toughness


class BipartiteGraph:
    """Bipartite graph given by each X-vertex's sorted Y-neighborhood."""

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

    @cached_property
    def y_neighbors(self) -> tuple[tuple[int, ...], ...]:
        rev: list[list[int]] = [[] for _ in range(self.y_count)]
        for x, nbrs in enumerate(self.neighbors):
            for y in nbrs:
                rev[y].append(x)
        return tuple(tuple(r) for r in rev)

    @property
    def has_isolated_x(self) -> bool:
        return any(not nbrs for nbrs in self.neighbors)

    def x_id(self, i: int) -> int:
        """Global vertex id of x_i."""
        return i

    def y_id(self, j: int) -> int:
        """Global vertex id of y_j."""
        return self.x_count + j

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


@dataclass(frozen=True)
class YStrongDeletion:
    """Survivors of a Y-side strong deletion, with old->new index maps."""

    graph: BipartiteGraph
    x_map: dict[int, int]
    y_map: dict[int, int]


def incidence_graph(h: Hypergraph) -> BipartiteGraph:
    """Bipartite graph with X = edge positions of `h`, Y = vertices of
    `h`, adjacency by containment.  Edge multiplicity survives as
    X-vertices with equal neighborhoods."""
    return BipartiteGraph(len(h.edges), h.n, h.edges)


def hypergraph_of(g: BipartiteGraph) -> Hypergraph:
    """Inverse of `incidence_graph`: vertex set Y, one edge N(x) per
    X-vertex, in X order.  Rejects graphs with isolated X-vertices,
    which represent no hypergraph (edges are nonempty)."""
    for x, nbrs in enumerate(g.neighbors):
        if not nbrs:
            raise ValueError(
                f"not hypergraph-representable: X-vertex {x} is isolated")
    return Hypergraph(g.y_count, g.neighbors)


def strong_delete_y(g: BipartiteGraph, s: Iterable[int]) -> YStrongDeletion:
    """Remove the Y-set `s`, every X-vertex adjacent to it, and all
    incident edges; survivors are reindexed contiguously."""
    s_set = set(s)
    for y in s_set:
        if not 0 <= y < g.y_count:
            raise ValueError(f"Y-vertex {y} outside 0..{g.y_count - 1}")
    keep_x = [x for x in range(g.x_count)
              if not any(y in s_set for y in g.neighbors[x])]
    keep_y = [y for y in range(g.y_count) if y not in s_set]
    x_map = {x: i for i, x in enumerate(keep_x)}
    y_map = {y: j for j, y in enumerate(keep_y)}
    nbrs = [[y_map[y] for y in g.neighbors[x]] for x in keep_x]
    return YStrongDeletion(
        BipartiteGraph(len(keep_x), len(keep_y), nbrs), x_map, y_map)


def bipartite_components(g: BipartiteGraph
                         ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components as (X-vertices, Y-vertices) pairs of sorted
    tuples, ordered by smallest global id: the components of the
    2-uniform hypergraph on global ids with one edge (x, nx + y) per
    incidence."""
    nx = g.x_count
    view = Hypergraph(nx + g.y_count, [(x, nx + y) for x, nbrs
                                       in enumerate(g.neighbors) for y in nbrs])
    return [(tuple(v for v in comp if v < nx),
             tuple(v - nx for v in comp if v >= nx))
            for comp in components(view)]


def y_toughness(g: BipartiteGraph, budget: int | None = None) -> ToughnessValue:
    """Toughness over Y-cutsets under strong deletion: the minimum
    |S| / c(G (-) S) over S inside Y leaving at least two components.
    Every surviving X-vertex keeps all its Y-neighbors, so this is the
    toughness of the represented hypergraph, and it is computed as
    such; witness indices are Y-local (hypergraph vertex numbers).
    Graphs with isolated X-vertices represent no hypergraph and are
    rejected."""
    return toughness(hypergraph_of(g), budget)
