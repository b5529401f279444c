"""Constructive (2,k)-factor search via reduction to perfect matching.

The split-incidence gadget: each host incidence (x, y) becomes an edge
between two incidence ends, e_x owned by x and e_y owned by y.  Each
X-vertex becomes a pair of vertices joined to each other and to every
one of its ends e_x; each Y-vertex becomes k copies, each joined to
every one of its ends e_y.  In a perfect matching an end e_y is matched
either to e_x or to a copy of y, and the k copies take exactly k ends.
An end e_x is matched either to e_y or into the pair of x, and the pair
takes 0 ends (matched to each other) or 2.  So the incidences whose
e_x-e_y edge is left unmatched are selected: exactly k at each Y-vertex
and 0 or 2 at each X-vertex, which is a (2,k)-factor, and every factor
arises this way.  An X-vertex of degree 1 cannot fill its pair and takes
degree 0.

The gadget has 2|E| + 2|X| + k|Y| vertices and (k+3)|E| + |X| edges for
|E| incidences, for every host: a Y-vertex of host degree < k leaves
copies exposed, so its gadget has no perfect matching.  `find_2k_factor`
checks for such a vertex first (`sparse_y_vertex`) and answers None
without building the gadget.

`build_gadget` computes every vertex id up front, so its one pass over
the host writes the gadget's sorted adjacency directly, with a warm
start for the matcher: a greedy selection in which each X-vertex, in id
order, takes the two Y-neighbours with the most remaining need (k at
first), or none when fewer than two still need one.  Encoded as a
matching, a selected incidence's e_x is matched into its pair, every
other e_x to its e_y, and the pair of an X-vertex that takes none to
itself.  The matcher's greedy pass then gives each free e_y a copy, and
only the copies that remain exposed, one per unit of need the selection
left, start a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .hypergraph import BergeFactorCertificate, Hypergraph, Verdict, verify_berge_factor
from .incidence import BipartiteGraph, incidence_graph
# max_matching is not called here since a factor needs a perfect
# matching, but bench/tracing.py wraps it under this module's name.
from .matching import GeneralGraph, max_matching, perfect_matching  # noqa: F401
from .parity_criterion import DegreeSpec

@dataclass(frozen=True)
class GadgetGraph:
    """The matching gadget; `owner` gives the host vertex (global id) of
    each gadget vertex, `inter_edges` maps each host edge (x, nx + y)
    to its incidence edge (e_x, e_y) in the gadget, and `start` is the
    warm-start matching as a mate array (-1 for an exposed vertex)."""

    graph: GeneralGraph
    owner: tuple[int, ...]
    inter_edges: dict[tuple[int, int], tuple[int, int]]
    start: tuple[int, ...]


@dataclass(frozen=True)
class FactorSubgraph:
    """A (2,k)-factor as a set of host edges (x_index, y_index), both
    sides in local coordinates."""

    k: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, k: int, edges) -> "FactorSubgraph":
        return cls(k, tuple(sorted(tuple(e) for e in edges)))


def sparse_y_vertex(g: BipartiteGraph, spec: DegreeSpec) -> int | None:
    """The Y-local index of the first Y-vertex whose host degree is
    below k, so that no factor can exist, or None when there is none."""
    for j, xs in enumerate(g.y_neighbors):
        if len(xs) < spec.k:
            return j
    return None


def build_gadget(g: BipartiteGraph, spec: DegreeSpec) -> GadgetGraph:
    """Expand the host graph into the split-incidence gadget; a Y-vertex
    of degree below k is built too and leaves copies exposed.  Vertex ids
    follow host-vertex order: an X-vertex owns its incidence ends in
    neighbor order, then its pair; a Y-vertex owns its ends in X order,
    then its k copies.  Every id is computed up front, so one pass over
    the host vertices writes each vertex's ascending neighbour tuple and
    the warm start (see the module docstring)."""
    nx = g.x_count
    k = spec.k
    # First free Y-end of each Y-block, advanced as X-vertices claim
    # them, and the copies of each Y-vertex.
    y_next: list[int] = []
    copies: list[tuple[int, ...]] = []
    v = sum(len(ys) for ys in g.neighbors) + 2 * nx
    for xs in g.y_neighbors:
        y_next.append(v)
        v += len(xs) + k
        copies.append(tuple(range(v - k, v)))
    adj: list[tuple[int, ...]] = [()] * v
    start = [-1] * v
    need = [k] * g.y_count
    owner: list[int] = []
    inter: dict[tuple[int, int], tuple[int, int]] = {}
    for x, ys in enumerate(g.neighbors):
        e = len(owner)
        pair = e + len(ys)
        owner += [x] * (len(ys) + 2)
        # The two neighbours with the most need, ties to the lower index.
        first = second = -1
        for i, y in enumerate(ys):
            r = need[y]
            if r > 0:
                if first < 0 or r > need[ys[first]]:
                    first, second = i, first
                elif second < 0 or r > need[ys[second]]:
                    second = i
        taken = (min(first, second), max(first, second)) if second >= 0 else ()
        for i, y in enumerate(ys):
            ey = y_next[y]
            y_next[y] += 1
            inter[x, nx + y] = (e + i, ey)
            adj[e + i] = (pair, pair + 1, ey)
            adj[ey] = (e + i,) + copies[y]
            if i not in taken:
                start[e + i] = ey
                start[ey] = e + i
        ends = tuple(range(e, pair))
        adj[pair] = ends + (pair + 1,)
        adj[pair + 1] = ends + (pair,)
        if taken:
            for c, i in enumerate(taken):
                start[e + i] = pair + c
                start[pair + c] = e + i
                need[ys[i]] -= 1
        else:
            start[pair] = pair + 1
            start[pair + 1] = pair
    for j, xs in enumerate(g.y_neighbors):
        e = len(owner)
        owner += [nx + j] * (len(xs) + k)
        ends = tuple(range(e, e + len(xs)))
        for c in copies[j]:
            adj[c] = ends
    return GadgetGraph(GeneralGraph.from_adjacency(tuple(adj)), tuple(owner),
                       inter, tuple(start))


def find_2k_factor(g: BipartiteGraph, spec: DegreeSpec, *,
                   trace: Callable[[str], None] | None = None
                   ) -> FactorSubgraph | None:
    """Search for a (2,k)-factor of the host graph; None when there is
    none.  A Y-vertex of degree below k answers None before the gadget
    is built.  Otherwise the factor is read off a perfect matching of
    the gadget, so the matcher stops at its first failed search: that
    already shows there is no factor.  A factor is checked by
    `verify_2k_factor` before it is returned.  `trace` receives progress
    lines."""
    y = sparse_y_vertex(g, spec)
    if y is not None:
        if trace:
            trace(f"gadget: Y-vertex {y} has degree "
                  f"{len(g.y_neighbors[y])} < k = {spec.k}, no factor")
        return None
    gadget = build_gadget(g, spec)
    gg = gadget.graph
    if trace:
        trace(f"gadget: {gg.n} vertices, {len(gg.edges)} edges "
              f"({len(gadget.inter_edges)} incidence edges)")
    matching = perfect_matching(gg, gadget.start)
    if matching is None:
        if trace:
            trace("matching: stopped at an exposed vertex with no "
                  f"augmenting path, perfect needs {gg.n // 2}")
            trace("no perfect matching: factor does not exist")
        return None
    if trace:
        trace(f"matching: {len(matching)} edges, perfect needs {gg.n // 2}"
              f" (n {'even' if gg.n % 2 == 0 else 'odd'})")
    # An incidence is selected exactly when its incidence edge is not
    # matched; ids in `inter_edges` are already in (smaller, larger) order.
    matched = set(matching.edges)
    chosen = [(he[0], he[1] - g.x_count)
              for he, ge in gadget.inter_edges.items()
              if ge not in matched]
    result = FactorSubgraph.make(spec.k, chosen)
    verdict = verify_2k_factor(g, result)
    if not verdict:
        raise RuntimeError(
            f"gadget extraction produced a bad factor: {verdict.reason}")
    if trace:
        trace(f"extraction: {len(chosen)} host edges selected")
    return result


def verify_2k_factor(g: BipartiteGraph, factor: FactorSubgraph) -> Verdict:
    """Check a claimed (2,k)-factor against the host graph from scratch."""
    nx, ny = g.x_count, g.y_count
    seen = set()
    for e in factor.edges:
        if len(e) != 2 or not (0 <= e[0] < nx and 0 <= e[1] < ny):
            return Verdict(False, f"malformed factor: edge {e}")
        if e in seen:
            return Verdict(False, f"malformed factor: edge {e} repeated")
        seen.add(e)
    for x, y in factor.edges:
        if y not in g.neighbors[x]:
            return Verdict(False, f"edge ({x}, {y}) not in host graph")
    xdeg = [0] * nx
    ydeg = [0] * ny
    for x, y in factor.edges:
        xdeg[x] += 1
        ydeg[y] += 1
    for x in range(nx):
        if xdeg[x] not in (0, 2):
            return Verdict(False, f"X-vertex {x} has degree {xdeg[x]}, want 0 or 2")
    for y in range(ny):
        if ydeg[y] != factor.k:
            return Verdict(False, f"Y-vertex {y} has degree {ydeg[y]}, want {factor.k}")
    return Verdict(True)


def lift_to_berge(h: Hypergraph, factor: FactorSubgraph) -> BergeFactorCertificate:
    """Convert a (2,k)-factor of the incidence graph of `h` into a Berge
    k-factor certificate and verify it against `h`: each X-vertex
    (hyperedge) of degree 2 contributes the pair of its two selected
    Y-vertices."""
    by_edge: dict[int, list[int]] = {}
    for x, y in factor.edges:
        by_edge.setdefault(x, []).append(y)
    pairs = []
    for e, vs in sorted(by_edge.items()):
        if len(vs) != 2:
            raise ValueError(f"hyperedge {e} selected with degree {len(vs)}, want 2")
        pairs.append((e, (vs[0], vs[1])))
    cert = BergeFactorCertificate.make(factor.k, pairs)
    verdict = verify_berge_factor(h, cert)
    if not verdict:
        raise ValueError(f"lifted certificate is invalid: {verdict.reason}")
    return cert


def find_berge_k_factor(h: Hypergraph, k: int, *,
                        trace: Callable[[str], None] | None = None
                        ) -> BergeFactorCertificate | None:
    """End-to-end pipeline on a hypergraph: incidence graph, gadget
    matching, lift.  None when no Berge k-factor exists."""
    spec = DegreeSpec(k)
    factor = find_2k_factor(incidence_graph(h), spec, trace=trace)
    if factor is None:
        return None
    return lift_to_berge(h, factor)
