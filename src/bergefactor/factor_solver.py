"""Constructive (2,k)-factor search via reduction to perfect matching.

Each host vertex becomes a gadget: one outer vertex per incident edge,
`degree - f` core vertices joined to every outer, and `(f - g) / 2`
slack pairs whose two ends are joined to each other and to every outer.
A host edge becomes a single edge between the two outer vertices that
represent it.  In a perfect matching, cores absorb exactly `degree - f`
outers and each slack pair absorbs 0 or 2 more, so the host edges whose
inter-gadget edge is matched form a spanning subgraph with degree in
{g, g+2, ..., f} at every host vertex.  With targets (0, 2) on X and
(k, k) on Y that is exactly a (2,k)-factor.

X-vertices of host degree < 2 get clamped targets (0, 0); a Y-vertex of
host degree < k makes the instance infeasible outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .hypergraph import BergeFactorCertificate, Hypergraph, Verdict, verify_berge_factor
from .incidence import BipartiteGraph, incidence_graph
from .matching import GeneralGraph, max_matching
from .parity_criterion import DegreeSpec

OUTER = "outer"
CORE = "core"
SLACK_P = "slack_p"
SLACK_Q = "slack_q"


@dataclass(frozen=True)
class VertexInfo:
    """Gadget vertex provenance: owning host vertex (global id), role,
    and for outers the host edge carried."""

    host: int
    role: str
    edge: tuple[int, int] | None = None


@dataclass(frozen=True)
class Infeasible:
    """A Y-vertex whose host degree is below k; no factor can exist."""

    y: int
    degree: int
    k: int


@dataclass(frozen=True)
class GadgetGraph:
    graph: GeneralGraph
    vertices: tuple[VertexInfo, ...]
    inter_edges: dict[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class FactorSubgraph:
    """A (2,k)-factor as a set of host edges (x_index, y_index), both
    sides in local coordinates."""

    k: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, k: int, edges) -> "FactorSubgraph":
        return cls(k, tuple(sorted(tuple(e) for e in edges)))


def build_gadget(g: BipartiteGraph, spec: DegreeSpec) -> GadgetGraph | Infeasible:
    """Expand the host graph into the matching gadget, or report the
    first Y-vertex (by index) that is infeasibly sparse."""
    nx = g.x_count
    k = spec.k
    for j in range(g.y_count):
        d = len(g.y_neighbors[j])
        if d < k:
            return Infeasible(j, d, k)
    infos: list[VertexInfo] = []
    edges: list[tuple[int, int]] = []
    # Outer ids per host edge, filled in host-vertex order so ids are
    # reproducible; host edges are (x, y) in global coordinates.
    outer_at: dict[tuple[tuple[int, int], int], int] = {}

    def expand(host: int, incident: list[tuple[int, int]], g_eff: int, f_eff: int) -> None:
        d = len(incident)
        outers = []
        for he in incident:
            vid = len(infos)
            infos.append(VertexInfo(host, OUTER, he))
            outer_at[(he, host)] = vid
            outers.append(vid)
        for _ in range(d - f_eff):
            vid = len(infos)
            infos.append(VertexInfo(host, CORE))
            edges.extend((o, vid) for o in outers)
        for _ in range((f_eff - g_eff) // 2):
            p = len(infos)
            infos.append(VertexInfo(host, SLACK_P))
            q = len(infos)
            infos.append(VertexInfo(host, SLACK_Q))
            edges.append((p, q))
            for o in outers:
                edges.append((o, p))
                edges.append((o, q))

    for x in range(nx):
        incident = [(x, nx + y) for y in g.neighbors[x]]
        d = len(incident)
        f_eff = 2 if d >= 2 else 0
        expand(x, incident, 0, f_eff)
    for j in range(g.y_count):
        incident = [(x, nx + j) for x in g.y_neighbors[j]]
        expand(nx + j, incident, k, k)

    inter: dict[tuple[int, int], tuple[int, int]] = {}
    for x in range(nx):
        for y in g.neighbors[x]:
            he = (x, nx + y)
            ge = (outer_at[(he, x)], outer_at[(he, nx + y)])
            inter[he] = ge
            edges.append(ge)
    return GadgetGraph(GeneralGraph(len(infos), edges), tuple(infos), inter)


def find_2k_factor(g: BipartiteGraph, spec: DegreeSpec, *,
                   trace: Callable[[str], None] | None = None
                   ) -> FactorSubgraph | None:
    """Search for a (2,k)-factor of the host graph; None when there is
    none.  A factor read off the matching is checked by
    `verify_2k_factor` before it is returned.  `trace` receives
    progress lines."""
    gadget = build_gadget(g, spec)
    if isinstance(gadget, Infeasible):
        if trace:
            trace(f"gadget: Y-vertex {gadget.y} has degree "
                  f"{gadget.degree} < k = {gadget.k}, no factor")
        return None
    gg = gadget.graph
    if trace:
        trace(f"gadget: {gg.n} vertices, {len(gg.edges)} edges "
              f"({len(gadget.inter_edges)} inter-gadget)")
    matching = max_matching(gg)
    if trace:
        trace(f"matching: {len(matching)} edges, perfect needs {gg.n // 2}"
              f" (n {'even' if gg.n % 2 == 0 else 'odd'})")
    if 2 * len(matching) != gg.n:
        if trace:
            trace("no perfect matching: factor does not exist")
        return None
    matched = set(matching.edges)
    chosen = [(he[0], he[1] - g.x_count)
              for he, ge in gadget.inter_edges.items()
              if tuple(sorted(ge)) in matched]
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


def berge_pairs(factor: FactorSubgraph) -> BergeFactorCertificate:
    """Read a Berge k-factor certificate off a (2,k)-factor of an
    incidence graph: each X-vertex (hyperedge) of degree 2 contributes
    the pair of its two selected Y-vertices.  Nothing is checked
    against a hypergraph here; see `lift_to_berge`."""
    by_edge: dict[int, list[int]] = {}
    for x, y in factor.edges:
        by_edge.setdefault(x, []).append(y)
    pairs = []
    for e, vs in sorted(by_edge.items()):
        if len(vs) != 2:
            raise ValueError(f"hyperedge {e} selected with degree {len(vs)}, want 2")
        pairs.append((e, (vs[0], vs[1])))
    return BergeFactorCertificate.make(factor.k, pairs)


def lift_to_berge(h: Hypergraph, factor: FactorSubgraph) -> BergeFactorCertificate:
    """Convert a (2,k)-factor of the incidence graph of `h` into a Berge
    k-factor certificate and verify it against `h`."""
    cert = berge_pairs(factor)
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
