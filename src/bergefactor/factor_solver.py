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

An X-vertex of degree 2 gets neither ends nor a pair: one edge joins the
ends e_y of its two incidences, and leaving that edge unmatched selects
both, as Tutte's f-factor reduction does for a graph edge.  Where the
full block would match exactly one of its two incidence edges and so
leave one of its own vertices exposed, the contracted gadget leaves that
incidence's e_y exposed instead, so |V| - 2 nu is the same for every
host.  With |X_2| such X-vertices the gadget has
2|E| + 2|X| + k|Y| - 4|X_2| vertices and (k+3)|E| + |X| - 6|X_2| edges
for |E| incidences, for every host: a Y-vertex of host degree < k leaves
copies exposed, so its gadget has no perfect matching, and so does one
with fewer than k X-neighbours of degree 2 or more, since an X-vertex
of degree 1 is never selected.  `find_2k_factor` checks for such a
vertex first (`sparse_y_vertex`), then that k|Y| is even, since a
factor's Y-degrees sum to k|Y| and its X-degrees to twice the selected
X-vertices; either failing answers None without building the gadget.
One rule states both exits, and `no_scan_barrier` gives the barrier
each stands for, which `factor` prints past the scan budget.

A (2,k)-factor of the incidence graph of a hypergraph H is a
Berge-k-factor of H: each selected X-vertex (hyperedge) x places the
multigraph edge of its two selected Y-neighbours y1 < y2 inside x.  So
the factor is returned as a `BergeFactorCertificate` with pairs
(x, (y1, y2)) in X order, on the greedy path and on the gadget path
alike.  `find_2k_factor` checks it once, by `verify_2k_factor` on the
host's X-rows, which are H's edges, and every caller returns it as is.

`build_gadget` computes every vertex id up front, so its one pass over
the host writes each vertex's owner and incidence partner, and the
selection encoded as a matching: a selected incidence's e_x is matched
into its pair and its e_y to the lowest free copy of y, every other e_x
to its e_y, and the pair of an X-vertex that takes none to itself; a
contracted X-vertex that takes none has its edge matched, and one that
is selected gives each of its two ends a copy.  The start is then
maximal, and only the copies it leaves exposed, one per unit of need
the selection left, are the roots of the first forest phase.  The pass
builds no neighbour tuple: `GadgetGraph.expand` builds one vertex's,
and the matcher calls it only for the vertices its forests reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .hypergraph import (BergeFactorCertificate, Hypergraph, Verdict,
                         _check_factor, verify_berge_factor)
from .incidence import BipartiteGraph, incidence_graph
# max_matching is not called here since a factor needs a perfect
# matching, but bench/tracing.py wraps it under this module's name.
from .matching import GeneralGraph, complete_matching, max_matching  # noqa: F401
from .parity_criterion import Barrier, DegreeSpec, delta

@dataclass(frozen=True)
class GadgetGraph:
    """The matching gadget of `host`, kept unexpanded.  `owner` gives
    the host vertex (global id) of each gadget vertex, and `start` is
    the warm start as a mate array (-1 for an exposed vertex): it is
    maximal, and its exposed vertices are exactly the copies that the
    selection it encodes left unmet.  `expand(v)` builds vertex v's
    ascending neighbour tuple.  `graph` and `inter_edges` are views
    derived through it on first read, for tests, tools and the
    benchmark's tracer; the factor route does not read them.
    `anchor[x]` is the first end of X-vertex x's block, or, for a
    contracted x, the lower of the two Y-ends its edge joins; `link[v]`
    is the other end of an end v's incidence edge and -1 on a pair
    vertex or a copy.  A degree-2 X-vertex owns no gadget vertex."""

    host: BipartiteGraph
    owner: tuple[int, ...]
    start: tuple[int, ...]
    anchor: tuple[int, ...]
    link: tuple[int, ...]
    expand: Callable[[int], tuple[int, ...]]

    @property
    def n(self) -> int:
        return len(self.start)

    def selected(self, match: Sequence[int]
                 ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each X-vertex x with the ascending tuple of its Y-neighbours
        (local) whose incidence edge the mate array `match` leaves
        unmatched, in X order, where that tuple is not empty."""
        link = self.link
        out = []
        for x, (v, ys) in enumerate(zip(self.anchor, self.host.neighbors)):
            if len(ys) == 2:
                if match[v] != link[v]:
                    out.append((x, ys))
                continue
            pick = tuple(y for i, y in enumerate(ys, v)
                         if match[i] != link[i])
            if pick:
                out.append((x, pick))
        return tuple(out)

    @cached_property
    def inter_edges(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Each host edge (x, nx + y) to its incidence edge (e_x, e_y)."""
        nx, link = self.host.x_count, self.link
        out = {}
        for x, (v, ys) in enumerate(zip(self.anchor, self.host.neighbors)):
            for i, y in enumerate(ys):
                e = v if len(ys) == 2 else v + i
                out[x, nx + y] = (e, link[e])
        return out

    @cached_property
    def graph(self) -> GeneralGraph:
        return GeneralGraph.from_adjacency(
            tuple(map(self.expand, range(self.n))))


def sparse_y_vertex(g: BipartiteGraph, spec: DegreeSpec) -> int | None:
    """The Y-local index of a Y-vertex that no factor can meet, or None
    when there is none: the first Y-vertex whose host degree is below
    k, or else the first with fewer than k X-neighbours of degree 2 or
    more, since an X-vertex of degree 1 is never selected."""
    k = spec.k
    y_nbrs = g.y_neighbors
    for j, xs in enumerate(y_nbrs):
        if len(xs) < k:
            return j
    if 1 in map(len, g.neighbors):
        single = [len(ys) == 1 for ys in g.neighbors]
        for j, xs in enumerate(y_nbrs):
            if len(xs) - sum(single[x] for x in xs) < k:
                return j
    return None


def _no_scan_exit(g: BipartiteGraph, spec: DegreeSpec
                  ) -> tuple[tuple[int, ...], str] | None:
    """B and the reason when the host has no factor by a rule that needs
    no scan, or None: first the Y-vertex y that `sparse_y_vertex` finds,
    with B = {y}, then an odd k|Y|, with B = {}."""
    k = spec.k
    y = sparse_y_vertex(g, spec)
    if y is not None:
        xs = g.y_neighbors[y]
        d2 = sum(len(g.neighbors[x]) > 1 for x in xs)
        why = (f"degree {len(xs)}" if len(xs) < k
               else f"{d2} X-neighbours of degree >= 2")
        return (g.x_count + y,), f"gadget: Y-vertex {y} has {why} < k = {k}"
    if k * g.y_count % 2:
        return (), f"parity: k|Y| = {k * g.y_count} is odd"
    return None


def no_scan_barrier(g: BipartiteGraph, spec: DegreeSpec) -> Barrier | None:
    """The barrier ({}, B) behind `find_2k_factor`'s early exits,
    evaluated by `delta` with no scan, or None when it takes neither.
    For a sparse y with d2 X-neighbours of degree 2 or more, ({}, {y})
    has delta at most d2 - k; ({}, {}) on an odd k|Y| counts only odd
    components, with the parity of k|Y|.  RuntimeError when the delta
    is not below 0."""
    found = _no_scan_exit(g, spec)
    if found is None:
        return None
    br = delta(g, (), found[0], spec)
    if br.delta >= 0:
        raise RuntimeError(f"{found[1]} gave delta {br.delta}")
    return br


def _restart_order(front: list[int], order: list[int], in_front: set[int]):
    """The visit order of one restart of `greedy_selection`, built only
    as far as it is read: the front, then the other Y-vertices of
    `order`."""
    yield from front
    for y in order:
        if y not in in_front:
            yield y


def greedy_selection(g: BipartiteGraph, spec: DegreeSpec
                     ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A greedy selection of X-vertices, most constrained first (after
    Karp and Sipser's degree-ordered matching), and the need it leaves
    unmet.  Entry x of the selection is the ascending pair of
    Y-neighbours that x takes, or () when x takes none.  Each Y-vertex y
    needs k incidences and has left[y] unselected X-neighbours, deg(y)
    at first.  The Y-vertices are visited by ascending degree, ties by
    id; one with need left scans its unselected X-neighbours with the
    fewest Y-neighbours first, ties by id, and selects each x on y and
    the partner z in N(x) - y with need left and the least slack
    left[z] - need[z], the first in N(x) on a tie, until its need is
    met; an x with no partner is passed over.  Every Y-vertex with need
    left has scanned all its X-neighbours, so no unselected X-vertex has
    two Y-neighbours with need left: the selection is maximal.  When
    the unmet need is 0 it is a (2,k)-factor.

    When this first pass leaves need, the selection is rebuilt from
    scratch by restarts, after squeaky-wheel optimisation (Joslin and
    Clements 1999).  A restart visits the front first, the Y-vertices
    that the first pass left with need in its order, then the others in
    degree order, and stops at the first Y-vertex it leaves with need,
    which joins the end of the front.  The first restart that meets
    every need is returned, with unmet 0.  The restarts end when one
    stops at a vertex already in the front, or when they have visited
    |E| Y-vertices in all, |E| the host's incidence count; then the
    first pass's selection and need are returned as they were.  So there
    are at most |Y| restarts, with fewer than |E| + |Y| visits."""
    k = spec.k
    nbrs = g.neighbors
    y_nbrs = g.y_neighbors
    degree = list(map(len, y_nbrs))
    if len(set(map(len, nbrs))) > 1:
        # Each Y-vertex's X-neighbours, fewest Y-neighbours first; with
        # one X-degree this is X order, the order of `y_neighbors`.
        rows: list[list[int]] = [[] for _ in y_nbrs]
        for x in sorted(range(g.x_count), key=lambda x: len(nbrs[x])):
            for y in nbrs[x]:
                rows[y].append(x)
        y_nbrs = rows

    def visit(y: int) -> int:
        # Select X-vertices on y until its need is met; return the need
        # it keeps.
        r = need[y]
        for x in y_nbrs[y]:
            if r == 0:
                break
            if picks[x]:
                continue
            ys = nbrs[x]
            z = -1
            for w in ys:
                if w != y and need[w] > 0 and (
                        z < 0 or left[w] - need[w] < left[z] - need[z]):
                    z = w
            if z < 0:
                continue
            picks[x] = (y, z) if y < z else (z, y)
            need[z] -= 1
            r -= 1
            for w in ys:
                left[w] -= 1
        need[y] = r
        return r

    need = [k] * g.y_count
    left = degree[:]
    picks: list[tuple[int, ...]] = [()] * g.x_count
    order = sorted(range(g.y_count), key=degree.__getitem__)
    front = [y for y in order if visit(y)]
    if not front:
        return tuple(picks), 0
    first = tuple(picks), sum(need[y] for y in front)
    in_front = set(front)
    visits, cap = 0, sum(degree)
    while visits < cap:
        need = [k] * g.y_count
        left = degree[:]
        picks = [()] * g.x_count
        for y in _restart_order(front, order, in_front):
            visits += 1
            if visit(y):
                break
        else:
            return tuple(picks), 0
        if y in in_front:
            break
        front.append(y)
        in_front.add(y)
    return first


def build_gadget(g: BipartiteGraph, spec: DegreeSpec,
                 selection: Sequence[tuple[int, ...]] | None = None
                 ) -> GadgetGraph:
    """Lay out the split-incidence gadget of the host graph; a Y-vertex
    of degree below k is laid out too and leaves copies exposed.  Vertex
    ids follow host-vertex order: an X-vertex of degree other than 2
    owns its incidence ends in neighbor order, then its pair; a Y-vertex
    owns its ends in X order, then its k copies.  Every id is computed
    up front, so one pass over the host vertices writes `owner`, the
    incidence partners and the warm start that encodes `selection`
    (`greedy_selection`'s when None), which must give each X-vertex ()
    or two of its Y-neighbours and no Y-vertex more than k: see the
    module docstring.  No neighbour tuple is built until `expand` is
    called."""
    if selection is None:
        selection = greedy_selection(g, spec)[0]
    nx = g.x_count
    k = spec.k
    nbrs = g.neighbors
    y_nbrs = g.y_neighbors
    # First free Y-end and first free copy of each Y-block, advanced as
    # X-vertices claim them, and the copies of each Y-vertex.
    y_next: list[int] = []
    c_next: list[int] = []
    copies: list[tuple[int, ...]] = []
    v = xend = sum(len(ys) + 2 for ys in nbrs if len(ys) != 2)
    for xs in y_nbrs:
        y_next.append(v)
        v += len(xs) + k
        c_next.append(v - k)
        copies.append(tuple(range(v - k, v)))
    start = [-1] * v
    link = [-1] * v
    owner: list[int] = []
    anchor: list[int] = []
    for x, (ys, pick) in enumerate(zip(nbrs, selection)):
        if len(ys) == 2:
            # No block: one edge joins the two Y-ends, left unmatched
            # when x is selected, and then each end takes the lowest
            # free copy of its Y-vertex.
            y1, y2 = ys
            a, b = y_next[y1], y_next[y2]
            y_next[y1] = a + 1
            y_next[y2] = b + 1
            anchor.append(a)
            link[a] = b
            link[b] = a
            if pick:
                c1, c2 = c_next[y1], c_next[y2]
                c_next[y1] = c1 + 1
                c_next[y2] = c2 + 1
                start[a], start[c1], start[b], start[c2] = c1, a, c2, b
            else:
                start[a] = b
                start[b] = a
            continue
        e = len(owner)
        pair = e + len(ys)
        owner += [x] * (len(ys) + 2)
        anchor.append(e)
        # A selected end e_x goes into the pair, the lower one first, and
        # its e_y to the lowest free copy; any other e_x to its e_y.
        slot = pair
        for i, y in enumerate(ys):
            ex, ey = e + i, y_next[y]
            y_next[y] = ey + 1
            link[ex] = ey
            link[ey] = ex
            if y in pick:
                c = c_next[y]
                c_next[y] = c + 1
                start[ex], start[slot], start[ey], start[c] = slot, ex, c, ey
                slot += 1
            else:
                start[ex] = ey
                start[ey] = ex
        if slot == pair:
            start[pair] = pair + 1
            start[pair + 1] = pair
    for j, xs in enumerate(y_nbrs):
        owner += [nx + j] * (len(xs) + k)

    def expand(v: int) -> tuple[int, ...]:
        w = link[v]
        if v >= xend:
            y = owner[v] - nx
            if w < 0:  # a copy, joined to every end of its Y-vertex
                c = copies[y][0]
                return tuple(range(c - len(y_nbrs[y]), c))
            return (w,) + copies[y] if w < v else copies[y] + (w,)
        x = owner[v]
        e = anchor[x]
        pair = e + len(nbrs[x])
        if v < pair:
            return (pair, pair + 1, w)
        return tuple(range(e, pair)) + ((pair + 1,) if v == pair else (pair,))

    return GadgetGraph(g, tuple(owner), tuple(start), tuple(anchor),
                       tuple(link), expand)


def find_2k_factor(g: BipartiteGraph, spec: DegreeSpec, *,
                   trace: Callable[[str], None] | None = None
                   ) -> BergeFactorCertificate | None:
    """Search for a (2,k)-factor of the host graph; None when there is
    none.  The two exits of the module docstring answer None first,
    with no `delta` evaluated.  Otherwise `greedy_selection` chooses the
    warm start on the host, most constrained first.  When it meets every
    need it is the factor, and no gadget is laid out: the matcher would
    return that start, which is already perfect, as it is.  Otherwise it
    is the degree-ordered pass's selection, so the restarts change no
    yes/no answer: `build_gadget` encodes it, `complete_matching`
    extends it to a perfect matching of the gadget from the copies it
    left unmet, building only the vertices its forests reach, and
    `GadgetGraph.selected` reads the factor off the mate array.  A
    matcher phase that augments nothing ends on a Hungarian forest and
    shows there is no factor.  The factor, the certificate of the module
    docstring, is checked by `verify_2k_factor` before it is returned,
    the one check on the factor route; RuntimeError when it fails.
    `trace` receives progress lines, whose counts come from the module
    docstring's closed forms, so that tracing lays out nothing."""
    found = _no_scan_exit(g, spec)
    if found is not None:
        if trace:
            trace(f"{found[1]}, no factor")
        return None
    selection, unmet = greedy_selection(g, spec)
    if trace:
        ne = sum(map(len, g.neighbors))
        x2 = sum(len(ys) == 2 for ys in g.neighbors)
        n = 2 * ne + 2 * g.x_count + spec.k * g.y_count - 4 * x2
        trace(f"gadget: {n} vertices, "
              f"{(spec.k + 3) * ne + g.x_count - 6 * x2} edges "
              f"({ne - x2} incidence edges)")
    if unmet:
        gadget = build_gadget(g, spec, selection)
        match = list(gadget.start)
        if not complete_matching(match, [None] * gadget.n, gadget.expand):
            if trace:
                trace("matching: stopped at an exposed vertex with no "
                      f"augmenting path, perfect needs {n // 2}")
                trace("no perfect matching: factor does not exist")
            return None
        pairs = gadget.selected(match)
    else:
        pairs = tuple((x, pick) for x, pick in enumerate(selection) if pick)
    if trace:
        trace(f"matching: {n // 2} edges, perfect needs {n // 2} (n even)")
    # X order with ascending pairs, as `BergeFactorCertificate.make`
    # would give.
    cert = BergeFactorCertificate(spec.k, pairs)
    verdict = verify_2k_factor(g, cert)
    if not verdict:
        raise RuntimeError(
            f"gadget extraction produced a bad factor: {verdict.reason}")
    if trace:
        trace(f"extraction: {2 * len(pairs)} host edges selected")
    return cert


def verify_2k_factor(g: BipartiteGraph, cert: BergeFactorCertificate
                     ) -> Verdict:
    """Check a claimed (2,k)-factor, given as its certificate, against
    the host graph from scratch: `verify_berge_factor`'s check on the
    X-rows, where an X-vertex may have no neighbour."""
    return _check_factor(g.y_count, g.neighbors, cert)


def lift_to_berge(h: Hypergraph, cert: BergeFactorCertificate
                  ) -> BergeFactorCertificate:
    """A standalone check of a certificate against `h`: it is returned
    as is when `verify_berge_factor` passes it, and ValueError is raised
    otherwise.  The factor route does not call it, since
    `find_2k_factor` has checked the same rows."""
    verdict = verify_berge_factor(h, cert)
    if not verdict:
        raise ValueError(f"lifted certificate is invalid: {verdict.reason}")
    return cert


def find_berge_k_factor(h: Hypergraph, k: int, *,
                        trace: Callable[[str], None] | None = None
                        ) -> BergeFactorCertificate | None:
    """`find_2k_factor` on the incidence graph of `h`, whose checked
    certificate is the Berge k-factor; None when there is none."""
    return find_2k_factor(incidence_graph(h), DegreeSpec(k), trace=trace)
