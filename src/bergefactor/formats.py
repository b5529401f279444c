"""Text formats: .hg (hypergraph), .big (bipartite graph), .bkf (Berge
factor certificate), .bar (barrier certificate).

All four serialize deterministically (fixed ordering, single trailing
newline) so equal objects produce identical bytes.  Lines starting with
`#` are comments.  Blank lines are skipped in .hg and .bkf; in .big and
.bar they are positional (an empty neighborhood or empty A/B set is a
blank line).

Each .hg edge line and .big neighbor line is checked once, here, in one
pass (ints, strictly ascending, in range), and handed unchecked to the
trusted `Hypergraph._canonical` or `BipartiteGraph._canonical`.

Hyperedges in a .hg file are serialized in ascending order, so edge
indices of a file written here are the sorted order; parsing preserves
the file's line order as the edge indexing.
"""

from __future__ import annotations

from operator import lt
from pathlib import Path

from .hypergraph import BergeFactorCertificate, Hypergraph
from .incidence import BipartiteGraph, hypergraph_of, incidence_graph
from .parity_criterion import Barrier, Component


class FormatError(ValueError):
    """Malformed input text for one of the package's file formats."""


def _ints(line: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, line.split()))
    except ValueError:
        raise FormatError(f"bad {what} line: {line!r}") from None


def _meaningful(text: str) -> list[str]:
    """Non-blank, non-comment lines."""
    return [ln for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


def _positional(text: str) -> list[str]:
    """All lines except comments, from the first non-blank one on; later
    blanks are kept (they carry meaning)."""
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    while lines and not lines[0].strip():
        lines.pop(0)
    return lines


def _ascending(vals: tuple[int, ...], what: str) -> None:
    if not all(map(lt, vals, vals[1:])):
        raise FormatError(
            f"{what} not in strictly ascending order: {list(vals)}")


def _rows(lines: list[str], what: str, order_what: str, size: int
          ) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Each line as a strictly ascending int tuple, and whether every
    value lies in 0..size-1.  A bad or unordered line raises at once; a
    value out of range is left to `_model`, after the caller's checks."""
    rows = []
    in_range = True
    for ln in lines:
        vs = _ints(ln, what)
        _ascending(vs, order_what)
        if in_range and vs and (vs[0] < 0 or vs[-1] >= size):
            in_range = False
        rows.append(vs)
    return tuple(rows), in_range


def _model(cls, args: tuple, trusted: bool) -> Hypergraph | BipartiteGraph:
    """`cls._canonical(*args)` when the parser has checked every row;
    otherwise the validating `cls(*args)`, whose first fault is
    re-raised as a FormatError with the same message."""
    try:
        return cls._canonical(*args) if trusted else cls(*args)
    except ValueError as e:
        raise FormatError(str(e)) from None


def parse_hg(text: str) -> Hypergraph:
    lines = _meaningful(text)
    if not lines:
        raise FormatError("empty hypergraph file")
    head = _ints(lines[0], "header")
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    n, m = head
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges, in_range = _rows(lines[1:], "edge", "edge vertices", n)
    return _model(Hypergraph, (n, edges), in_range and n >= 0)


def serialize_hg(h: Hypergraph) -> str:
    lines = [f"{h.n} {len(h.edges)}"]
    lines += [" ".join(map(str, e)) for e in sorted(h.edges)]
    return "\n".join(lines) + "\n"


def parse_big(text: str) -> BipartiteGraph:
    lines = _positional(text)
    if not lines:
        raise FormatError("empty bipartite graph file")
    head = _ints(lines[0], "header")
    if len(head) != 2:
        raise FormatError(f"header must be '|X| |Y|', got {lines[0]!r}")
    nx, ny = head
    if nx < 0 or ny < 0:
        raise FormatError(f"header '|X| |Y|' must be non-negative, got {lines[0]!r}")
    if len(lines) - 1 < nx:
        raise FormatError(f"expected {nx} neighbor lines, found {len(lines) - 1}")
    rows, in_range = _rows(lines[1:1 + nx], "neighbor", "neighbors", ny)
    for ln in lines[1 + nx:]:
        if ln.strip():
            raise FormatError(f"trailing content: {ln!r}")
    return _model(BipartiteGraph, (nx, ny, rows), in_range)


def serialize_big(g: BipartiteGraph) -> str:
    lines = [f"{g.x_count} {g.y_count}"]
    lines += [" ".join(map(str, row)) for row in g.neighbors]
    return "\n".join(lines) + "\n"


def parse_bkf(text: str) -> BergeFactorCertificate:
    lines = _meaningful(text)
    if not lines:
        raise FormatError("empty certificate file")
    head = _ints(lines[0], "header")
    if len(head) != 2:
        raise FormatError(f"header must be 'k p', got {lines[0]!r}")
    k, p = head
    if k < 1:
        raise FormatError(f"k must be positive, got {k}")
    if len(lines) - 1 != p:
        raise FormatError(f"expected {p} pair lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        vals = _ints(ln, "pair")
        if len(vals) != 3:
            raise FormatError(f"pair line must be 'edgeIndex u v', got {ln!r}")
        pairs.append((vals[0], (vals[1], vals[2])))
    return BergeFactorCertificate.make(k, pairs)


def serialize_bkf(c: BergeFactorCertificate) -> str:
    lines = [f"{c.k} {len(c.pairs)}"]
    lines += [f"{e} {u} {v}" for e, (u, v) in c.pairs]
    return "\n".join(lines) + "\n"


def parse_bar(text: str) -> Barrier:
    lines = _positional(text)
    if len(lines) < 3:
        raise FormatError("barrier file needs a header, an A line and a B line")
    head = _ints(lines[0], "header")
    if len(head) != 3:
        raise FormatError(f"header must be 'delta |A| |B|', got {lines[0]!r}")
    dlt, na, nb = head
    a = _ints(lines[1], "A")
    b = _ints(lines[2], "B")
    _ascending(a, "A indices")
    _ascending(b, "B indices")
    if len(a) != na:
        raise FormatError(f"|A| = {na} in header but {len(a)} indices listed")
    if len(b) != nb:
        raise FormatError(f"|B| = {nb} in header but {len(b)} indices listed")
    comps = []
    for ln in lines[3:]:
        if not ln.strip():
            continue
        toks = ln.split()
        if toks[0] not in ("odd", "even"):
            raise FormatError(f"component class must be odd or even, got {toks[0]!r}")
        vals = _ints(" ".join(toks[1:]), "component")
        if not vals or len(vals) - 1 != vals[0] or vals[0] < 1:
            raise FormatError(f"component line size mismatch: {ln!r}")
        vs = vals[1:]
        _ascending(vs, "component vertices")
        comps.append(Component(vs, toks[0] == "odd"))
    order = [c.vertices[0] for c in comps]
    if order != sorted(order):
        raise FormatError("components not sorted by smallest member")
    return Barrier(a, b, dlt, tuple(comps))


def serialize_bar(br: Barrier) -> str:
    lines = [f"{br.delta} {len(br.a)} {len(br.b)}",
             " ".join(map(str, br.a)),
             " ".join(map(str, br.b))]
    for comp in sorted(br.components, key=lambda c: c.vertices[0]):
        cls = "odd" if comp.odd else "even"
        lines.append(f"{cls} {len(comp.vertices)} " + " ".join(map(str, comp.vertices)))
    return "\n".join(lines) + "\n"


def load_hypergraph(path: str | Path) -> Hypergraph:
    """Read a hypergraph; a .big file gives the hypergraph it represents
    (`hypergraph_of`), and one with an isolated X-vertex represents
    none."""
    p = Path(path)
    if p.suffix == ".hg":
        return parse_hg(p.read_text())
    if p.suffix == ".big":
        return hypergraph_of(parse_big(p.read_text()))
    raise FormatError(f"expected a .hg or .big file, got {p.name!r}")


def load_bipartite(path: str | Path) -> BipartiteGraph:
    """Read a bipartite graph; a .hg file is converted through its
    incidence graph."""
    p = Path(path)
    if p.suffix == ".hg":
        return incidence_graph(parse_hg(p.read_text()))
    if p.suffix == ".big":
        return parse_big(p.read_text())
    raise FormatError(f"expected a .hg or .big file, got {p.name!r}")


def load_certificate(path: str | Path) -> BergeFactorCertificate:
    return parse_bkf(Path(path).read_text())


def load_barrier(path: str | Path) -> Barrier:
    return parse_bar(Path(path).read_text())
