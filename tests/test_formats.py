"""Text formats: parsing, serialization, and loaders."""

import random

import pytest

from bergefactor import (
    Barrier,
    BergeFactorCertificate,
    BipartiteGraph,
    DegreeSpec,
    FormatError,
    Hypergraph,
    delta,
    hypergraph_of,
    incidence_graph,
    load_barrier,
    load_bipartite,
    load_certificate,
    load_hypergraph,
    parse_bar,
    parse_big,
    parse_bkf,
    parse_hg,
    serialize_bar,
    serialize_big,
    serialize_bkf,
    serialize_hg,
)
from bergefactor.families import cycle, star


# -------------------------------------------------------------------- .hg


def test_hg_round_trip_and_golden():
    h = cycle(4)
    text = serialize_hg(h)
    assert text == "4 4\n0 1\n0 3\n1 2\n2 3\n"
    assert parse_hg(text) == Hypergraph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])


def test_hg_serialization_sorts_edges():
    h = Hypergraph(3, [(1, 2), (0, 1)])
    assert serialize_hg(h) == "3 2\n0 1\n1 2\n"


def test_hg_comments_and_blanks():
    text = "# a comment\n\n3 1\n\n# another\n0 1 2\n"
    assert parse_hg(text) == Hypergraph(3, [(0, 1, 2)])


def test_hg_errors():
    with pytest.raises(FormatError, match="empty"):
        parse_hg("# nothing here\n")
    with pytest.raises(FormatError, match="header"):
        parse_hg("3\n")
    with pytest.raises(FormatError, match="edge lines"):
        parse_hg("3 2\n0 1\n")
    with pytest.raises(FormatError, match="ascending"):
        parse_hg("3 1\n1 0\n")
    with pytest.raises(FormatError, match="bad"):
        parse_hg("3 1\n0 x\n")
    with pytest.raises(FormatError):
        parse_hg("2 1\n0 5\n")  # vertex out of range


# ------------------------------------------------------------------- .big


def test_big_round_trip_and_golden():
    g = incidence_graph(star(3))
    text = serialize_big(g)
    assert text == "3 4\n0 1\n0 2\n0 3\n"
    assert parse_big(text) == g


def test_big_blank_line_is_empty_row():
    g = parse_big("2 2\n0 1\n\n")
    assert g.neighbors == ((0, 1), ())


def test_big_comments_skipped_blanks_positional():
    g = parse_big("# hdr\n3 2\n0\n# mid\n\n1\n")
    assert g.neighbors == ((0,), (), (1,))


def test_big_errors():
    with pytest.raises(FormatError, match="empty"):
        parse_big("\n\n")
    with pytest.raises(FormatError, match="header"):
        parse_big("1\n0\n")
    with pytest.raises(FormatError, match="neighbor lines"):
        parse_big("2 2\n0\n")
    with pytest.raises(FormatError, match="trailing"):
        parse_big("1 2\n0\n1\n")
    with pytest.raises(FormatError, match="ascending"):
        parse_big("1 3\n2 1\n")
    for text in ("-1 3\n", "2 -1\n0\n1\n"):
        with pytest.raises(FormatError, match="must be non-negative"):
            parse_big(text)


# A file with several faults reports one of them, and which one is part
# of the format's contract: a bad or unordered line anywhere (then
# trailing content, then a negative n) wins over an out-of-range vertex
# on an earlier line, and the first out-of-range line is the one named.
@pytest.mark.parametrize("parse, text, message", [
    (parse_hg, "3 2\n0 5\n1 0\n",
     "edge vertices not in strictly ascending order: [1, 0]"),
    (parse_hg, "3 2\n0 5\nx 1\n", "bad edge line: 'x 1'"),
    (parse_hg, "-1 2\n0\n0 1\n", "vertex count must be non-negative"),
    (parse_hg, "-1 0\n", "vertex count must be non-negative"),
    (parse_hg, "3 2\n0 1\n2 3\n",
     "edge 1 references a vertex outside 0..2: (2, 3)"),
    (parse_hg, "3 2\n0 3\n-1 2\n",
     "edge 0 references a vertex outside 0..2: (0, 3)"),
    (parse_hg, "2 1\n7\n", "edge 0 references a vertex outside 0..1: (7,)"),
    (parse_big, "2 2\n0 2\n1\n",
     "X-vertex 0 has a neighbor outside 0..1: (0, 2)"),
    (parse_big, "2 2\n-1 0\n\n",
     "X-vertex 0 has a neighbor outside 0..1: (-1, 0)"),
    (parse_big, "2 2\n0 2\n1 0\n",
     "neighbors not in strictly ascending order: [1, 0]"),
    (parse_big, "2 2\n0 2\n1 x\n", "bad neighbor line: '1 x'"),
    (parse_big, "1 2\n2\n0\n", "trailing content: '0'"),
])
def test_first_fault_reported(parse, text, message):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == message


def _random_rows(rng, n: int) -> list[tuple[int, ...]]:
    """1-12 sorted rows over 0..n-1 of size 1-6, some repeated."""
    rows = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(6, n)))))
            for _ in range(rng.randint(1, 8))]
    rows += rng.choices(rows, k=rng.randint(0, 4))
    rng.shuffle(rows)
    return rows


def test_parsers_build_what_the_validating_constructors_build(tmp_path):
    rng = random.Random(20261020)
    for trial in range(200):
        n = rng.randint(1, 14)
        rows = _random_rows(rng, n)
        body = "".join(" ".join(map(str, r)) + "\n" for r in rows)

        h = parse_hg(f"{n} {len(rows)}\n" + body)
        assert h == Hypergraph(n, rows)
        assert hash(h) == hash(Hypergraph(n, rows))
        assert type(h.edges) is tuple
        assert all(type(e) is tuple and all(type(v) is int for v in e)
                   for e in h.edges)
        g = incidence_graph(h)
        assert g == BipartiteGraph(len(h.edges), h.n, h.edges)
        assert hash(g) == hash(BipartiteGraph(len(h.edges), h.n, h.edges))

        big = tmp_path / f"g{trial}.big"
        big.write_text(f"{len(rows)} {n}\n" + body)
        g = parse_big(big.read_text())
        assert g == BipartiteGraph(len(rows), n, rows)
        assert hash(g) == hash(BipartiteGraph(len(rows), n, rows))
        assert all(type(r) is tuple for r in g.neighbors)
        loaded = load_hypergraph(big)
        assert loaded == Hypergraph(n, rows)
        assert hash(loaded) == hash(Hypergraph(n, rows))
        assert hypergraph_of(g) == loaded


def test_public_constructors_still_validate():
    for bad in ([(0, 3)], [(0, 0)], [()], [(-1, 0)]):
        with pytest.raises(ValueError):
            Hypergraph(3, bad)
    for bad in ([(0, 3)], [(1, 1)], [(-1,)]):
        with pytest.raises(ValueError):
            BipartiteGraph(1, 3, bad)
    with pytest.raises(ValueError):
        Hypergraph(-1)
    with pytest.raises(ValueError):
        BipartiteGraph(2, 3, [(0,)])


# ------------------------------------------------------------------- .bkf


def test_bkf_round_trip_and_golden():
    cert = BergeFactorCertificate.make(2, [(1, (2, 0)), (0, (0, 1))])
    text = serialize_bkf(cert)
    assert text == "2 2\n0 0 1\n1 0 2\n"
    assert parse_bkf(text) == cert


def test_bkf_errors():
    with pytest.raises(FormatError, match="empty"):
        parse_bkf("")
    with pytest.raises(FormatError, match="header"):
        parse_bkf("2\n")
    with pytest.raises(FormatError, match="positive"):
        parse_bkf("0 0\n")
    with pytest.raises(FormatError, match="pair lines"):
        parse_bkf("1 2\n0 0 1\n")
    with pytest.raises(FormatError, match="edgeIndex"):
        parse_bkf("1 1\n0 0\n")


# ------------------------------------------------------------------- .bar


def _star_barrier() -> Barrier:
    g = incidence_graph(star(3))
    return delta(g, [3], [], DegreeSpec(1))


def test_bar_round_trip_and_golden():
    br = _star_barrier()
    text = serialize_bar(br)
    assert text == ("-2 1 0\n"
                    "3\n"
                    "\n"
                    "odd 2 0 4\n"
                    "odd 2 1 5\n"
                    "odd 2 2 6\n")
    back = parse_bar(text)
    assert back == br


def test_bar_empty_a_and_b_lines():
    br = parse_bar("0 0 0\n\n\neven 1 0\n")
    assert br.a == () and br.b == ()
    assert len(br.components) == 1
    assert br.components[0].vertices == (0,)
    assert not br.components[0].odd
    assert br.hw == 0


def test_bar_errors():
    with pytest.raises(FormatError, match="header"):
        parse_bar("0 0\n\n\n")
    with pytest.raises(FormatError, match=r"\|A\|"):
        parse_bar("0 1 0\n\n\n")
    with pytest.raises(FormatError, match="odd or even"):
        parse_bar("0 0 0\n\n\nweird 1 0\n")
    with pytest.raises(FormatError, match="size mismatch"):
        parse_bar("0 0 0\n\n\nodd 2 0\n")
    with pytest.raises(FormatError, match="smallest member"):
        parse_bar("0 0 0\n\n\nodd 1 5\nodd 1 2\n")
    with pytest.raises(FormatError, match="needs a header"):
        parse_bar("0 0 0\n\n")


def test_bar_hw_recomputed_from_components():
    br = parse_bar("0 0 0\n\n\nodd 1 0\neven 1 1\nodd 1 2\n")
    assert br.hw == 2


# ---------------------------------------------------------------- loaders


def test_loaders_and_dispatch(tmp_path):
    hg = tmp_path / "c4.hg"
    hg.write_text(serialize_hg(cycle(4)))
    assert load_hypergraph(hg) == cycle(4)
    assert load_bipartite(hg) == incidence_graph(cycle(4))

    big = tmp_path / "g.big"
    big.write_text("1 2\n0 1\n")
    assert load_bipartite(big) == BipartiteGraph(1, 2, [(0, 1)])

    bkf = tmp_path / "c.bkf"
    bkf.write_text("1 1\n0 0 1\n")
    assert load_certificate(bkf).pairs == ((0, (0, 1)),)

    bar = tmp_path / "b.bar"
    bar.write_text(serialize_bar(_star_barrier()))
    assert load_barrier(bar) == _star_barrier()

    with pytest.raises(FormatError, match="expected a .hg or .big"):
        load_bipartite(tmp_path / "c.bkf")
