"""Command line behavior: outputs, exit codes, file dispatch."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergefactor
from bergefactor import (BipartiteGraph, DegreeSpec, Hypergraph, delta,
                         incidence_graph)
from bergefactor.cli import build_parser, cli
from bergefactor.families import complete_uniform, cycle, path, star
from bergefactor.formats import serialize_bar, serialize_big, serialize_hg


@pytest.fixture
def star_hg(tmp_path):
    f = tmp_path / "star.hg"
    f.write_text(serialize_hg(star(3)))
    return str(f)


@pytest.fixture
def c5_hg(tmp_path):
    f = tmp_path / "c5.hg"
    f.write_text(serialize_hg(cycle(5)))
    return str(f)


def run(capsys, *argv):
    code = cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------- toughness


def test_toughness_output(capsys, tmp_path):
    f = tmp_path / "k4u3.hg"
    f.write_text(serialize_hg(complete_uniform(4, 3)))
    code, out, _ = run(capsys, "toughness", str(f))
    assert code == 0
    assert out == "1/1\nwitness {0,1}\n"


def test_toughness_infinite(capsys, tmp_path):
    f = tmp_path / "edge.hg"
    f.write_text("2 1\n0 1\n")
    code, out, _ = run(capsys, "toughness", str(f))
    assert code == 0
    assert out == "infinite\n"


def test_y_toughness_accepts_both_formats(capsys, tmp_path, star_hg):
    code, out, _ = run(capsys, "y-toughness", star_hg)
    assert code == 0
    assert out == "1/3\nwitness {0}\n"
    big = tmp_path / "star.big"
    big.write_text(serialize_big(incidence_graph(star(3))))
    code2, out2, _ = run(capsys, "y-toughness", str(big))
    assert (code2, out2) == (code, out)


def test_toughness_reads_big_and_rejects_other_suffixes(capsys, tmp_path):
    # A .big is read as the hypergraph it represents, as y-toughness does.
    big = tmp_path / "p.big"
    big.write_text(serialize_big(incidence_graph(path(4))))
    code, out, _ = run(capsys, "toughness", str(big))
    assert (code, out) == (0, "1/2\nwitness {1}\n")
    assert run(capsys, "y-toughness", str(big))[:2] == (code, out)
    txt = tmp_path / "p.txt"
    txt.write_text(serialize_hg(path(4)))
    code, out, err = run(capsys, "toughness", str(txt))
    assert (code, out) == (2, "")
    assert err == "error: expected a .hg or .big file, got 'p.txt'\n"


def test_incidence_output(capsys, star_hg):
    code, out, _ = run(capsys, "incidence", star_hg)
    assert code == 0
    assert out == "3 4\n0 1\n0 2\n0 3\n"


# ------------------------------------------------------------- criterion


def test_criterion_exists(capsys, c5_hg):
    code, out, _ = run(capsys, "criterion", c5_hg, "-k", "2")
    assert code == 0
    assert out == "a (2,2)-factor exists\n"


def test_criterion_barrier(capsys, star_hg):
    code, out, _ = run(capsys, "criterion", star_hg, "-k", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "no (2,1)-factor: delta=-2 |A|=1 |B|=0"
    assert lines[1] == "-2 1 0"
    assert lines[2] == "3"


def test_barrier_first_found_and_biased(capsys, star_hg):
    code, out, _ = run(capsys, "barrier", star_hg, "-k", "1")
    assert code == 0
    assert out.startswith("-2 1 0\n3\n")

    code, out, _ = run(capsys, "barrier", star_hg, "-k", "1", "--biased")
    assert code == 0
    assert out.startswith("-2 1 0\n3\n")


def test_barrier_none_when_factor_exists(capsys, c5_hg):
    code, out, _ = run(capsys, "barrier", c5_hg, "-k", "2")
    assert code == 1
    assert out == "no barrier: a (2,2)-factor exists\n"


def test_barrier_check_structure(capsys, star_hg):
    code, out, _ = run(capsys, "barrier", star_hg, "-k", "1",
                       "--check-structure")
    assert code == 0
    assert "clause i: pass" in out
    assert "clause iv: pass" in out
    assert out.rstrip().endswith("structure: pass")


def test_barrier_check_structure_odd_product_writes_nothing(capsys, tmp_path):
    # path(3) has |Y| = 3, so k * |Y| is odd at k = 1: a usage error,
    # and no barrier certificate on stdout
    f = tmp_path / "p3.hg"
    f.write_text(serialize_hg(path(3)))
    code, out, err = run(capsys, "barrier", str(f), "-k", "1",
                         "--check-structure")
    assert code == 2
    assert out == ""
    assert err == "error: structure checks require k * |Y| to be even\n"


# ---------------------------------------------------------------- factor


def test_factor_writes_certificate(capsys, tmp_path, c5_hg):
    cert = tmp_path / "c5.bkf"
    code, out, _ = run(capsys, "factor", c5_hg, "-k", "2", "-o", str(cert))
    assert code == 0
    assert out == f"certificate written to {cert}\n"
    text = cert.read_text()
    assert text.startswith("2 5\n")

    code, out, _ = run(capsys, "verify", c5_hg, str(cert))
    assert code == 0
    assert out == "accept\n"


def test_factor_to_stdout(capsys, c5_hg):
    code, out, _ = run(capsys, "factor", c5_hg, "-k", "2")
    assert code == 0
    assert out.startswith("2 5\n")


def test_factor_none_prints_barrier(capsys, star_hg):
    code, out, _ = run(capsys, "factor", star_hg, "-k", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "no Berge-1-factor: barrier delta=-2"
    assert lines[1] == "-2 1 0"


@pytest.mark.parametrize("k, d, head", [
    # leaf 1 has degree 1 < 2, so B = {31}
    pytest.param(2, -2, "-2 0 1\n\n31\n", id="sparse"),
    # every leaf has degree 1 = k, but k|Y| = 31 is odd, so B = {}
    pytest.param(1, -1, "-1 0 0\n\n\nodd 61 ", id="parity"),
])
def test_factor_past_budget_prints_sparse_vertex_barrier(capsys, tmp_path,
                                                         k, d, head):
    # 61 host vertices, far over the scan budget
    hg = tmp_path / "star30.hg"
    hg.write_text(serialize_hg(star(30)))
    code, out, err = run(capsys, "factor", str(hg), "-k", str(k))
    assert (code, err) == (1, "")
    first, bar = out.split("\n", 1)
    assert first == f"no Berge-{k}-factor: barrier delta={d}"
    assert bar.startswith(head)
    f = tmp_path / "star30.bar"
    f.write_text(bar)
    code, out, _ = run(capsys, "verify", str(hg), str(f), "-k", str(k))
    assert (code, out) == (0, f"accept: barrier delta={d}\n")


def test_factor_past_budget_prints_singleton_sparse_barrier(capsys,
                                                           tmp_path):
    # 90 host vertices, over the scan budget.  Every vertex of the cycle
    # has degree 3 = k, but its singleton edge is never selected, so
    # vertex 0 has only 2 X-neighbours that a factor can use.
    hg = tmp_path / "c30s.hg"
    edges = [(i, (i + 1) % 30) for i in range(30)] + [(i,) for i in range(30)]
    hg.write_text(serialize_hg(Hypergraph(30, edges)))
    code, out, err = run(capsys, "factor", str(hg), "-k", "3")
    assert (code, err) == (1, "")
    first, bar = out.split("\n", 1)
    assert first == "no Berge-3-factor: barrier delta=-2"
    assert bar.startswith("-2 0 1\n\n60\nodd 1 0\n")
    f = tmp_path / "c30s.bar"
    f.write_text(bar)
    code, out, _ = run(capsys, "verify", str(hg), str(f), "-k", "3")
    assert (code, out) == (0, "accept: barrier delta=-2\n")


def test_factor_trace(capsys, c5_hg):
    code, out, _ = run(capsys, "factor", c5_hg, "-k", "2", "--trace")
    assert code == 0
    assert "gadget:" in out and "matching:" in out


def test_factor_on_big_file(capsys, tmp_path):
    big = tmp_path / "g.big"
    big.write_text("2 2\n0 1\n0 1\n")
    code, out, _ = run(capsys, "factor", str(big), "-k", "2")
    assert code == 0
    assert out == "2 2\n0 0 1\n1 0 1\n"


def test_factor_refuses_big_with_isolated_x(capsys, tmp_path):
    # The factor exists on the host, but a .bkf names hyperedges and the
    # empty row 2 is none, so `verify` could not check one.
    big = tmp_path / "g.big"
    big.write_text("3 2\n0 1\n0 1\n\n")
    code, out, err = run(capsys, "factor", str(big), "-k", "2")
    assert (code, out) == (2, "")
    assert err == "error: not hypergraph-representable: X-vertex 2 is isolated\n"


# ---------------------------------------------------------------- verify


def test_verify_bkf_checks_k(capsys, tmp_path):
    # C4 has a Berge-2-factor; its certificate states k = 2.
    hg = tmp_path / "c4.hg"
    hg.write_text(serialize_hg(cycle(4)))
    cert = tmp_path / "c4.bkf"
    code, _, _ = run(capsys, "factor", str(hg), "-k", "2", "-o", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", "-k", "1", str(hg), str(cert))
    assert (code, out) == (1, "reject: certificate is for k=2, not k=1\n")
    code, out, _ = run(capsys, "verify", "-k", "2", str(hg), str(cert))
    assert (code, out) == (0, "accept\n")


def test_verify_rejects_bad_certificate(capsys, tmp_path, c5_hg):
    bad = tmp_path / "bad.bkf"
    bad.write_text("2 1\n0 0 1\n")
    code, out, _ = run(capsys, "verify", c5_hg, str(bad))
    assert code == 1
    assert out.startswith("reject: degree violated")


@pytest.fixture
def d_big(tmp_path):
    f = tmp_path / "d.big"
    f.write_text("4 3\n0 1\n1 2\n0 2\n0 1\n")
    return str(f)


def test_verify_factor_of_big_roundtrip(capsys, tmp_path, d_big):
    cert = tmp_path / "d.bkf"
    code, _, _ = run(capsys, "factor", d_big, "-k", "2", "-o", str(cert))
    assert code == 0
    code, out, err = run(capsys, "verify", d_big, str(cert))
    assert (code, out, err) == (0, "accept\n", "")


def test_verify_big_rejects_pair_outside_row(capsys, tmp_path, d_big):
    cert = tmp_path / "d.bkf"
    cert.write_text("2 3\n0 0 2\n1 1 2\n2 0 1\n")  # X-row 0 is {0, 1}
    code, out, _ = run(capsys, "verify", d_big, str(cert))
    assert code == 1
    assert out == ("reject: containment violated: "
                   "(0, 2) not inside hyperedge 0\n")


def test_verify_big_with_isolated_x_is_input_error(capsys, tmp_path):
    big = tmp_path / "iso.big"
    big.write_text("2 2\n0 1\n\n")
    cert = tmp_path / "iso.bkf"
    cert.write_text("1 1\n0 0 1\n")
    code, out, err = run(capsys, "verify", str(big), str(cert))
    assert (code, out) == (2, "")
    assert "not hypergraph-representable" in err


def test_verify_barrier_roundtrip(capsys, tmp_path, star_hg):
    br = delta(incidence_graph(star(3)), [3], [], DegreeSpec(1))
    f = tmp_path / "b.bar"
    f.write_text(serialize_bar(br))
    code, out, _ = run(capsys, "verify", star_hg, str(f), "-k", "1")
    assert code == 0
    assert out == "accept: barrier delta=-2\n"
    # Comments and blank lines ahead of the header, and a blank line
    # ahead of the component lines, are skipped.
    head, comps = serialize_bar(br).split("\n\n", 1)
    f.write_text(f"# star(3)\n\n{head}\n\n\n{comps}")
    assert run(capsys, "verify", "-k", "1", star_hg, str(f)) == (
        0, "accept: barrier delta=-2\n", "")


def test_verify_barrier_requires_k(capsys, tmp_path, star_hg):
    br = delta(incidence_graph(star(3)), [3], [], DegreeSpec(1))
    f = tmp_path / "b.bar"
    f.write_text(serialize_bar(br))
    code, _, err = run(capsys, "verify", star_hg, str(f))
    assert code == 2
    assert "-k is required" in err
    for k in ("0", "9"):
        assert run(capsys, "verify", "-k", k, star_hg, str(f)) == (
            2, "", "error: k must be in 1..8\n")


def test_verify_barrier_rejects_wrong_delta(capsys, tmp_path, star_hg):
    # Also the right delta with one component misclassified, and pairs
    # that `delta` refuses: A and B overlapping, and an id past the graph.
    f = tmp_path / "b.bar"
    for text, want in (
            ("-1 1 0\n3\n\nodd 2 0 4\nodd 2 1 5\nodd 2 2 6\n",
             "reject: recomputed delta -2 != stated -1\n"),
            ("-2 1 0\n3\n\nodd 2 0 4\neven 2 1 5\nodd 2 2 6\n",
             "reject: component classification mismatch\n"),
            ("-2 1 1\n3\n3\n", "reject: A and B overlap\n"),
            ("-2 1 0\n9\n\n", "reject: vertex id outside 0..6\n")):
        f.write_text(text)
        assert run(capsys, "verify", star_hg, str(f), "-k", "1") == (
            1, want, "")


def test_verify_barrier_rejects_nonnegative(capsys, tmp_path, c5_hg):
    g = incidence_graph(cycle(5))
    br = delta(g, [], [], DegreeSpec(2))
    assert br.delta >= 0
    f = tmp_path / "b.bar"
    f.write_text(serialize_bar(br))
    code, out, _ = run(capsys, "verify", c5_hg, str(f), "-k", "2")
    assert code == 1
    assert "non-negative" in out


def test_verify_unknown_extension(capsys, tmp_path, c5_hg):
    f = tmp_path / "c.txt"
    f.write_text("")
    code, _, err = run(capsys, "verify", c5_hg, str(f))
    assert code == 2
    assert "unrecognized certificate extension" in err


# --------------------------------------------------------------- drivers


def test_theorem_exhaustive(capsys):
    code, out, _ = run(capsys, "theorem", "-k", "1", "--n-max", "3")
    assert code == 0
    assert "instances: 218 total, 6 eligible, 6 with factors" in out
    assert out.rstrip().endswith("result: PASS")


def test_theorem_flags_a_pass_over_no_eligible_instance(capsys):
    # n <= 2 < k + 1: no instance is eligible at k = 2; the exit code and
    # the porcelain lines stay those of a pass
    code, out, _ = run(capsys, "theorem", "-k", "2", "--n-max", "2")
    assert code == 0
    assert "instances: 8 total, 0 eligible, 0 with factors" in out
    assert out.rstrip().endswith("result: PASS (no eligible instance)")
    code, out, _ = run(capsys, "theorem", "-k", "2", "--n-max", "2",
                       "--porcelain")
    assert code == 0
    assert "eligible=0" in out.splitlines() and "PASS" not in out


def test_theorem_porcelain(capsys):
    code, out, _ = run(capsys, "theorem", "-k", "1", "--n-max", "3",
                       "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert "total=218" in lines
    assert "violations=0" in lines
    assert not any(ln.startswith("seed=") for ln in lines)


def test_theorem_random_porcelain(capsys):
    code, out, _ = run(capsys, "theorem", "-k", "2", "--n-max", "5",
                       "--trials", "40", "--seed", "9", "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert "total=40" in lines
    assert "eligible=2" in lines
    assert "factors=2" in lines
    assert "seed=9" in lines


def test_theorem_size_cap_is_usage_error(capsys):
    # n <= 5 is the exhaustive mode's range, not a budget: exit 2, and
    # no budget option raises it.
    code, out, err = run(capsys, "theorem", "-k", "1", "--n-max", "6")
    assert code == 2
    assert out == ""
    assert "exhaustive theorem verification supports n <= 5, got 6" in err
    code, _, err = run(capsys, "theorem", "-k", "1", "--n-max", "11",
                       "--trials", "1")
    assert code == 2
    assert "random theorem verification supports n <= 10, got 11" in err


def test_tightness_cli(capsys):
    code, out, _ = run(capsys, "tightness", "-k", "1", "--budget", "74",
                       "--n-max", "4")
    assert code == 0
    assert "best tau: 1/3" in out
    assert "barrier delta=" in out


def test_tightness_porcelain(capsys):
    code, out, _ = run(capsys, "tightness", "-k", "1", "--budget", "74",
                       "--n-max", "4", "--porcelain")
    assert code == 0
    assert "tau=1/3" in out.splitlines()


def test_tightness_porcelain_empty(capsys):
    code, out, _ = run(capsys, "tightness", "-k", "1", "--budget", "0",
                       "--n-max", "4", "--porcelain")
    assert code == 0
    assert "tau=none" in out.splitlines()
    code, out, _ = run(capsys, "tightness", "-k", "1", "--budget", "0",
                       "--n-max", "4")
    assert code == 0
    assert out.splitlines()[-1] == "best: none found"


# ------------------------------------------------------------ exit codes


def test_budget_exit_code(capsys, star_hg):
    code, _, err = run(capsys, "toughness", star_hg, "--enum-budget", "2")
    assert code == 3
    assert "budget" in err
    # factor finds no factor and no Y-vertex of degree below k, so the
    # barrier scan's refusal is the answer.
    assert run(capsys, "factor", star_hg, "-k", "1", "--enum-budget", "2") == (
        3, "", "error: criterion scan: instance size 7 exceeds enumeration "
        "budget 2 (pass a larger budget)\n")


def test_pair_budget_exit_code(capsys, tmp_path):
    # 18 vertices, inside the vertex budget, but 2^2 * 3^16 pairs.
    f = tmp_path / "wide.big"
    f.write_text(serialize_big(
        BipartiteGraph(2, 16, [tuple(range(16)), tuple(range(8))])))
    code, out, err = run(capsys, "criterion", str(f), "-k", "1")
    assert code == 3
    assert out == ""
    assert "pair budget" in err


def test_huge_enum_budget_costs_nothing(capsys, tmp_path):
    # The pair check clamps the budget to twice the host's size before
    # it builds its cap, so a budget of 10^9 answers like the default.
    f = tmp_path / "tiny.hg"
    f.write_text(serialize_hg(cycle(4)))
    src = str(Path(bergefactor.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bergefactor.cli", "criterion", "-k", "1",
         str(f), "--enum-budget", "1000000000"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(
        capsys, "criterion", "-k", "1", str(f))


@pytest.mark.parametrize("argv", [
    ["criterion", "{hg}", "-k", "1", "--enum-budget", "-1"],
    ["theorem", "-k", "1", "--n-max", "3", "--max-edges", "-1"],
    ["theorem", "-k", "1", "--n-max", "3", "--trials", "-3"],
    ["tightness", "-k", "1", "--budget", "-1"],
])
def test_negative_count_is_usage_error(capsys, star_hg, argv):
    code, out, err = run(capsys, *(a.format(hg=star_hg) for a in argv))
    assert code == 2
    assert out == ""
    assert "must be non-negative" in err


def test_count_option_keeps_int_parse_error(capsys):
    code, _, err = run(capsys, "tightness", "-k", "1", "--budget", "x")
    assert code == 2
    assert "invalid int value: 'x'" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "toughness", "/nonexistent/x.hg")
    assert code == 2
    assert "error" in err


def test_format_error_exit_code(capsys, tmp_path, star_hg):
    f = tmp_path / "bad.hg"
    f.write_text("1\n")
    code, _, err = run(capsys, "criterion", str(f), "-k", "1")
    assert code == 2
    # Inputs that break a rule of their format or of the command.
    bar = tmp_path / "b.bar"
    bar.write_text("-2 1 1\n3\n\nodd 2 0 4\nodd 2 1 5\nodd 2 2 6\n")
    big = tmp_path / "far.big"
    big.write_text("1 2\n5\n")
    empty = tmp_path / "empty.hg"
    empty.write_text("0 0\n")
    for argv, want in (
            (["verify", star_hg, str(bar), "-k", "1"],
             "|B| = 1 in header but 0 indices listed"),
            (["criterion", str(big), "-k", "1"],
             "X-vertex 0 has a neighbor outside 0..1: (5,)"),
            (["toughness", str(empty)],
             "toughness needs at least one vertex")):
        assert run(capsys, *argv) == (2, "", f"error: {want}\n")


def test_usage_error_exit_code(capsys):
    assert cli(["criterion"]) == 2  # missing required arguments
    assert cli(["no-such-command"]) == 2
    assert cli(["--help"]) == 0


def test_calls_in_one_process_share_the_parser_not_its_state(
        capsys, tmp_path, c5_hg):
    assert build_parser() is build_parser()
    # --biased on one call does not carry into the next.
    big = tmp_path / "h55.big"
    big.write_text(serialize_big(BipartiteGraph(
        5, 5, [(0, 2, 3, 4), (0, 1, 2), (1,), (4,), (1, 3, 4)])))
    code, out, _ = run(capsys, "barrier", str(big), "-k", "2", "--biased")
    assert (code, out.split(" ")[0]) == (0, "-4")
    code, out, _ = run(capsys, "barrier", str(big), "-k", "2")
    assert (code, out.split(" ")[0]) == (0, "-2")
    # Nor does -o.
    cert = tmp_path / "c5.bkf"
    code, out, _ = run(capsys, "factor", c5_hg, "-k", "2", "-o", str(cert))
    assert (code, out) == (0, f"certificate written to {cert}\n")
    code, out, _ = run(capsys, "factor", c5_hg, "-k", "2")
    assert (code, out) == (0, cert.read_text())
    # A usage error leaves the parser fit for the next call.
    assert run(capsys, "factor", c5_hg)[0] == 2
    assert run(capsys, "criterion", c5_hg, "-k", "2")[0] == 0


def test_console_entry_point(tmp_path):
    f = tmp_path / "c4.hg"
    f.write_text(serialize_hg(cycle(4)))
    # The child imports the package this test imported, installed or not.
    src = str(Path(bergefactor.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bergefactor.cli", "toughness", str(f)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert proc.stdout == "1/1\nwitness {0,2}\n"
