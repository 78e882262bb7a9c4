"""Poset file format, DOT export, and the command line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latcut
from conftest import posets
from latcut import (InvalidInterval, LatcutError, ParseError, UnknownLabel,
                    chain, cuttings, expand_poset, export_dot, filter_lattice,
                    parse_poset_file, poset_from_covers, write_poset_file)
from latcut.cli import cli_run
from latcut.verify import _CUTTING_TOPICS, _SUITES

DATA = Path(__file__).parent / "data"


def z3():
    return poset_from_covers(["a", "b", "c"], [("b", "a"), ("b", "c")])


# -- poset files ----------------------------------------------------------------------


def test_write_is_canonical():
    assert write_poset_file(z3()) == "element a b c\ncover b a\ncover b c\n"
    assert write_poset_file(poset_from_covers([], [])) == ""


def test_parse_write_round_trip():
    p = z3()
    q = parse_poset_file(write_poset_file(p))
    assert list(q.labels) == list(p.labels)
    assert q.cover_pairs() == p.cover_pairs()


def test_parse_accepts_comments_and_any_cover_order():
    text = ("# a zigzag\n"
            "element a b c   # bitstring order\n"
            "\n"
            "cover b c\n"
            "cover b a\n")
    p = parse_poset_file(text)
    assert write_poset_file(p) == write_poset_file(z3())


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_poset_file("element a b\nfrobnicate a\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_poset_file("element a b\ncover a\n")
    assert err.value.line == 2
    with pytest.raises(UnknownLabel) as err:
        parse_poset_file("element a b\n\ncover a z\n")
    assert "line 3" in str(err.value)


def test_parse_requires_declaration_before_use():
    with pytest.raises(UnknownLabel):
        parse_poset_file("cover a b\nelement a b\n")


def test_write_rejects_unrepresentable_labels():
    with pytest.raises(ValueError):
        write_poset_file(poset_from_covers(["a b"], []))
    # parse cuts every line at '#', so such a file would not read back.
    for label in ("#", "x#1", "#x", "x#"):
        with pytest.raises(ValueError, match="not representable"):
            write_poset_file(poset_from_covers([label, "y"], [("y", label)]))


# -- DOT export -----------------------------------------------------------------------


def test_dot_matches_golden():
    lat = filter_lattice(z3())
    assert export_dot(lat) == (DATA / "z3_lattice.dot").read_text()


def test_dot_grammar_lines():
    lat = filter_lattice(z3())
    lines = export_dot(lat).splitlines()
    assert lines[0] == "digraph lattice {"
    assert "  rankdir=BT;" in lines and "  node [shape=box];" in lines
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if "->" in ln) == 5
    assert sum(1 for ln in lines if "rank=same" in ln) == 4


def test_dot_single_element_lattice():
    lat = filter_lattice(poset_from_covers([], []))
    text = export_dot(lat)
    assert '"e";' in text and "->" not in text


def test_dot_single_interval_highlight():
    lat = filter_lattice(z3())
    text = export_dot(lat, lat.interval_by_strings("101", "000"))
    assert text.count("subgraph cluster_K {") == 1
    assert "K_copy" not in text
    assert 'label="K";' in text


def test_dot_expansion_highlight():
    lat = filter_lattice(z3())
    exp = expand_poset(lat, lat.interval_by_strings("101", "000"))
    text = export_dot(exp.lattice, exp.source_interval, exp.copy_interval)
    assert text.count("subgraph") == 2
    assert "cluster_K_copy" in text
    assert text.count("[style=dashed]") == 4
    # every element is drawn exactly once, inside or outside the clusters
    node_lines = [ln.strip() for ln in text.splitlines()
                  if ln.strip().endswith(";") and "->" not in ln
                  and "=" not in ln and ln.strip() != "node [shape=box];"]
    for a in range(exp.lattice.size):
        assert node_lines.count('"%s";' % exp.lattice.bitstring(a)) == 1


def test_dot_takes_a_plain_pair_as_its_interval():
    """Like every interval entry point, export_dot takes a (bottom, top)
    pair and validates it through ``interval_elements``."""
    lat = filter_lattice(z3())
    k = lat.interval_by_strings("101", "000")
    assert export_dot(lat, (k.bottom, k.top)) == export_dot(
        lat, lat.interval(k.bottom, k.top))
    with pytest.raises(InvalidInterval):
        export_dot(lat, (k.top, k.bottom))


def test_dot_refuses_a_third_interval():
    lat = filter_lattice(z3())
    with pytest.raises(ValueError, match="at most two intervals, got 3"):
        export_dot(lat, (0, 1), (0, 1), (0, 1))


# -- command line ---------------------------------------------------------------------


def run_cli(args, stdin_text="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli_run(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_family_then_stats(capsys, monkeypatch):
    code, out, _ = run_cli(["family", "fence", "3"], capsys=capsys)
    assert code == 0
    assert out == "element 1 2 3\ncover 2 1\ncover 2 3\n"
    code, stats_out, _ = run_cli(["stats"], stdin_text=out,
                                 capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    stats = json.loads(stats_out)
    assert stats["size"] == 5 and stats["q"] == [5, 5, 1]
    assert json.dumps(stats, sort_keys=True) + "\n" == stats_out


@pytest.mark.parametrize("kind,n", [("chain", -1), ("antichain", -1),
                                    ("fence", -1), ("crown", -4)])
def test_cli_family_refuses_a_negative_size(kind, n, capsys):
    code, out, err = run_cli(["family", kind, str(n)], capsys=capsys)
    assert (code, out, err) == (2, "", "error: n must not be negative, got %d\n"
                                % n)


@pytest.mark.parametrize("kind", ["chain", "antichain", "fence", "crown"])
def test_cli_family_refuses_a_size_past_the_bound_before_generating(
        kind, capsys, monkeypatch):
    import latcut.cli as cli

    # A regressed check would reach the generator, which here fails at once
    # instead of allocating n^2 bits.
    monkeypatch.setitem(cli._FAMILIES, kind, lambda n: pytest.fail(
        "family %s %d was generated" % (kind, n)))
    for n in (cli.ELEMENT_MAX + 1, 50000000):
        code, out, err = run_cli(["family", kind, str(n)], capsys=capsys)
        assert (code, out, err) == (
            2, "", "error: n must be at most 16384, got %d\n" % n)
    # The bound itself is generated.
    monkeypatch.setitem(cli._FAMILIES, kind, lambda n: z3())
    assert run_cli(["family", kind, str(cli.ELEMENT_MAX)],
                   capsys=capsys)[0] == 0


def test_cli_refuses_a_poset_file_past_the_bound_before_closing_it(
        capsys, monkeypatch):
    import latcut.fileio as fileio

    def chain_text(n):
        return ("element " + " ".join(map(str, range(n))) + "\n"
                + "".join("cover %d %d\n" % (i, i + 1) for i in range(n - 1)))

    # A regressed check would close the order relation, which here fails at
    # once instead of allocating n^2 bits.
    real = fileio.poset_from_covers
    monkeypatch.setattr(fileio, "poset_from_covers", lambda labels, covers:
                        pytest.fail("%d elements were closed" % len(labels)))
    assert run_cli(["stats"], stdin_text=chain_text(fileio.ELEMENT_MAX + 1),
                   capsys=capsys, monkeypatch=monkeypatch) == (
        2, "", "error: a poset file may declare at most %d elements, got %d\n"
        % (fileio.ELEMENT_MAX, fileio.ELEMENT_MAX + 1))
    # The bound itself is parsed: an antichain has no order relation to
    # close.
    monkeypatch.setattr(fileio, "poset_from_covers", real)
    text = "element " + " ".join(map(str, range(fileio.ELEMENT_MAX))) + "\n"
    assert parse_poset_file(text).n == fileio.ELEMENT_MAX


@pytest.mark.parametrize("kind", ["chain", "antichain", "fence"])
def test_cli_family_of_size_zero_is_the_empty_poset(kind, capsys):
    assert run_cli(["family", kind, "0"], capsys=capsys) == (0, "", "")


def test_cli_filters_and_mi(capsys, monkeypatch):
    poset_text = write_poset_file(z3())
    code, out, _ = run_cli(["filters"], stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["111", "101", "100", "001", "000"]
    code, out, _ = run_cli(["mi"], stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    # mi poset of the zigzag lattice is the zigzag again
    assert parse_poset_file(out).n == 3


def test_cli_lattice_json(capsys, monkeypatch):
    code, out, _ = run_cli(["lattice"], stdin_text=write_poset_file(z3()),
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 5
    assert doc["elements"][0] == "111" and doc["heights"] == [0, 1, 2, 2, 3]
    assert len(doc["covers"]) == 5


def test_cli_cutting_single_and_list(capsys, monkeypatch):
    poset_text = write_poset_file(z3())
    code, out, _ = run_cli(["cutting", "--bottom", "101", "--top", "000"],
                           stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert out == "cutting: true (chains,union,order,star agree)\n"
    code, out, _ = run_cli(["cutting"], stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert "101 000" in out
    # the one-sided flag pair is a usage error
    code, _, err = run_cli(["cutting", "--bottom", "101"],
                           stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2 and "error" in err


_STAR_DISSENTS = "chains=True union=True order=True star=False"


def test_cli_cutting_reports_a_disagreement_as_a_failed_property(
        negated_star, capsys, monkeypatch):
    code, out, err = run_cli(["cutting", "--bottom", "101", "--top", "000"],
                             stdin_text=write_poset_file(z3()),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (
        1, "", "error: verified property failed: %s\n" % _STAR_DISSENTS)


def test_cli_verify_cutting_equivalence_reports_a_disagreement(negated_star,
                                                                capsys):
    code, out, err = run_cli(["verify", "cutting-equivalence", "--trials",
                              "0", "--max-size", "1"], capsys=capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    # The one-element lattice of the empty poset is the smallest instance.
    at = lines.index("smallest failing instance:")
    assert lines[at + 1:at + 3] == [
        "FAIL cutting-equivalence: methods disagree on [e,e] (iso n=0)",
        _STAR_DISSENTS]


def test_cli_expand_pipes_back_in(capsys, monkeypatch):
    poset_text = write_poset_file(z3())
    code, out, _ = run_cli(["expand", "--bottom", "101", "--top", "000"],
                           stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    bigger = parse_poset_file(out)
    assert bigger.n == 4
    assert filter_lattice(bigger).size == 9


def test_cli_expand_refuses_a_label_the_poset_has(capsys, monkeypatch):
    # A label taken twice would write a file that no command reads back.
    fence3 = "element 1 2 3\ncover 2 1\ncover 2 3\n"
    code, out, err = run_cli(["expand", "--bottom", "101", "--top", "000",
                              "--label", "1"], stdin_text=fence3,
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: label '1' declared twice\n")


def test_cli_cutting_writes_its_listing_in_chunks(monkeypatch):
    # chain(100) has 5,151 cuttings: two writes of 4096 lines or fewer,
    # and together the bytes of the whole listing.
    lat = filter_lattice(chain(100))
    bits = [lat.bitstring(a) for a in range(lat.size)]
    listing = "".join("%s %s\n" % (bits[a], bits[b]) for a, b in cuttings(lat))

    class Recording:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    out = Recording()
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_poset_file(chain(100))))
    monkeypatch.setattr(sys, "stdout", out)
    assert cli_run(["cutting"]) == 0
    assert "".join(out.writes) == listing
    assert listing.count("\n") == 5151
    assert [w.count("\n") for w in out.writes] == [4096, 1055]


def test_cli_expand_rejects_non_cutting(capsys, monkeypatch):
    # a singleton atom of the Boolean square is not a cutting
    square = write_poset_file(poset_from_covers(["a", "b"], []))
    code, _, err = run_cli(["expand", "--bottom", "10", "--top", "10"],
                           stdin_text=square,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2 and "error" in err


def test_cli_decompose(capsys, monkeypatch):
    code, out, _ = run_cli(["decompose", "4"],
                           stdin_text="element 1 2 3 4 5\ncover 2 1\ncover 2 3"
                                      "\ncover 4 3\ncover 4 5\n",
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 13
    assert doc["host_size"] == 10 and doc["interval_size"] == 3
    assert doc["counts_ok"] and doc["expansion_iso_ok"]



def test_cli_decompose_a_long_chain(capsys, monkeypatch):
    """The isomorphism checks of a 1100-element chain run without a
    recursion as deep as the chain."""
    code, out, err = run_cli(["decompose", "550"],
                             stdin_text=write_poset_file(latcut.chain(1100)),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert '"expansion_iso_ok": true' in out

def test_cli_cube_commands(capsys, monkeypatch):
    code, out, _ = run_cli(["cube", "fibonacci", "2"], capsys=capsys)
    assert code == 0
    assert out == "00 01\n00 10\n"
    code, lucas_out, _ = run_cli(["cube", "lucas", "4"], capsys=capsys)
    assert code == 0
    assert len(lucas_out.splitlines()) == 8
    code, cover_out, _ = run_cli(["cube", "cover", "-"],
                                 stdin_text=write_poset_file(z3()),
                                 capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert len(cover_out.splitlines()) == 5


def test_cli_verify_smoke(capsys):
    code, out, _ = run_cli(["verify", "cutting-equivalence",
                            "--trials", "5", "--max-size", "4",
                            "--seed", "7"], capsys=capsys)
    assert code == 0
    assert "ok" in out


def test_cli_verify_cutting_equivalence_prints_the_same_bytes_twice(capsys):
    # Timings stay off stdout: the suite's time is in its `elapsed` field.
    argv = ["verify", "cutting-equivalence", "--trials", "2",
            "--max-size", "3", "--seed", "1"]
    first = run_cli(argv, capsys=capsys)
    assert run_cli(argv, capsys=capsys) == first
    assert first == (0, "suite cutting-equivalence: 125 checks, ok (seed=1)\n"
                        "posets=11 (iso classes <=3 plus 2 random <=3), "
                        "intervals=125, cuttings=97\n", "")


def test_cli_verify_max_size_bounds_the_exhaustive_layer(capsys):
    code, out, _ = run_cli(["verify", "euler", "--trials", "0",
                            "--max-size", "0"], capsys=capsys)
    assert code == 0
    assert out == ("suite euler: 2 checks, ok (seed=1)\n"
                   "posets=1 (iso classes <=0 plus 0 random <=0), "
                   "intervals=1, cuttings=1\n")
    code, out, _ = run_cli(["verify", "binomial", "--trials", "1",
                            "--max-size", "3"], capsys=capsys)
    assert code == 0
    assert "(iso classes <=3 plus 1 random <=3)" in out


@pytest.mark.parametrize("argv,message", [
    (["euler", "--trials", "0", "--max-size", "-2"],
     "--max-size must not be negative, got -2"),
    (["euler", "--trials", "-1"], "--trials must not be negative, got -1"),
    (["birkhoff", "--trials", "-1"], "--trials must not be negative, got -1"),
    (["random", "--max-size", "-1"],
     "--max-size must not be negative, got -1"),
    (["fibonacci", "--max", "-3"], "--max must not be negative, got -3"),
    (["lucas", "--max", "-1"], "--max must not be negative, got -1"),
    (["cubes", "--max", "-1"], "--max must not be negative, got -1"),
    # Past fileio.ELEMENT_MAX, the bound on every poset, before any draw.
    (["random", "--max-size", "16385"],
     "--max-size must be at most 16384, got 16385"),
    (["birkhoff", "--trials", "0", "--max-size", "100000"],
     "--max-size must be at most 16384, got 100000"),
    (["euler", "--max-size", "16385"],
     "--max-size must be at most 16384, got 16385"),
    # No random poset has 0 elements; --trials 0 draws none.
    (["random", "--max-size", "0"],
     "--max-size must be at least 1 unless --trials is 0"),
    (["birkhoff", "--max-size", "0"],
     "--max-size must be at least 1 unless --trials is 0"),
    (["euler", "--max-size", "0"],
     "--max-size must be at least 1 unless --trials is 0"),
    (["q-d-recurrences", "--trials", "1", "--max-size", "0"],
     "--max-size must be at least 1 unless --trials is 0"),
])
def test_cli_verify_rejects_negative_counts_and_sizes(argv, message, capsys):
    code, out, err = run_cli(["verify"] + argv, capsys=capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_cli_verify_takes_a_max_size_at_the_element_bound(capsys):
    code, out, err = run_cli(["verify", "random", "--trials", "0",
                              "--max-size", "16384"], capsys=capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "trials=0 max_size=16384 seed=2"


@pytest.mark.parametrize("suite,bound", [
    ("cubes", 40), ("fibonacci", 40), ("lucas", 40),
    # The first bounds whose largest lattice passes the cap: F(fence(29))
    # has fib(31) = 1346269 filters, F(crown(30)) has lucas(30) = 1860498.
    ("cubes", 29), ("fibonacci", 29), ("lucas", 30),
    # F(n + 2) and L(n) are compared with the cap without computing them.
    ("cubes", 1000000), ("fibonacci", 1000000), ("lucas", 1000000),
])
def test_cli_verify_refuses_an_oversized_family_before_any_work(suite, bound,
                                                                capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(["verify", suite, "--max", str(bound)],
                             capsys=capsys)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (2, "", "error: more than 1048576 filters\n")


@pytest.mark.parametrize("argv,message", [
    (["fibonacci", "1000000"],
     "Fibonacci cube of dimension 1000000 has more than 1048576 vertices"),
    (["lucas", "1000000"],
     "Lucas cube of dimension 1000000 has more than 1048576 vertices"),
    (["fibonacci", "40", "--cap", "5"],
     "Fibonacci cube of dimension 40 has more than 5 vertices"),
    (["fibonacci", "x"], "cube fibonacci wants an integer dimension, got 'x'"),
    (["lucas", "2.0"], "cube lucas wants an integer dimension, got '2.0'"),
])
def test_cli_cube_refuses_a_bad_or_oversized_dimension_before_any_work(
        argv, message, capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(["cube"] + argv, capsys=capsys)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_cli_verify_refuses_the_second_random_poset_of_a_wide_pool(capsys):
    # Seed 1000004 has 32 elements, 14,156 filters and 54,890 cuttings: one
    # expansion per cutting alone would take about half an hour.
    t0 = time.perf_counter()
    code, out, err = run_cli(["verify", "euler", "--max-size", "40",
                              "--trials", "2"], capsys=capsys)
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    assert err.startswith("error: the cutting pass refuses seed=1000004: "
                          "14156 lattice elements and at least 28311 "
                          "cuttings")


def test_cli_verify_refuses_a_random_draw_past_the_work_bound(capsys):
    # The first poset of the pool, seed 2000006, draws 14,031 elements, so
    # its 98,427,465 relation draws are refused before the first one.
    t0 = time.perf_counter()
    code, out, err = run_cli(["verify", "random", "--max-size", "16384",
                              "--trials", "3"], capsys=capsys)
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    assert err == ("error: random poset seed=2000006 draws 14031 elements: "
                   "98427465 relation draws, more than 8388608\n")


@pytest.mark.parametrize("big,sizes", [
    # Every interval holding L's bottom or top is a cutting, so at least
    # 2|L| - 1 are known before they are listed: 4095 * 2048 passes the
    # bound.
    (latcut.antichain(11), "2048 lattice elements and at least 4095 cuttings"),
    # 501 * 251 does not, but every interval of a chain is a cutting.
    (latcut.chain(250), "251 lattice elements and 31626 cuttings"),
    # The shortest chain past the early bound: 2829 * 1415 > 4,000,000.
    (latcut.chain(1414), "1415 lattice elements and at least 2829 cuttings"),
])
@pytest.mark.parametrize("topic", ["euler", "cutting-equivalence"])
def test_cli_verify_refuses_a_pooled_poset_past_the_pass_work(
        topic, big, sizes, capsys, monkeypatch):
    import latcut.verify as ver

    work, listed = [], []
    monkeypatch.setattr(ver, "_pool_iso", lambda n_max: [])
    monkeypatch.setattr(ver, "_pool_random",
                        lambda trials, max_size, seed: [("seed=7", big)])
    for name in ("expand_poset", "is_cutting"):
        monkeypatch.setattr(ver, name, lambda *args, **kw: work.append(args))
    monkeypatch.setattr(latcut.DistLattice, "above_masks", work.append)
    cuttings = ver.cuttings
    monkeypatch.setattr(ver, "cuttings",
                        lambda lat: listed.append(lat) or cuttings(lat))
    code, out, err = run_cli(["verify", topic], capsys=capsys)
    # Refused before the containment masks, the first vote or expansion,
    # and before the cuttings are listed when a lower bound suffices.
    assert (code, out, work) == (2, "", [])
    assert len(listed) == ("at least" not in sizes)
    assert err == ("error: the cutting pass refuses seed=7: %s, "
                   "cuttings*|L| past 4000000\n" % sizes)


@pytest.mark.parametrize("argv", [
    ["stats", "--cap", "-1"], ["filters", "--cap", "0"],
    ["cutting", "no-such-file", "--cap", "0"],
    ["cube", "fibonacci", "3", "--cap", "-7"],
    ["cube", "cover", "-", "--cap", "0"]],
    ids=lambda argv: " ".join(argv))
def test_cli_refuses_a_cap_below_one_before_reading_input(argv, capsys,
                                                           monkeypatch):
    class Unread:
        def read(self):
            pytest.fail("the input was read")

    monkeypatch.setattr(sys, "stdin", Unread())
    assert run_cli(argv, capsys=capsys) == (
        2, "", "error: --cap must be at least 1, got %s\n" % argv[-1])


@pytest.mark.parametrize("argv", [["verify", "cubes", "--cap", "5"],
                                  ["family", "fence", "3", "--cap", "1"]])
def test_cli_refuses_cap_where_no_cap_applies(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli_run(argv)
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert err.startswith("usage:")


@pytest.mark.parametrize("argv", [
    ["filters"], ["lattice"], ["mi"], ["cutting"],
    ["expand", "--bottom", "1", "--top", "1"], ["decompose", "a"], ["stats"],
    ["family", "fence", "3"], ["cube", "fibonacci", "2"], ["verify", "cubes"],
    ["export-dot"]], ids=lambda argv: argv[0])
def test_cli_refuses_out_on_every_subcommand(argv, capsys, tmp_path):
    # Stdout is the one output route.
    target = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as e:
        cli_run(argv + ["--out", str(target)])
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert err.startswith("usage:") and "--out" in err
    assert not target.exists()


# The family suites, which take --max alone, read off the suite table.
FAMILY_SUITES = tuple(name for name, suite in _SUITES.items()
                      if suite.flags == ("--max",))


@pytest.mark.parametrize("flag", ["--trials", "--max-size", "--seed", "--max"])
@pytest.mark.parametrize("suite", latcut.SUITE_NAMES)
def test_cli_verify_takes_exactly_the_flags_its_suite_reads(
        suite, flag, capsys, monkeypatch):
    """A family suite takes --max, the others --trials, --max-size and
    --seed.  A flag the suite takes changes its report; any other is
    refused before the suite starts."""
    import latcut.verify as ver

    small = ({"--max": 4} if suite in FAMILY_SUITES
             else {"--trials": 1, "--max-size": 2, "--seed": 3})

    def run(flags):
        argv = ["verify", suite]
        for name, value in flags.items():
            argv += [name, str(value)]
        return run_cli(argv, capsys=capsys)

    if flag in small:
        base, moved = run(small), run({**small, flag: small[flag] + 2})
        assert base[0] == moved[0] == 0 and base[2] == moved[2] == ""
        assert base[1] != moved[1]
        return
    started = []
    monkeypatch.setattr(ver, "SuiteResult",
                        lambda *args, **kw: started.append(args))
    assert run({**small, flag: 1}) == (
        2, "", "error: verify %s takes no %s\n" % (suite, flag))
    assert started == []


@pytest.mark.parametrize("suite,message", [
    ("random", "seed=2000014 (30 elements): more than 1048576 filters"),
    ("birkhoff", "seed=10 (37 elements): an antichain of 25 elements "
                 "forces more than 1048576 filters"),
], ids=["random", "birkhoff"])
def test_cli_verify_names_a_pooled_poset_past_the_filter_cap(suite, message,
                                                            capsys):
    code, out, err = run_cli(["verify", suite, "--max-size", "40",
                              "--trials", "20"], capsys=capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_cli_verify_degree_symmetry_reports_a_census_mismatch(capsys,
                                                             monkeypatch):
    monkeypatch.setattr("latcut.verify.antichain_census", lambda p: [0])
    code, out, err = run_cli(["verify", "degree-symmetry", "--trials", "0",
                              "--max-size", "1"], capsys=capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    at = lines.index("smallest failing instance:")
    assert lines[at + 1:at + 3] == [
        "FAIL degree-symmetry: degree vectors disagree (iso n=0)",
        "d_minus=[1] d_plus=[1] census=[0]"]


@pytest.mark.parametrize("suite,checks", [("birkhoff", 245), ("random", 2)])
def test_cli_verify_fails_each_poset_whose_round_trip_raises(
        suite, checks, capsys, monkeypatch):
    """A round trip that raises fails its poset, as any check that raises
    does, and the suite goes on to the next: a report, not a traceback."""
    def raising(lat):
        raise KeyError("planted")

    monkeypatch.setattr("latcut.verify.birkhoff_roundtrip", raising)
    code, out, err = run_cli(["verify", suite, "--trials", "2",
                              "--max-size", "3"], capsys=capsys)
    assert (code, err) == (1, "")
    assert out.startswith("suite %s: %d checks, %d FAILURES"
                          % (suite, checks, checks))
    at = out.index("smallest failing instance:\nFAIL %s: " % suite)
    assert "raised KeyError: 'planted'" in out[at:]


def test_cli_verify_cubes_reports_a_wrong_model(capsys, monkeypatch):
    real = latcut.fibonacci_cube
    monkeypatch.setattr("latcut.verify.fibonacci_cube",
                        lambda n: real(3 if n == 2 else n))
    code, out, err = run_cli(["verify", "cubes", "--max", "3"],
                             capsys=capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "suite cubes: 5 checks, 1 FAILURES"
    assert "fence n=2,vertices=3,FAIL" in lines
    assert "fence n=3,vertices=5,ok" in lines
    at = lines.index("smallest failing instance:")
    assert lines[at + 1] == "FAIL cubes: fibonacci cube mismatch at n=2"


def test_cli_export_dot_and_highlight(capsys, monkeypatch):
    poset_text = write_poset_file(z3())
    code, out, _ = run_cli(["export-dot"], stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert out == (DATA / "z3_lattice.dot").read_text()
    code, out, _ = run_cli(["export-dot", "--expand", "101,000"],
                           stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert out.count("[style=dashed]") == 4
    code, _, err = run_cli(["export-dot", "--highlight", "101,000",
                            "--expand", "101,000"],
                           stdin_text=poset_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2


def test_cli_export_dot_highlights_one_interval(capsys, monkeypatch):
    poset_text, lat = write_poset_file(z3()), filter_lattice(z3())
    code, out, err = run_cli(["export-dot", "--highlight", "101,000"],
                             stdin_text=poset_text,
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == export_dot(lat, lat.interval_by_strings("101", "000"))
    for flag in ("--highlight", "--expand"):
        assert run_cli(["export-dot", flag, "101"], stdin_text=poset_text,
                       capsys=capsys, monkeypatch=monkeypatch) == (
            2, "", "error: %s wants B,T\n" % flag)


@pytest.mark.parametrize("argv,message", [
    (["cutting", "--bottom", "1"], "--bottom and --top go together"),
    (["export-dot", "--highlight", "101"], "--highlight wants B,T"),
    (["export-dot", "--expand", "101"], "--expand wants B,T"),
    (["export-dot", "--highlight", "101,000", "--expand", "101,000"],
     "--highlight and --expand are exclusive"),
    (["export-dot", "--highlight", ""], "--highlight wants B,T"),
    (["export-dot", "--expand", ""], "--expand wants B,T"),
    (["export-dot", "--highlight", "", "--expand", "101,000"],
     "--highlight and --expand are exclusive"),
])
def test_cli_usage_errors_exit_before_the_input_is_read(argv, message, capsys,
                                                        monkeypatch):
    # The input does not parse, so an error raised after reading it would
    # be the parse error; the stream's position shows it was not read.
    stdin = io.StringIO("cover a b\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_cli(argv, capsys=capsys) == (2, "", "error: %s\n" % message)
    assert stdin.tell() == 0


def test_cli_error_exit_codes(capsys, monkeypatch):
    code, _, err = run_cli(["stats"], stdin_text="cover a b\n",
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(["stats", "/no/such/file"], capsys=capsys)
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(["family", "crown", "5"], capsys=capsys)
    assert code == 2 and err.startswith("error:")


def test_cli_outputs_are_deterministic(capsys, monkeypatch):
    first = second = None
    for attempt in range(2):
        code, out, _ = run_cli(["family", "crown", "6"], capsys=capsys)
        assert code == 0
        code, out, _ = run_cli(["stats"], stdin_text=out,
                               capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        if attempt == 0:
            first = out
        else:
            second = out
    assert first == second


def test_cli_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "latcut", "family",
                           "fence", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "element 1 2 3\ncover 2 1\ncover 2 3\n"


def test_cli_reuses_one_parser_and_prints_what_fresh_processes_print(
        capsys, monkeypatch):
    """A usage error, then a successful stats, in one process: the parser is
    built once and each call prints what a fresh ``latcut`` process does."""
    monkeypatch.setenv("COLUMNS", "80")
    build, builds = latcut.cli.build_parser, []
    monkeypatch.setattr(latcut.cli, "build_parser",
                        lambda: builds.append(1) or build())
    latcut.cli._parser.cache_clear()
    fence3 = "element 1 2 3\ncover 2 1\ncover 2 3\n"
    got = []
    for argv, stdin_text in ((["stats", "--cap", "x"], ""),
                             (["stats"], fence3)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        try:
            code = cli_run(argv)
        except SystemExit as e:
            code = e.code
        fresh = subprocess.run([sys.executable, "-m", "latcut", *argv],
                               input=stdin_text, capture_output=True,
                               text=True, env=dict(os.environ, COLUMNS="80"))
        got.append(((code, *capsys.readouterr()),
                    (fresh.returncode, fresh.stdout, fresh.stderr)))
    assert len(builds) == 1
    (usage, usage_fresh), (stats, stats_fresh) = got
    assert usage == usage_fresh
    assert usage[0] == 2 and "invalid int value: 'x'" in usage[2]
    assert stats == stats_fresh
    assert stats[0] == 0 and json.loads(stats[1])["size"] == 5


def _planted_failure(*_args):
    raise AssertionError("planted failure")


@pytest.mark.parametrize("target,replacement,argv", [
    # an expansion step that fails inside `decompose`'s round trip
    ("latcut.expansion._candidate_expansion", _planted_failure,
     ["decompose", "b"]),
    # a boundary check that fails inside the order criterion's vote
    ("latcut.expansion._boundary", _planted_failure,
     ["cutting", "--bottom", "101", "--top", "000"]),
])
def test_cli_reports_failed_cross_checks_without_traceback(
        target, replacement, argv, capsys, monkeypatch):
    monkeypatch.setattr(target, replacement)
    code, out, err = run_cli(argv, stdin_text=write_poset_file(z3()),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: verified property failed: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_verify_random_records_a_q_disagreement_per_poset(capsys,
                                                             monkeypatch):
    # A census that disagrees with its recurrence fails that poset, and
    # the suite goes on to name the smallest failing one.
    monkeypatch.setattr("latcut.invariants._q_recurrence", lambda p: [0])
    code, out, err = run_cli(["verify", "random", "--trials", "3"],
                             capsys=capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "suite random: 3 checks, 3 FAILURES (seed=2)"
    assert "smallest failing instance:" in lines
    assert lines[lines.index("smallest failing instance:") + 2].startswith(
        "recurrence [0] disagrees with census ")


@pytest.mark.parametrize("suite,max_param,lines", [
    ("fibonacci", "4", ["m=2,n=2,FAIL", "m=2,n=3,FAIL", "m=3,n=2,FAIL",
                        "m=2,n=4,FAIL", "m=3,n=3,FAIL", "m=4,n=2,FAIL"]),
    ("lucas", "6", ["n=2,size=?,FAIL", "n=3,size=?,FAIL"]),
])
def test_cli_verify_family_suites_record_a_q_disagreement_per_case(
        suite, max_param, lines, capsys, monkeypatch):
    # As in the random suite: the disagreement fails its case, and the
    # suite goes on to the next one and names the smallest failing one.
    # The disagreement raises inside the lucas report, so no size was
    # measured: the line prints "?".
    monkeypatch.setattr("latcut.invariants._q_recurrence", lambda p: [0])
    code, out, err = run_cli(["verify", suite, "--max", max_param],
                             capsys=capsys)
    assert code == 1 and err == ""
    report = out.splitlines()
    assert report[0] == "suite %s: %d checks, %d FAILURES" % (
        suite, len(lines), len(lines))
    assert report[1:len(lines) + 1] == lines
    at = report.index("smallest failing instance:")
    assert report[at + 2].startswith("recurrence [0] disagrees with census ")


def test_public_names_resolve():
    assert len(set(latcut.__all__)) == len(latcut.__all__)
    for name in latcut.__all__:
        assert not isinstance(getattr(latcut, name), type(latcut)), name
    assert "cuttings" in latcut.__all__ and "expansion" not in latcut.__all__


# -- fuzzing the file format and the command line ----------------------------------

# Garbage lines draw their labels from six names, so whatever parses has at
# most six elements and no draw starts a large enumeration.
_WORDS = ["element", "cover", "a", "b", "c", "d", "1", "2", "#", "elem", "\t"]
_POSET_TEXT = st.one_of(
    posets(max_n=5).map(write_poset_file),
    st.lists(st.lists(st.sampled_from(_WORDS), max_size=5).map(" ".join),
             max_size=6).map("\n".join),
    st.text(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(_POSET_TEXT)
def test_fuzz_parse_raises_only_latcut_errors(text):
    try:
        p = parse_poset_file(text)
    except LatcutError:
        return
    assert parse_poset_file(write_poset_file(p)) == p


_INPUT_COMMANDS = ("filters", "lattice", "mi", "stats", "cutting", "expand",
                   "decompose", "export-dot")
_BITS = st.text(alphabet="01e,", max_size=5)
_SMALL = st.integers(min_value=-3, max_value=12).map(str)
_LABEL = st.sampled_from(["a", "b", "1", "2", "zz"])
_GARBAGE = st.sampled_from(["--cap", "--bottom", "--top", "-1", "0", "x",
                            "--nope", "fence", ""])


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(_INPUT_COMMANDS
                               + ("family", "cube", "verify", "nope")))
    argv = [cmd]
    if cmd in _INPUT_COMMANDS:
        argv.append(draw(st.sampled_from(["-", "-", "-", "no-such-file"])))
    if cmd in ("cutting", "expand"):
        for flag in ("--bottom", "--top"):
            if cmd == "expand" or draw(st.booleans()):
                argv += [flag, draw(_BITS)]
        if cmd == "expand" and draw(st.booleans()):
            argv += ["--label", draw(_LABEL)]
    elif cmd == "decompose":
        argv.append(draw(_LABEL))
    elif cmd == "export-dot":
        for flag in ("--highlight", "--expand"):
            if draw(st.booleans()):
                argv += [flag, draw(_BITS)]
    elif cmd == "family":
        argv += [draw(st.sampled_from(["fence", "crown", "chain",
                                       "antichain", "wheel"])), draw(_SMALL)]
    elif cmd == "cube":
        kind = draw(st.sampled_from(["fibonacci", "lucas", "cover", "torus"]))
        argv += [kind, draw(st.one_of(_SMALL, st.sampled_from(["-", "x"])))]
    elif cmd == "verify":
        suite = draw(st.sampled_from([*_SUITES, "nope"]))
        argv.append(suite)
        # Only the suite's own flags are drawn; the refusal of any other is
        # test_cli_verify_takes_exactly_the_flags_its_suite_reads.  A
        # cutting suite walks every poset up to min(5, --max-size) elements
        # and 200 random ones by default, so it always gets a small
        # --max-size and --trials.  A family suite runs up to fence(16) by
        # default, so it always gets a small --max.
        cutting = suite in _CUTTING_TOPICS
        family = suite in FAMILY_SUITES
        flags = ((("--max", 8),) if family else
                 (("--trials", 3), ("--max-size", 3 if cutting else 5),
                  ("--seed", 9)))
        for flag, hi in flags:
            if family or cutting and flag != "--seed" or draw(st.booleans()):
                argv += [flag, str(draw(st.integers(min_value=-2,
                                                    max_value=hi)))]
    if draw(st.booleans()):
        argv += ["--cap", str(draw(st.integers(min_value=-2, max_value=64)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.append(draw(_GARBAGE))
    return argv


# The zigzag b < a, b < c, whose intervals [100, 100] and [001, 001] are
# the two that some maximal chain avoids.
_Z3_TEXT = "element a b c\ncover b a\ncover b c\n"


@settings(max_examples=200, deadline=None)
@given(_argv(), _POSET_TEXT)
@example(["cutting", "-", "--bottom", "100", "--top", "100"], _Z3_TEXT)
@example(["cutting", "-", "--bottom", "001", "--top", "001"], _Z3_TEXT)
def test_fuzz_cli_exits_cleanly(argv, stdin_text):
    """No exception escapes ``cli_run``.  Bad input is exit 2 with one
    message on stderr; exit 1 would mean that a verified property failed,
    which these small inputs must never do.  The two examples run on every
    run: ``cutting`` on an interval that is not a cutting, where all four
    criteria must say no (the star criterion through the candidate
    expansion's transitivity test)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_run(argv)
            except SystemExit as e:     # argparse rejects the argv
                code = e.code
    finally:
        sys.stdin = saved
    err = err.getvalue()
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(("error: ", "usage: ")), (argv, err)
