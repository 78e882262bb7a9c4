"""Zigzag and crown generators, Fibonacci/Lucas counts, cube graphs."""

import time
from itertools import combinations, product

import pytest

import oracles
from latcut import (CapacityExceeded, DistLattice, OddSize, antichain, chain,
                    cover_cube, crown, fence, fib, fibonacci_cube,
                    filter_lattice,
                    graph_isomorphic, lucas, lucas_cube,
                    verify_fibonacci_decomposition,
                    verify_lucas_decomposition)
from latcut.cli import cli_run
from latcut.invariants import poly_eval
from latcut.poset import FILTER_CAP
from latcut.verify import verify_fibonacci


# -- poset generators -----------------------------------------------------------------


def test_chain_and_antichain():
    assert filter_lattice(chain(3)).size == 4
    assert filter_lattice(antichain(3)).size == 8
    assert chain(0).n == 0 and antichain(0).n == 0


def test_fence_shape():
    p = fence(4)
    assert list(p.labels) == ["1", "2", "3", "4"]
    assert set(p.cover_pairs()) == {("2", "1"), ("2", "3"), ("4", "3")}
    assert fence(1).cover_pairs() == []
    assert fence(0).n == 0


def test_crown_shape():
    p = crown(4)
    assert set(p.cover_pairs()) == {("2", "1"), ("2", "3"),
                                    ("4", "3"), ("4", "1")}
    with pytest.raises(OddSize):
        crown(5)
    with pytest.raises(ValueError):
        crown(2)


def test_fence_filter_counts_are_fibonacci():
    for n in range(9):
        assert filter_lattice(fence(n)).size == fib(n + 2)


def test_crown_filter_counts_are_lucas():
    for two_n in (4, 6, 8):
        assert filter_lattice(crown(two_n)).size == lucas(two_n)


# -- number sequences -----------------------------------------------------------------


def test_fibonacci_numbers():
    assert [fib(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fib(-1)


def test_lucas_numbers():
    assert [lucas(i) for i in range(9)] == [2, 1, 3, 4, 7, 11, 18, 29, 47]
    assert lucas(6) == fib(7) + fib(5)
    with pytest.raises(ValueError):
        lucas(-1)


# -- cube graphs ----------------------------------------------------------------------


def test_fibonacci_cube_small():
    g = fibonacci_cube(3)
    assert g.vertices == ("000", "001", "010", "100", "101")
    assert g.vertex_count == 5 and g.edge_count == 5
    assert fibonacci_cube(0).vertex_count == 1
    assert fibonacci_cube(1).edge_list_text() == "0 1\n"
    with pytest.raises(ValueError):
        fibonacci_cube(-1)


def test_lucas_cube_small():
    g = lucas_cube(4)
    assert g.vertex_count == 7 and g.edge_count == 8
    assert "1001" not in g.vertices and "0101" in g.vertices
    with pytest.raises(OddSize):
        lucas_cube(3)


def test_cube_vertex_counts_follow_the_sequences():
    for n in range(8):
        assert fibonacci_cube(n).vertex_count == fib(n + 2)
    for two_n in (4, 6, 8):
        assert lucas_cube(two_n).vertex_count == lucas(two_n)


def string_cube(n, cyclic):
    """Sorted vertices and sorted edges of the cube on length-n strings
    without "11" (nor a 1 at both ends when ``cyclic``), by brute force."""
    verts = sorted(s for s in ("".join(t) for t in product("01", repeat=n))
                   if "11" not in s
                   and not (cyclic and n and s[0] == s[-1] == "1"))
    edges = [(u, v) for u, v in combinations(verts, 2)
             if sum(a != b for a, b in zip(u, v)) == 1]
    return tuple(verts), tuple(sorted(edges))


def test_cube_lists_match_brute_force_up_to_12():
    for n in range(13):
        g = fibonacci_cube(n)
        assert (g.vertices, g.edges) == string_cube(n, cyclic=False), n
    for two_n in range(2, 13, 2):
        g = lucas_cube(two_n)
        assert (g.vertices, g.edges) == string_cube(two_n, cyclic=True), two_n


def test_cube_caps_are_exact():
    assert fibonacci_cube(10, cap=fib(12)).vertex_count == fib(12)
    with pytest.raises(CapacityExceeded):
        fibonacci_cube(10, cap=fib(12) - 1)
    assert lucas_cube(10, cap=lucas(10)).vertex_count == lucas(10)
    with pytest.raises(CapacityExceeded):
        lucas_cube(10, cap=lucas(10) - 1)


@pytest.mark.parametrize("kind", ["fibonacci", "lucas"])
def test_cli_cube_refuses_beyond_the_cap_at_once(kind, capsys):
    t0 = time.perf_counter()
    code = cli_run(["cube", kind, "60", "--cap", "1000"])
    assert code == 2 and time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_covering_graphs_are_the_cubes():
    assert graph_isomorphic(cover_cube(filter_lattice(fence(4))),
                            fibonacci_cube(4))
    assert graph_isomorphic(cover_cube(filter_lattice(crown(4))),
                            lucas_cube(4))


def test_graph_isomorphism_edges_and_caps():
    g = fibonacci_cube(2)
    assert graph_isomorphic(g, g)
    triangle = [("a", "b"), ("b", "c"), ("a", "c")]
    assert not graph_isomorphic(g, triangle)
    with pytest.raises(CapacityExceeded):
        graph_isomorphic(fibonacci_cube(3), fibonacci_cube(3), cap=2)


def test_cover_cube_edges_match_naive_covers():
    lat = filter_lattice(fence(3))
    g = cover_cube(lat)
    want = {tuple(sorted((lat.bitstring(a), lat.bitstring(b))))
            for a, b in oracles.naive_covers(lat)}
    assert set(g.edges) == want


# -- deletion identities --------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (4, 3), (3, 4),
                                 (5, 4), (5, 5)])
def test_fence_deletion_reports(m, n):
    rep = verify_fibonacci_decomposition(m, n)
    assert rep.ok
    assert rep.lattice_size == fib(m + n)


def test_fence_deletion_worked_case():
    rep = verify_fibonacci_decomposition(4, 3)
    assert rep.lattice_size == 13
    assert fib(7) == fib(4) * fib(4) + fib(3) * fib(3) == 13
    assert rep.q[0] == 13
    assert poly_eval(list(rep.q), -1) == 1
    with pytest.raises(ValueError):
        verify_fibonacci_decomposition(1, 3)


def test_fence_deletion_takes_the_rebuilt_lattice():
    direct = filter_lattice(fence(7))
    for m in range(2, 8):
        assert verify_fibonacci_decomposition(9 - m, m, direct=direct) == \
            verify_fibonacci_decomposition(9 - m, m)


def test_fibonacci_suite_rebuilds_each_fence_once(monkeypatch):
    import latcut.verify as ver

    built = []
    real = ver.filter_lattice

    def counting(p, cap=FILTER_CAP):
        built.append(p.n)
        return real(p, cap)

    monkeypatch.setattr(ver, "filter_lattice", counting)
    res = verify_fibonacci(max_s=6)
    assert res.ok and res.checks == 15
    assert built == [2, 3, 4, 5, 6]
    assert res.report().splitlines()[1:4] == ["m=2,n=2,ok", "m=2,n=3,ok",
                                              "m=3,n=2,ok"]


def test_fence_deletion_catches_a_wrong_direct_lattice():
    # F(fence(s - 1)) in place of F(fence(s)): only the q comparison sees it.
    rep = verify_fibonacci_decomposition(4, 3, direct=filter_lattice(fence(4)))
    assert rep.q_identity_ok is False and not rep.ok
    assert rep.count_ok and rep.identity_ok and rep.expansion_ok
    assert rep.q == verify_fibonacci_decomposition(4, 3).q


def test_crown_deletion_compares_the_dual_star_with_the_interval_q(monkeypatch):
    # A wrong interval lattice breaks the q recurrence, and dual_q_ok, which
    # compares the interval's own q with that of the dual star, sees it too.
    assert verify_lucas_decomposition(3).dual_q_ok
    monkeypatch.setattr(DistLattice, "interval_lattice",
                        lambda self, k: filter_lattice(antichain(1)))
    rep = verify_lucas_decomposition(3)
    assert rep.dual_q_ok is False and rep.q_identity_ok is False
    assert rep.count_ok and rep.expansion_ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crown_deletion_reports(n):
    rep = verify_lucas_decomposition(n)
    assert rep.ok
    assert rep.lattice_size == lucas(2 * n)


def test_crown_deletion_worked_case():
    rep = verify_lucas_decomposition(2)
    assert rep.lattice_size == 7
    assert rep.q == (7, 8, 2)
    assert rep.euler_ok
    with pytest.raises(ValueError):
        verify_lucas_decomposition(1)
