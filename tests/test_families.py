"""Zigzag and crown generators, Fibonacci/Lucas counts, cube graphs."""

import contextlib
import dataclasses
import random
import time
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets
from latcut import (CapacityExceeded, CubeGraph, DistLattice, FamilyReport,
                    OddSize, antichain, chain, cover_cube, crown, decompose,
                    fence, fib, fibonacci_cube, filter_lattice,
                    graph_isomorphic, lucas, lucas_cube, posets_up_to_iso,
                    verify_fibonacci_decomposition,
                    verify_lucas_decomposition)
from latcut import families, invariants, poset
from latcut.cli import cli_run
from latcut.families import GRAPH_ISO_CAP, _zigzag_translate
from latcut.invariants import poly_eval, q_vector
from latcut.verify import verify_cubes, verify_fibonacci, verify_lucas


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


def test_fence_and_crown_equal_their_covers_construction():
    # Built from masks with no closure, labels, up and down masks alike.
    for n in range(41):
        p, q = fence(n), oracles.fence_by_covers(n)
        assert (p.labels, p.up, p.down) == (q.labels, q.up, q.down), n
    for two_n in range(4, 41, 2):
        p, q = crown(two_n), oracles.crown_by_covers(two_n)
        assert (p.labels, p.up, p.down) == (q.labels, q.up, q.down), two_n


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


def _code(s):
    """The code of a binary string: character i is bit i."""
    return sum(1 << i for i, c in enumerate(s) if c == "1")


def _string(code, dim):
    """The length-``dim`` string of a code, written out bit by bit."""
    return "".join("01"[code >> i & 1] for i in range(dim))


def _names(g):
    """The vertices of CubeGraph ``g`` as strings and its edges as pairs of
    strings in g's own (u, v) order; each list sorted."""
    name = {v: _string(v, g.dim) for v in g.vertices}
    return (tuple(sorted(name.values())),
            tuple(sorted((name[u], name[v]) for u, v in g.edges)))


def test_fibonacci_cube_small():
    g = fibonacci_cube(3)
    assert g.vertices == (0, 1, 2, 4, 5)
    assert _names(g)[0] == ("000", "001", "010", "100", "101")
    assert g.vertex_count == 5 and g.edge_count == 5
    assert fibonacci_cube(0).vertex_count == 1
    assert fibonacci_cube(1).edge_list_text() == "0 1\n"
    with pytest.raises(ValueError):
        fibonacci_cube(-1)


def test_lucas_cube_small():
    g = lucas_cube(4)
    assert g.vertex_count == 7 and g.edge_count == 8
    assert _code("1001") not in g.vertices and _code("0101") in g.vertices
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
        assert _names(g) == string_cube(n, cyclic=False), n
        assert (list(g.vertices), list(g.edges)) == (sorted(g.vertices),
                                                     sorted(g.edges))
    for two_n in range(2, 13, 2):
        g = lucas_cube(two_n)
        assert _names(g) == string_cube(two_n, cyclic=True), two_n
        assert (list(g.vertices), list(g.edges)) == (sorted(g.vertices),
                                                     sorted(g.edges))


def test_cube_caps_are_exact():
    assert fibonacci_cube(10, cap=fib(12)).vertex_count == fib(12)
    with pytest.raises(CapacityExceeded):
        fibonacci_cube(10, cap=fib(12) - 1)
    assert lucas_cube(10, cap=lucas(10)).vertex_count == lucas(10)
    with pytest.raises(CapacityExceeded):
        lucas_cube(10, cap=lucas(10) - 1)


@pytest.mark.parametrize("kind", ["fibonacci", "lucas"])
def test_the_cube_of_dimension_0_fits_a_cap_of_1(kind, capsys):
    # The empty string alone, for the Lucas cube too, though L(0) = 2.
    assert fibonacci_cube(0, cap=1).vertex_count == 1
    assert lucas_cube(0, cap=1).vertex_count == 1
    assert cli_run(["cube", kind, "0", "--cap", "1"]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("kind", ["fibonacci", "lucas"])
def test_cli_cube_refuses_beyond_the_cap_at_once(kind, capsys):
    t0 = time.perf_counter()
    code = cli_run(["cube", kind, "60", "--cap", "1000"])
    assert code == 2 and time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_covering_graphs_are_the_cubes():
    """The search and the zigzag certificate of the verify suites agree."""
    for n in range(13):
        g, model = cover_cube(filter_lattice(fence(n))), fibonacci_cube(n)
        assert graph_isomorphic(g, model)
        assert _zigzag_translate(g) == model, n
    for two_n in range(4, 13, 2):
        g, model = cover_cube(filter_lattice(crown(two_n))), lucas_cube(two_n)
        assert graph_isomorphic(g, model)
        assert _zigzag_translate(g) == model, two_n


def test_graph_isomorphism_edges_and_caps(monkeypatch):
    g = fibonacci_cube(2)
    assert graph_isomorphic(g, g)
    triangle = _graph([("a", "b"), ("b", "c"), ("a", "c")])
    assert not graph_isomorphic(g, triangle)
    # A 4-cycle with a pendant vertex and a triangle with a pendant path
    # share a degree sequence.
    c4_pendant = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
    triangle_path = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]
    assert not graph_isomorphic(_graph(c4_pendant), _graph(triangle_path))
    # The backtrack itself refuses, before it orders any vertex, graphs
    # that no map joins: unequal vertex counts, and an edgeless pair
    # against an edge, whose degree multisets differ.
    monkeypatch.setattr(poset, "_placement_order",
                        lambda *args: pytest.fail("placed"))
    for near_g, near_h in (([0], [0, 0]), ([0, 0], [0b10, 0b01])):
        sig_g, sig_h = ([m.bit_count() for m in near]
                        for near in (near_g, near_h))
        assert poset._backtrack(near_g, near_g, near_h, near_h,
                                sig_g, sig_h) is None
    # 610 vertices, past GRAPH_ISO_CAP: refused before either graph is
    # read, whichever side is over the cap.
    big = fibonacci_cube(13)
    monkeypatch.setattr(families, "_backtrack",
                        lambda *args: pytest.fail("searched past the cap"))
    unread = dataclasses.replace(big, edges=_Unread())
    for pair in ((big, unread), (g, unread), (unread, g)):
        with pytest.raises(CapacityExceeded,
                           match="graph isomorphism capped at 400 vertices"):
            graph_isomorphic(*pair)


class _Unread(tuple):
    """An edge tuple that fails the test when anything iterates it."""

    def __iter__(self):
        pytest.fail("read a graph past the cap")


# -- graph isomorphism against networkx --------------------------------------------


def _graph(edges, vertices=()):
    """The CubeGraph of ``edges`` on ``vertices`` and then every endpoint
    not among them, each named by its int code 0, 1, ... in that order; a
    networkx graph ``g`` goes in as ``_graph(g.edges, g.nodes)``."""
    names = dict.fromkeys(vertices)
    for e in edges:
        names.update(dict.fromkeys(e))
    code = {x: i for i, x in enumerate(names)}
    return CubeGraph(dim=len(code).bit_length(),
                     vertices=tuple(code.values()),
                     edges=tuple((code[u], code[v]) for u, v in edges))


def _relabelled(g, rng):
    """A networkx copy of ``g`` on shuffled vertex names, with its vertices
    and edges listed in random order, so that the i-th vertex of the copy
    is not the image of the i-th vertex of ``g``."""
    names = list(g.nodes())
    rng.shuffle(names)
    name = dict(zip(g.nodes(), names))
    edges = [(name[u], name[v]) for u, v in g.edges()]
    rng.shuffle(edges)
    h = nx.Graph()
    h.add_nodes_from(rng.sample(names, len(names)))
    h.add_edges_from(edges)
    return h


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(e for e, bit in zip(pairs, bits) if bit)
    return g


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_graph_isomorphic_agrees_with_networkx_on_small_graphs(g, rng):
    as_cube = _graph(g.edges, g.nodes)
    h = _relabelled(g, rng)
    assert graph_isomorphic(as_cube, _graph(h.edges, h.nodes))
    if g.number_of_edges() >= 2 and g.number_of_nodes() >= 4:
        # a degree-preserving double-edge swap, isomorphic or not
        with contextlib.suppress(nx.NetworkXAlgorithmError):
            nx.double_edge_swap(h, nswap=1, max_tries=100,
                                seed=rng.randrange(2 ** 32))
    assert (graph_isomorphic(as_cube, _graph(h.edges, h.nodes))
            == nx.is_isomorphic(g, h))


@st.composite
def regular_graphs(draw):
    """A random 2- or 3-regular graph on 4 to 12 vertices, where colour
    refinement from the degrees splits nothing."""
    degree = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from(range(4, 13, degree - 1)))
    return nx.random_regular_graph(degree, n, seed=draw(st.integers(0, 999)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), regular_graphs()),
       st.integers(min_value=1, max_value=3),
       st.randoms(use_true_random=False))
def test_search_maps_keep_edges_on_equal_degree_sequences(g, swaps, rng):
    """A random graph against a relabelled copy after up to ``swaps``
    degree-preserving double-edge swaps: equal degree sequences, isomorphic
    or not.  graph_isomorphic gives networkx's verdict, and a map that
    the backtrack returns is a bijection that sends the edges of g onto
    those of h.  Tuple signatures, as _profile gives, place exactly as the
    degrees they stand for: only their equality and how often each occurs
    choose the placements."""
    h = _relabelled(g, rng)
    if g.number_of_edges() >= 2 and g.number_of_nodes() >= 4:
        with contextlib.suppress(nx.NetworkXAlgorithmError):
            nx.double_edge_swap(h, nswap=swaps, max_tries=100,
                                seed=rng.randrange(2 ** 32))
    g_cube, h_cube = _graph(g.edges, g.nodes), _graph(h.edges, h.nodes)
    want = nx.is_isomorphic(g, h)
    assert graph_isomorphic(g_cube, h_cube) == want
    adj_g, adj_h = _neighbour_lists(g), _neighbour_lists(h)
    near_g, near_h = _masks(adj_g), _masks(adj_h)
    deg_g, deg_h = ([m.bit_count() for m in near] for near in (near_g, near_h))
    assert sorted(deg_g) == sorted(deg_h)
    f = poset._backtrack(near_g, near_g, near_h, near_h, deg_g, deg_h)
    assert (f is not None) == want
    assert f == poset._backtrack(near_g, near_g, near_h, near_h,
                                 [(d, d) for d in deg_g],
                                 [(d, d) for d in deg_h])
    if f is not None:
        assert sorted(f) == list(range(len(adj_g)))
        assert ({frozenset((f[a], f[b])) for a, nbrs in enumerate(adj_g)
                 for b in nbrs}
                == {frozenset((a, b)) for a, nbrs in enumerate(adj_h)
                    for b in nbrs})


def _neighbour_lists(g):
    """The neighbours of each node of networkx graph ``g`` as positions in
    g.nodes()."""
    index = {x: i for i, x in enumerate(g.nodes())}
    return [[index[x] for x in g[v]] for v in g.nodes()]


def _masks(adj):
    """Neighbour lists as one neighbour mask per vertex."""
    return [sum(1 << x for x in nbrs) for nbrs in adj]


def _agrees_on_regular_pairs(degree, sizes, seeds, rng):
    for n in sizes:
        for seed in seeds:
            g = nx.random_regular_graph(degree, n, seed=2 * seed)
            h = nx.random_regular_graph(degree, n, seed=2 * seed + 1)
            g_cube, copy = _graph(g.edges, g.nodes), _relabelled(g, rng)
            assert (graph_isomorphic(g_cube, _graph(h.edges, h.nodes))
                    == nx.is_isomorphic(g, h))
            assert graph_isomorphic(g_cube, _graph(copy.edges, copy.nodes))


def test_graph_isomorphic_agrees_with_networkx_on_cubic_graphs():
    """Random 3-regular pairs, which the degree pre-check cannot tell
    apart, and relabelled copies."""
    _agrees_on_regular_pairs(3, [20], range(25), random.Random(20))


def test_graph_isomorphic_agrees_with_networkx_on_4_regular_graphs():
    """Random 4-regular pairs on 10 to 16 vertices: refinement leaves one
    cell, so every False follows an exhaustive search."""
    _agrees_on_regular_pairs(4, range(10, 17), range(6), random.Random(4))


def test_graph_isomorphic_refuses_a_switched_lucas_cube():
    """One degree-preserving 2-switch of the Lucas cube of crown(8) that
    colour refinement cannot refute (the full-round oracle leaves it
    unrefuted from one colour), so the search must exhaust its candidates
    to say no."""
    g = cover_cube(filter_lattice(crown(8)))
    switch = {tuple(map(_code, old)): tuple(map(_code, new)) for old, new in (
        (("00000001", "00000101"), ("00000001", "00001010")),
        (("00000010", "00001010"), ("00000010", "00000101")))}
    cube = lucas_cube(8)
    edges = [switch.get(tuple(sorted(e)), e) for e in cube.edges]
    assert sum(tuple(sorted(e)) in switch for e in cube.edges) == 2
    assert graph_isomorphic(g, cube)
    assert not nx.is_isomorphic(nx.Graph(list(g.edges)), nx.Graph(edges))
    adj_g, adj_h = (_neighbour_lists(nx.Graph(e)) for e in (g.edges, edges))
    start = [0] * len(adj_g)
    assert oracles.refine_by_signatures(adj_g, adj_h, start, start) is not None
    assert not graph_isomorphic(g, _graph(edges))


def test_graph_isomorphic_backtracks_over_the_candidates():
    """K_{3,3} and the triangular prism are both 3-regular on six vertices,
    so refinement leaves one cell, and the first candidate for vertex 0 of
    g = K_{3,3} + prism lies in the prism of h = prism + K_{3,3}."""
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
             (0, 3), (1, 4), (2, 5)]
    g = k33 + [(a + 6, b + 6) for a, b in prism]
    h = prism + [(a + 6, b + 6) for a, b in k33]
    assert graph_isomorphic(_graph(g), _graph(h))
    assert not graph_isomorphic(
        _graph(g), _graph(k33 + [(a + 6, b + 6) for a, b in k33]))


def test_graph_isomorphic_on_equal_degree_sequences():
    triangles = [((i, a), (i, (a + 1) % 3))
                 for i in range(40) for a in range(3)]
    hexagons = [((i, a), (i, (a + 1) % 6))
                for i in range(20) for a in range(6)]
    assert not graph_isomorphic(_graph(triangles), _graph(hexagons))
    assert not nx.is_isomorphic(nx.Graph(triangles), nx.Graph(hexagons))
    # one degree sequence, and no vertex of g is told from one of h before
    # some of its neighbours are placed
    g = [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (2, 6), (3, 4), (3, 6),
         (4, 5)]
    h = [(0, 1), (0, 3), (0, 5), (1, 2), (2, 4), (2, 6), (3, 4), (3, 6),
         (4, 5)]
    assert not graph_isomorphic(_graph(g), _graph(h))
    assert not nx.is_isomorphic(nx.Graph(g), nx.Graph(h))


def test_graph_isomorphic_on_the_hypercube_q8():
    """cover_cube(F(antichain 8)) is Q8, whose colour refinement never splits
    a cell: every vertex has degree 8, so only the placed neighbours guide
    the backtrack.  The copy permutes the coordinates and then renames the
    vertices at random."""
    q8 = cover_cube(filter_lattice(antichain(8)))
    perm = [3, 0, 6, 1, 7, 2, 5, 4]
    names = list(q8.vertices)
    random.Random(8).shuffle(names)
    name = dict(zip(q8.vertices, names))
    moved = [tuple(name[sum((x >> p & 1) << i for i, p in enumerate(perm))]
                   for x in edge)
             for edge in q8.edges]
    assert graph_isomorphic(q8, _graph(moved))


@pytest.mark.parametrize("edges_of", [
    lambda n: [],
    lambda n: [(2 * i, 2 * i + 1) for i in range(n // 2)],
], ids=["no-edges", "perfect-matching"])
def test_graph_isomorphic_at_the_cap(edges_of):
    """Graphs at the cap are placed one vertex at a time, without
    recursion, each component after the first on a dropped stack; one more
    vertex is refused before the search."""
    rng = random.Random(400)
    perm = list(range(GRAPH_ISO_CAP))
    rng.shuffle(perm)
    dim = GRAPH_ISO_CAP.bit_length()
    g = CubeGraph(dim=dim, vertices=tuple(range(GRAPH_ISO_CAP)),
                  edges=tuple(edges_of(GRAPH_ISO_CAP)))
    h = CubeGraph(dim=dim, vertices=tuple(perm),
                  edges=tuple((perm[a], perm[b])
                              for a, b in edges_of(GRAPH_ISO_CAP)))
    t0 = time.perf_counter()
    assert graph_isomorphic(g, h)
    assert time.perf_counter() - t0 < 2.0
    big = CubeGraph(dim=dim, vertices=g.vertices + (GRAPH_ISO_CAP,),
                    edges=g.edges)
    with pytest.raises(CapacityExceeded,
                       match="^graph isomorphism capped at 400 vertices$"):
        graph_isomorphic(big, big)


def _cycles(*lengths):
    """Disjoint cycles of these lengths, on the vertices 0, 1, ... in turn."""
    edges, at = [], 0
    for k in lengths:
        edges += [(at + i, at + (i + 1) % k) for i in range(k)]
        at += k
    return _graph(edges)


def _spiders(legs):
    """Two graphs on one degree sequence, numbered hub first, then the legs'
    inner vertices, then their feet: the spider whose ``legs`` legs have
    two edges each, and the hub's star on as many inner vertices, two of
    them joined, beside the other legs' feet and an edge that joins the
    two feet left over."""
    inner = range(1, legs + 1)
    star = [(0, a) for a in inner]
    feet = [(a, a + legs) for a in inner]
    return _graph(star + feet), _graph(
        star + [(1, 2), (legs + 1, legs + 2)] + feet[2:])


def test_search_refinements_are_capped(monkeypatch, capsys,
                                       placement_passes):
    """The backtrack places at most n^3 vertices.  Two triangles and a
    hexagon against four triangles, in either order, took 769 and 175
    refinements of the search this backtrack replaced; it places 36
    vertices in the first order and 24 in the second.
    Three triangles and a hexagon against five triangles passed that
    search's cap of 3,375 refinements; the backtrack refuses the pair in
    39 placements with the hexagon last and in 75 with it first.

    Placing the legs' inner vertices of a spider takes no notice of its
    feet, so on a spider with seven legs against its counterpart, which
    only the joined inner vertices tell apart, the backtrack tries the
    inner vertices in every order that misses one of the joined two,
    and passes the cap of 3,375 at n = 15.  The pair in the other order,
    which places the joined inner vertices right after the hub, is refused
    after 8 placements.  A catalog search past its cap fails as a check:
    verify exits 1."""
    for g, h, count in ((_cycles(3, 3, 6), _cycles(3, 3, 3, 3), 37),
                        (_cycles(3, 3, 3, 3), _cycles(3, 3, 6), 25),
                        (_cycles(3, 3, 3, 6), _cycles(3, 3, 3, 3, 3), 40),
                        (_cycles(6, 3, 3, 3), _cycles(3, 3, 3, 3, 3), 76)):
        placement_passes[0] = 0
        assert not graph_isomorphic(g, h)
        assert placement_passes[0] == count
    spider, other = _spiders(7)
    placement_passes[0] = 0
    assert not graph_isomorphic(other, spider)
    assert placement_passes[0] == 9
    with pytest.raises(CapacityExceeded, match="^isomorphism search capped "
                       "at 3375 placements on 15 vertices$"):
        graph_isomorphic(spider, other)

    def capped(up_g, *args):
        raise CapacityExceeded("isomorphism search capped at %d placements "
                               "on %d vertices" % (len(up_g) ** 3,
                                                   len(up_g)))

    monkeypatch.setattr(poset, "_backtrack", capped)
    assert cli_run(["verify", "euler", "--trials", "0",
                    "--max-size", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: verified property failed: the catalog's isomorphism search "
        "on 2 points: isomorphism search capped at 8 placements on 2 "
        "vertices\n")


@pytest.mark.parametrize("suite,bound,largest", [
    ("cubes", "13", "fence n=13,vertices=610,ok"),
    ("lucas", "14", "n=7,size=843,ok"),
], ids=["cubes", "lucas"])
def test_cli_verify_cubes_past_the_search_cap(suite, bound, largest, capsys):
    """Past GRAPH_ISO_CAP vertices, where the search refuses, the zigzag
    certificate still decides the cubes.  The lucas suite checks no cube;
    its arm checks the size of F(crown(14)) that its report reads."""
    assert cli_run(["verify", suite, "--max", bound]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("suite %s: " % suite) and ", ok\n" in out
    assert largest in out.splitlines() and err == ""


@pytest.mark.parametrize("bound,last", [(9, "crown 2n=10,vertices=123,ok"),
                                        (11, "crown 2n=12,vertices=322,ok"),
                                        (12, "crown 2n=12,vertices=322,ok")])
def test_verify_cubes_bounds_crowns_by_one_more_than_fences(bound, last):
    lines = verify_cubes(max_fence=bound).report().splitlines()
    assert "fence n=%d,vertices=%d,ok" % (bound, fib(bound + 2)) in lines
    assert lines[-1] == last


def test_cover_cube_edges_match_naive_covers():
    lat = filter_lattice(fence(3))
    g = cover_cube(lat)
    want = {tuple(sorted((lat.bitstring(a), lat.bitstring(b))))
            for a, b in oracles.naive_covers(lat)}
    assert set(_names(g)[1]) == want



def test_cube_builders_equal_their_string_oracles():
    """The int builders of the cubes, the covering graphs and the zigzag
    translation, their codes written out as strings, against the string
    builders they replaced."""
    for n in range(13):
        lat = filter_lattice(fence(n))
        g = cover_cube(lat)
        assert _names(g) == oracles.cover_cube_by_sorting(lat), n
        assert (_names(_zigzag_translate(g))
                == oracles.zigzag_translate_by_chars(_names(g)))
        assert _names(fibonacci_cube(n)) == oracles.cube_by_slicing(
            [_string(c, n) for c in families._no_adjacent_ones(n)]), n
    for two_n in range(4, 13, 2):
        lat = filter_lattice(crown(two_n))
        g = cover_cube(lat)
        assert _names(g) == oracles.cover_cube_by_sorting(lat), two_n
        assert (_names(_zigzag_translate(g))
                == oracles.zigzag_translate_by_chars(_names(g)))
        assert _names(lucas_cube(two_n)) == oracles.cube_by_slicing(
            [s for s in (_string(c, two_n)
                         for c in families._no_adjacent_ones(two_n))
             if not s[0] == s[-1] == "1"]), two_n


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.sets(st.text("01", min_size=n, max_size=n), min_size=1)))
def test_cube_from_strings_on_any_set_of_strings(strings):
    n = len(next(iter(strings)))
    assert (_names(families._cube(n, [_code(s) for s in strings]))
            == oracles.cube_by_slicing(strings))


def test_cube_checks_format_no_vertex_string(monkeypatch):
    """A ledger: the cubes suite's checks and a cube search keep the codes
    as ints, writing out no filter bitstring and formatting no vertex
    string; edge_list_text, the one writer, formats each vertex once."""
    made = []
    monkeypatch.setattr(poset.Poset, "bitstring",
                        lambda self, bits: made.append(bits))
    monkeypatch.setattr(families, "format", lambda *args: (
        made.append(args) or format(*args)), raising=False)
    assert verify_cubes().ok
    assert graph_isomorphic(cover_cube(filter_lattice(fence(12))),
                            fibonacci_cube(12))
    assert made == []
    fibonacci_cube(2).edge_list_text()
    assert len(made) == 3


def test_read_graph_counts_parallel_and_reversed_edges_once(monkeypatch):
    """graph_isomorphic reads each graph into one neighbour mask per vertex
    and passes the degrees as the signatures."""
    g = _graph([("a", "b"), ("b", "a"), ("a", "b"), ("c", "b")])
    path = _graph([("x", "y"), ("y", "z")])
    assert graph_isomorphic(g, path)
    assert not graph_isomorphic(g, _graph([("x", "y"), ("y", "z"),
                                           ("z", "x")]))
    seen = []
    monkeypatch.setattr(families, "_backtrack",
                        lambda *args: seen.append(args) or [0, 1, 2])
    assert graph_isomorphic(g, path)
    path_masks = [0b010, 0b101, 0b010]
    assert seen == [(path_masks, path_masks, path_masks, path_masks,
                     [1, 2, 1], [1, 2, 1])]


@pytest.mark.parametrize("kind,placed", [("fence", 521), ("crown", 339)])
def test_cube_search_placement_ledger(kind, placed, placement_passes):
    """A placement ledger for graph_isomorphic on the covering graph of
    F(fence(12)) against the Fibonacci cube (377 vertices) and of
    F(crown(12)) against the Lucas cube (322 vertices).  A search that
    finds a map places one vertex per pass: 521 and 339 placements, at
    most 1.4 times the vertices, where the search this backtrack replaced
    refined twice for each and popped 300 and 217 cells."""
    p, model = ((fence(12), fibonacci_cube(12)) if kind == "fence"
                else (crown(12), lucas_cube(12)))
    assert graph_isomorphic(cover_cube(filter_lattice(p)), model)
    assert placement_passes[0] == placed


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), regular_graphs()), posets(max_n=12))
def test_placement_order_is_the_scan(g, p):
    """The backtrack's placement order against the oracle's scan of every
    unplaced vertex: on a random graph's neighbour masks, passed as both
    relations with the degrees, and on a random poset's order masks with
    its profiles.  The placement ledgers see a changed order only where it
    changes a count."""
    near = _masks(_neighbour_lists(g))
    for up, down, sig in ((near, near, [m.bit_count() for m in near]),
                          (p.up, p.down, poset._profile(p))):
        assert (poset._placement_order(up, down, sig)
                == oracles.placement_order_by_scanning(up, down, sig))


@pytest.mark.parametrize("kind", ["fence", "crown", "chain"])
def test_placement_order_is_the_scan_on_large_inputs(kind, monkeypatch):
    """The same on the masks the backtrack is handed for the covering
    graphs of F(fence(12)) and F(crown(12)), as graph_isomorphic reads
    them, and for chain(1100), whose elements are all comparable."""
    seen, order = [], poset._placement_order
    monkeypatch.setattr(poset, "_placement_order",
                        lambda *args: seen.append(args) or order(*args))
    if kind == "chain":
        assert poset.poset_isomorphic(chain(1100), chain(1100))
    else:
        p, model = ((fence(12), fibonacci_cube(12)) if kind == "fence"
                    else (crown(12), lucas_cube(12)))
        assert graph_isomorphic(cover_cube(filter_lattice(p)), model)
    (args,) = seen
    assert order(*args) == oracles.placement_order_by_scanning(*args)


def _rook_and_shrikhande():
    """The 4x4 rook's graph and the Shrikhande graph, both on Z4 x Z4 and
    6-regular: (a, b) and (c, d) are joined when they share a row or a
    column, and when their difference is one of (0, ±1), (±1, 0) and
    ±(1, 1)."""
    cells = list(product(range(4), repeat=2))
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    rook = [(x, y) for x, y in combinations(cells, 2)
            if x[0] == y[0] or x[1] == y[1]]
    shrikhande = [(x, y) for x, y in combinations(cells, 2)
                  if ((x[0] - y[0]) % 4, (x[1] - y[1]) % 4) in steps]
    return _graph(rook, cells), _graph(shrikhande, cells)


def test_the_rook_graph_is_not_the_shrikhande_graph():
    """Both are strongly regular with the same parameters (16, 6, 2, 2), so
    colour refinement splits nothing and every pair of adjacent vertices
    has two common neighbours: only the placements tell them apart."""
    rook, shrikhande = _rook_and_shrikhande()
    assert rook.edge_count == shrikhande.edge_count == 48
    assert not graph_isomorphic(rook, shrikhande)
    assert not graph_isomorphic(shrikhande, rook)
    # renumbered by the order in which the reversed edge list meets them
    for g in rook, shrikhande:
        assert graph_isomorphic(g, _graph([(v, u) for u, v in g.edges][::-1]))

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
    # The report reads q of F(fence(s)) off the expansion, which equals q
    # of the lattice built from scratch.
    for s in range(2, 12):
        q = tuple(q_vector(filter_lattice(fence(s))))
        for n in range(2, s + 1):
            rep = verify_fibonacci_decomposition(s + 2 - n, n)
            assert rep.ok and rep.q == q, (s, n)


def _refuse_building(monkeypatch, family_posets, what):
    """Make ``families.filter_lattice`` fail on any of ``family_posets``
    and build every other lattice as before."""
    real = families.filter_lattice
    refused = {p.up for p in family_posets}

    def guarded(p, *args):
        if p.up in refused:
            pytest.fail(what)
        return real(p, *args)

    monkeypatch.setattr(families, "filter_lattice", guarded)


def test_fibonacci_suite_rebuilds_each_fence_once(monkeypatch):
    # Each report reads q of F(fence(s)) off its expansion, so the suite
    # builds no F(fence(s)), and no report builds one again.
    import latcut.verify as ver

    monkeypatch.setattr(ver, "filter_lattice", lambda *args: pytest.fail(
        "the fibonacci suite built a lattice"))
    _refuse_building(monkeypatch, [fence(s) for s in range(2, 7)],
                     "a fibonacci report built F(fence) again")
    res = verify_fibonacci(max_s=6)
    assert res.ok and res.checks == 15
    assert res.report().splitlines()[1:4] == ["m=2,n=2,ok", "m=2,n=3,ok",
                                              "m=3,n=2,ok"]


@pytest.mark.parametrize("run, n", [
    (lambda: verify_fibonacci_decomposition(5, 4), 7),
    (lambda: verify_lucas_decomposition(4), 8),
], ids=["fence7", "crown8"])
def test_each_deletion_walks_its_family_poset_once(monkeypatch, run, n):
    # The round trip walks the fence or crown once, as the enumeration
    # independent of the expansion; P - x, P * x and the dual star are
    # smaller, so only walks over P itself count here.
    walks = []
    real = poset.Poset.filters_with_minima

    def counting(self, *args):
        walks.append(self.n)
        return real(self, *args)

    monkeypatch.setattr(poset.Poset, "filters_with_minima", counting)
    assert run().ok
    assert walks.count(n) == 1


def test_lucas_suite_builds_no_crown_lattice(monkeypatch):
    # The covering graphs of F(crown) are the cubes suite's, so the lucas
    # suite builds no lattice; each report reads q of F(crown) off its
    # expansion, so none builds F(crown) again, and each line's size is
    # the report's.  The round trip still walks the crown, as the
    # enumeration independent of the expansion.
    import latcut.verify as ver

    monkeypatch.setattr(ver, "filter_lattice", lambda *args: pytest.fail(
        "the lucas suite built a lattice"))
    _refuse_building(monkeypatch, [crown(2 * n) for n in range(2, 6)],
                     "the lucas report built F(crown) again")
    res = verify_lucas(max_two_n=10)
    assert res.ok and res.checks == 4
    assert res.report().splitlines()[1:] == [
        "n=%d,size=%d,ok" % (n, lucas(2 * n)) for n in range(2, 6)]


@pytest.mark.parametrize("case", ["decompose", "fibonacci", "lucas"])
def test_the_round_trip_and_the_family_reports_run_no_search(monkeypatch,
                                                            case):
    # Each check compares through a map it already has, so the
    # isomorphism backtrack never runs.  The pool is drawn before counting:
    # posets_up_to_iso itself searches.
    pool = [p for n in range(6) for p in posets_up_to_iso(n)]
    calls = []
    real = poset._backtrack

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(poset, "_backtrack", counting)
    if case == "decompose":
        assert all(decompose(p, x).counts_ok for p in pool for x in p.labels)
    elif case == "fibonacci":
        assert all(verify_fibonacci_decomposition(m, s + 2 - m).ok
                   for s in range(2, 11) for m in range(2, s + 1))
    else:
        assert all(verify_lucas_decomposition(n).ok for n in range(2, 7))
    assert calls == []


def _count_cross_checks(monkeypatch):
    """(size, base) of each lattice whose q is cross-checked, in order, by
    _q_recurrence, which takes its base and returns q, whose q_0 is the
    lattice's size."""
    checked = []
    recurrence = invariants._q_recurrence

    def recurring(p):
        q = recurrence(p)
        checked.append((q[0], p))
        return q

    monkeypatch.setattr(invariants, "_q_recurrence", recurring)
    return checked


@pytest.mark.parametrize("run, sizes", [
    # L = F(fence(n - 1) + fence(m - 2)), K = F(fence(n - 2) + fence(m - 3))
    # and L' = F(fence(9)): 5 * 13, 3 * 8 and 89; then 21 * 3, 13 * 2, 89.
    (lambda: verify_fibonacci_decomposition(7, 4), [65, 24, 89]),
    (lambda: verify_fibonacci_decomposition(4, 7), [63, 26, 89]),
    # L = F(fence(11)), K = F(fence(9).dual()), L' = F(crown(12)) and
    # F(dual star).
    (lambda: verify_lucas_decomposition(6), [233, 89, 322, 89]),
], ids=["fibonacci-7-4", "fibonacci-4-7", "lucas-6"])
def test_a_passing_report_scans_each_lattice_once(monkeypatch, run, sizes):
    # A round trip that holds proves F(P) from the walk equal to L', so
    # the report reads its q off L' and cross-checks it once, by the
    # recurrence on its base.
    checked = _count_cross_checks(monkeypatch)
    assert run().ok
    assert sorted(size for size, _ in checked) == sorted(sizes)
    assert len({id(base) for _, base in checked}) == len(sizes)


# The detail of a report whose round trip was planted to fail: F(P) built
# from the walk still has the expansion's q, so only ``expansion`` fails.
_FAILED_ROUND_TRIP_DETAIL = {
    "fibonacci": ("count=True identity=True minus=True star=True "
                  "expansion=False q=True"),
    "lucas": ("count=True minus=True star=True dual_q=True expansion=False "
              "q=True euler=True"),
}


@pytest.mark.parametrize("flag", ["counts_ok", "expansion_iso_ok"])
@pytest.mark.parametrize("case, run, p", [
    ("fibonacci", lambda: verify_fibonacci_decomposition(5, 4), fence(7)),
    ("lucas", lambda: verify_lucas_decomposition(4), crown(8)),
])
def test_a_failed_round_trip_builds_and_scans_f_of_p(monkeypatch, flag, case,
                                                     run, p):
    # The q flag may read q off L' only when the round trip holds; when it
    # fails, F(P) is built and its q checked and compared.
    real = families.decompose
    monkeypatch.setattr(families, "decompose", lambda *args:
                        dataclasses.replace(real(*args), **{flag: False}))
    real_build = families.filter_lattice
    built, wrong = [], None

    def build(q, *args):
        # The lattice of P itself is built from ``wrong`` once that is set.
        built.append(real_build(q if wrong is None or q != p else wrong,
                                *args))
        return built[-1]

    monkeypatch.setattr(families, "filter_lattice", build)
    checked = _count_cross_checks(monkeypatch)
    rep = run()
    assert rep.detail == _FAILED_ROUND_TRIP_DETAIL[case]
    f_of_p = [lat for lat in built if lat.base == p]
    assert len(f_of_p) == 1
    assert [base is f_of_p[0].base for _, base in checked].count(True) == 1
    # ... and an F(P) that is not F(P) fails the q flag too.
    wrong = fence(p.n - 1)
    assert run().detail == _FAILED_ROUND_TRIP_DETAIL[case].replace(
        " q=True", " q=False")


def test_crown_deletion_takes_the_rebuilt_lattice():
    # As for the fences: q read off the expansion is q of F(crown) built
    # from scratch.
    for n in range(2, 8):
        rep = verify_lucas_decomposition(n)
        assert rep.ok and rep.q == tuple(q_vector(filter_lattice(
            crown(2 * n)))), n


def test_crown_deletion_compares_the_dual_star_with_the_interval_q(monkeypatch):
    # A wrong interval lattice breaks the q recurrence, and dual_q, which
    # compares the interval's own q with that of the dual star, sees it too;
    # so does the round trip (expansion), which requires K's base to be the
    # star and reads |F(P * x)| off K's lattice.
    assert verify_lucas_decomposition(3).detail is None
    monkeypatch.setattr(DistLattice, "interval_lattice",
                        lambda self, k: filter_lattice(antichain(1)))
    flags = dict(item.split("=")
                 for item in verify_lucas_decomposition(3).detail.split())
    assert flags == {"count": "True", "minus": "True", "star": "True",
                     "dual_q": "False", "expansion": "False", "q": "False",
                     "euler": "True"}


def test_family_report_formats_its_flags_only_when_one_fails():
    passing = FamilyReport(5, [1, 2], count_ok=True, q_ok=True)
    assert passing == FamilyReport(5, (1, 2), None)
    assert passing.ok and not hasattr(passing, "count_ok")
    failing = FamilyReport(5, [1, 2], count_ok=True, dual_q_ok=False)
    assert not failing.ok and failing.detail == "count=True dual_q=False"
    # A report rebuilt with one flag false fails, naming that flag.
    assert dataclasses.replace(passing, count_ok=False).detail == "count=False"


def test_family_suites_print_every_check_of_a_planted_failure(monkeypatch):
    """The suites print the report's detail, so a failure of any one check
    names that check, and only that one, as False."""
    # Q(-1) = 0 in the Lucas check alone: only euler fails.
    monkeypatch.setattr(families, "poly_eval", lambda q, x: 0)
    report = verify_lucas(max_two_n=4).report()
    assert "FAIL lucas: lucas decomposition n=2\n" in report
    assert ("count=True minus=True star=True dual_q=True expansion=True "
            "q=True euler=False\n") in report
    monkeypatch.undo()
    # A q recurrence that fails in every split: only q fails.
    monkeypatch.setattr(families, "check_q_recurrence", lambda exp: "q=[]")
    report = verify_fibonacci(max_s=5).report()
    assert ("FAIL fibonacci: fibonacci decomposition m=2 n=2\n"
            "count=True identity=True minus=True star=True expansion=True "
            "q=False\n") in report


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crown_deletion_reports(n):
    rep = verify_lucas_decomposition(n)
    assert rep.ok
    assert rep.lattice_size == lucas(2 * n)


def test_crown_deletion_worked_case():
    rep = verify_lucas_decomposition(2)
    assert rep.lattice_size == 7
    assert rep.q == (7, 8, 2)
    assert poly_eval(list(rep.q), -1) == 1
    with pytest.raises(ValueError):
        verify_lucas_decomposition(1)
