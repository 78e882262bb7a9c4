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
    # _search itself refuses, before any refinement, graphs that no map
    # joins: an edgeless pair against an edge, unequal vertex counts, and
    # equal edge counts with different signature multisets.
    monkeypatch.setattr(poset, "_refine",
                        lambda *args: pytest.fail("refined"))
    for args in (([[], []], [[1], [0]], [0, 1], [0, 1]),
                 ([[]], [[], []], [0], [0, 0]),
                 ([[1], [0], []], [[], [2], [1]], [0, 0, 1], [0, 1, 1])):
        assert poset._search(*args) is None
    # 610 vertices, past GRAPH_ISO_CAP: refused before either graph is
    # read, whichever side is over the cap.
    big = fibonacci_cube(13)
    monkeypatch.setattr(families, "_search",
                        lambda *args: pytest.fail("searched past the cap"))
    monkeypatch.setattr(families, "_read_graph",
                        lambda g: pytest.fail("read a graph past the cap"))
    for pair in ((big, big), (g, big), (big, g)):
        with pytest.raises(CapacityExceeded,
                           match="graph isomorphism capped at 400 vertices"):
            graph_isomorphic(*pair)


# -- graph isomorphism against networkx --------------------------------------------


def _graph(edges, vertices=()):
    """The CubeGraph of ``edges`` on ``vertices`` and then every endpoint
    not among them, indexed in that order; a networkx graph ``g`` goes in
    as ``_graph(g.edges, g.nodes)``."""
    names = dict.fromkeys(vertices)
    for e in edges:
        names.update(dict.fromkeys(e))
    return CubeGraph(vertices=tuple(names), edges=tuple(edges))


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
    _search returns is a bijection that sends the edges of g onto those of
    h."""
    h = _relabelled(g, rng)
    if g.number_of_edges() >= 2 and g.number_of_nodes() >= 4:
        with contextlib.suppress(nx.NetworkXAlgorithmError):
            nx.double_edge_swap(h, nswap=swaps, max_tries=100,
                                seed=rng.randrange(2 ** 32))
    g_cube, h_cube = _graph(g.edges, g.nodes), _graph(h.edges, h.nodes)
    want = nx.is_isomorphic(g, h)
    assert graph_isomorphic(g_cube, h_cube) == want
    adj_g, adj_h = map(families._read_graph, (g_cube, h_cube))
    deg_g, deg_h = list(map(len, adj_g)), list(map(len, adj_h))
    assert sorted(deg_g) == sorted(deg_h)
    f = poset._search(adj_g, adj_h, deg_g, deg_h)
    assert (f is not None) == want
    if f is not None:
        assert sorted(f) == list(range(len(adj_g)))
        assert ({frozenset((f[a], f[b])) for a, nbrs in enumerate(adj_g)
                 for b in nbrs}
                == {frozenset((a, b)) for a, nbrs in enumerate(adj_h)
                    for b in nbrs})


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
    colour refinement cannot refute, so the search must exhaust its
    candidates to say no."""
    g = cover_cube(filter_lattice(crown(8)))
    switch = {("00000001", "00000101"): ("00000001", "00001010"),
              ("00000010", "00001010"): ("00000010", "00000101")}
    cube = lucas_cube(8)
    edges = [switch.get(tuple(sorted(e)), e) for e in cube.edges]
    assert sum(tuple(sorted(e)) in switch for e in cube.edges) == 2
    assert graph_isomorphic(g, cube)
    assert not nx.is_isomorphic(nx.Graph(list(g.edges)), nx.Graph(edges))
    adj_g = families._read_graph(g)
    adj_h = families._read_graph(_graph(edges))
    n = len(adj_g)
    assert _refine_pair(adj_g, adj_h, [0] * n, [0] * n) is not None
    assert not graph_isomorphic(g, _graph(edges))


@st.composite
def coloured_graphs(draw):
    """Neighbour sets with starting colours 0..k-1: a random graph, or the
    cover graph of a random poset."""
    if draw(st.booleans()):
        g = draw(small_graphs())
        adj = [set(g[v]) for v in range(g.number_of_nodes())]
    else:
        p = draw(posets(max_n=8))
        adj = poset._adjacency(p.n, p.cover_masks())
    raw = draw(st.lists(st.integers(min_value=0, max_value=2),
                        min_size=len(adj), max_size=len(adj)))
    rank = {c: i for i, c in enumerate(sorted(set(raw)))}
    return adj, [rank[c] for c in raw]


def _cells(coloured):
    """The partition of the vertices of both graphs, ("g", v) and
    ("h", w), into colour classes."""
    cg, ch, _ = coloured
    cells = {}
    for side, colours in (("g", cg), ("h", ch)):
        for v, c in enumerate(colours):
            cells.setdefault(c, set()).add((side, v))
    return {frozenset(cell) for cell in cells.values()}


def _equitable(adj_g, adj_h, coloured):
    """Any two vertices of one colour, in either graph, have the same
    multiset of neighbour colours."""
    cg, ch, _ = coloured
    seen = {}
    for adj, colours in ((adj_g, cg), (adj_h, ch)):
        for v, nbrs in enumerate(adj):
            around = sorted(colours[x] for x in nbrs)
            if seen.setdefault(colours[v], around) != around:
                return False
    return True


def _refine_pair(adj_g, adj_h, cg, ch, *splitters):
    """poset._refine on the disjoint union g ⊔ h, with h's vertices after
    g's, and its answer split back into (colours of g, colours of h,
    number of colours), or None.  The colouring passed in is left
    unchanged, and the sizes returned, which _search reads to pick its
    cell, count each colour's vertices."""
    n = len(adj_g)
    union = [*adj_g, *([x + n for x in nbrs] for nbrs in adj_h)]
    start = [*cg, *ch]
    got = poset._refine(union, n, start, *splitters)
    assert start == [*cg, *ch]
    if got is None:
        return None
    colour, size = got
    assert size == [colour.count(c)
                    for c in range(max(colour, default=-1) + 1)]
    return colour[:n], colour[n:], len(size)


def _refines_as_the_oracle(adj_g, adj_h, cg, ch, *splitters):
    """_refine's answer, after checking it against the oracle's: None for
    both, or the same cells, equitable for both graphs together.  A
    discrete answer, one vertex of each graph per colour, is where the
    refinement stops without reaching equitability: its pair map is an
    isomorphism, sending edges to edges (_leaf_map) between graphs of equal
    edge counts, exactly when the oracle accepts, and then the cells are
    the oracle's."""
    got = _refine_pair(adj_g, adj_h, cg, ch, *splitters)
    want = oracles.refine_by_signatures(adj_g, adj_h, cg, ch)
    if got is not None and got[2] == len(adj_g):
        leaf = poset._leaf_map(adj_g, adj_h, [*got[0], *got[1]])
        iso = (leaf is not None
               and sum(map(len, adj_g)) == sum(map(len, adj_h)))
        assert iso == (want is not None)
        if not iso:
            return got
    assert (got is None) == (want is None)
    if got is not None:
        assert _equitable(adj_g, adj_h, got)
        assert _cells(got) == _cells(want)
    return got


def test_refinement_refuses_count_classes_of_unequal_size():
    """A 4-cycle against a triangle beside an isolated vertex, from one
    colour: both graphs' vertices count 2 neighbours in the cell, apart
    from the isolated one, so only the sizes of the count classes differ."""
    square = [{1, 3}, {0, 2}, {1, 3}, {0, 2}]
    triangle = [{1, 2}, {0, 2}, {0, 1}, set()]
    assert _refines_as_the_oracle(square, triangle, [0] * 4, [0] * 4) is None


@settings(max_examples=200, deadline=None)
@given(coloured_graphs(), st.randoms(use_true_random=False))
def test_refinement_matches_the_signature_rounds(graph, rng):
    """The splitter refinement against the full-round oracle, first on a
    graph and a permuted copy.  Then, as the search does, one vertex of
    each graph in one cell gets a fresh colour and the refinement starts
    from that singleton alone, whether or not the two vertices correspond.
    Last, against a random graph on as many vertices, which refinement
    often refutes."""
    adj_g, cg = graph
    n = len(adj_g)
    perm = list(range(n))
    rng.shuffle(perm)
    adj_h, ch = [None] * n, [None] * n
    for v in range(n):
        adj_h[perm[v]] = {perm[x] for x in adj_g[v]}
        ch[perm[v]] = cg[v]
    got = _refines_as_the_oracle(adj_g, adj_h, cg, ch)
    assert got is not None
    fine_g, fine_h, count = got
    shared = [c for c in range(count) if fine_g.count(c) > 1]
    if shared:
        cell = rng.choice(shared)
        fine_g, fine_h = fine_g.copy(), fine_h.copy()
        fine_g[rng.choice([v for v in range(n) if fine_g[v] == cell])] = count
        fine_h[rng.choice([w for w in range(n) if fine_h[w] == cell])] = count
        _refines_as_the_oracle(adj_g, adj_h, fine_g, fine_h, [count])
    other = [set() for _ in range(n)]
    for a, b in combinations(range(n), 2):
        if rng.random() < 0.5:
            other[a].add(b)
            other[b].add(a)
    _refines_as_the_oracle(adj_g, other, cg, ch)


def test_leaf_map_refuses_a_map_that_breaks_an_edge():
    """The leaf certificate reads the edges themselves.  _refine stops at
    its first discrete colouring of g ⊔ h, before it is equitable, so on
    pairs that are not isomorphic this check is what refuses the search's
    leaves (see test_search_maps_keep_edges_on_equal_degree_sequences);
    here a discrete colouring of two 3-vertex paths sends the edge 1-2 of
    g to 0-2 of h."""
    path = [[1], [0, 2], [1]]
    assert poset._leaf_map(path, path, [0, 1, 2, 0, 1, 2]) == [0, 1, 2]
    assert poset._leaf_map(path, path, [0, 1, 2, 1, 0, 2]) is None


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


def test_graph_isomorphic_refuses_by_refinement_alone(monkeypatch):
    """A 4-cycle with a pendant vertex and a triangle with a pendant path
    have one degree sequence; counting neighbours in the degree cells
    tells them apart, because a colour means the same in both graphs, so
    the search stops in its first refinement without individualizing a
    vertex."""
    refine, calls = poset._refine, []
    monkeypatch.setattr(poset, "_refine",
                        lambda *args: calls.append(args) or refine(*args))
    c4_pendant = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
    triangle_path = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]
    assert not graph_isomorphic(_graph(c4_pendant), _graph(triangle_path))
    assert len(calls) == 1


def test_graph_isomorphic_on_equal_degree_sequences():
    triangles = [((i, a), (i, (a + 1) % 3))
                 for i in range(40) for a in range(3)]
    hexagons = [((i, a), (i, (a + 1) % 6))
                for i in range(20) for a in range(6)]
    assert not graph_isomorphic(_graph(triangles), _graph(hexagons))
    assert not nx.is_isomorphic(nx.Graph(triangles), nx.Graph(hexagons))
    # a pair whose search reaches discrete colourings that map some edge of
    # g to a non-edge of h: only the edge check at the leaf refuses them
    g = [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (2, 6), (3, 4), (3, 6),
         (4, 5)]
    h = [(0, 1), (0, 3), (0, 5), (1, 2), (2, 4), (2, 6), (3, 4), (3, 6),
         (4, 5)]
    assert not graph_isomorphic(_graph(g), _graph(h))
    assert not nx.is_isomorphic(nx.Graph(g), nx.Graph(h))


def test_graph_isomorphic_on_the_hypercube_q8():
    """cover_cube(F(antichain 8)) is Q8, whose colour refinement never splits
    a cell: the search individualizes its way down.  The copy permutes the
    coordinates and then renames the vertices at random."""
    q8 = cover_cube(filter_lattice(antichain(8)))
    perm = [3, 0, 6, 1, 7, 2, 5, 4]
    names = list(q8.vertices)
    random.Random(8).shuffle(names)
    name = dict(zip(q8.vertices, names))
    moved = [tuple(name["".join(x[i] for i in perm)] for x in edge)
             for edge in q8.edges]
    assert graph_isomorphic(q8, _graph(moved))


@pytest.mark.parametrize("edges_of", [
    lambda n: [],
    lambda n: [(2 * i, 2 * i + 1) for i in range(n // 2)],
], ids=["no-edges", "perfect-matching"])
def test_graph_isomorphic_at_the_cap(edges_of):
    """Graphs at the cap are searched to a discrete colouring one vertex at
    a time, without recursion; one more vertex is refused before the
    search."""
    rng = random.Random(400)
    perm = list(range(GRAPH_ISO_CAP))
    rng.shuffle(perm)
    names = ["v%03d" % i for i in range(GRAPH_ISO_CAP)]
    g = CubeGraph(vertices=tuple(names),
                  edges=tuple((names[a], names[b])
                              for a, b in edges_of(GRAPH_ISO_CAP)))
    h = CubeGraph(vertices=tuple(names[perm[i]] for i in range(GRAPH_ISO_CAP)),
                  edges=tuple((names[perm[a]], names[perm[b]])
                              for a, b in edges_of(GRAPH_ISO_CAP)))
    t0 = time.perf_counter()
    assert graph_isomorphic(g, h)
    assert time.perf_counter() - t0 < 2.0
    big = CubeGraph(vertices=tuple(names) + ("extra",), edges=g.edges)
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


def test_search_refinements_are_capped(monkeypatch, capsys):
    """_search refines at most n^3 times.  Refinement cannot tell a hexagon
    from two triangles, so two triangles and a hexagon, the triangles
    first, against four triangles take the most refinements measured over
    the domains of the graph tests: the search tries each of h's 12
    vertices for g's first triangle, each of the 9 left for its second, and
    each of the 6 after for the hexagon, 769 refinements at n = 12, under
    the cap of 1,728.  In the other order it tries only the triangles of h
    for each one of g, 175.  With three triangles before the hexagon, against
    five triangles, the search goes one level deeper and passes the cap of
    3,375 at n = 15, so it refuses a pair it could answer; with the hexagon
    first or third it answers.  With a refinement that splits nothing, C6
    against two triangles would try all 720 bijections, and
    graph_isomorphic refuses at the cap instead.  A catalog search past its
    cap fails as a check: verify exits 1."""
    calls, refine = [], poset._refine
    monkeypatch.setattr(poset, "_refine",
                        lambda *args: calls.append(1) or refine(*args))
    for g, h, count in ((_cycles(3, 3, 6), _cycles(3, 3, 3, 3), 769),
                        (_cycles(3, 3, 3, 3), _cycles(3, 3, 6), 175)):
        calls.clear()
        assert not graph_isomorphic(g, h)
        assert len(calls) == count <= 12 ** 3
    for lengths in ((6, 3, 3, 3), (3, 3, 6, 3)):
        assert not graph_isomorphic(_cycles(*lengths), _cycles(3, 3, 3, 3, 3))
    with pytest.raises(CapacityExceeded, match="^isomorphism search capped "
                       "at 3375 refinements on 15 vertices$"):
        graph_isomorphic(_cycles(3, 3, 3, 6), _cycles(3, 3, 3, 3, 3))

    def no_split(adj, n, colour, splitters=None):
        return colour, [colour.count(c) for c in range(max(colour) + 1)]

    monkeypatch.setattr(poset, "_refine", no_split)
    with pytest.raises(CapacityExceeded, match="^isomorphism search capped "
                       "at 216 refinements on 6 vertices$"):
        graph_isomorphic(_cycles(6), _cycles(3, 3))

    def capped(adj_g, *args):
        raise CapacityExceeded("isomorphism search capped at %d refinements "
                               "on %d vertices" % (len(adj_g) ** 3,
                                                   len(adj_g)))

    monkeypatch.setattr(poset, "_search", capped)
    assert cli_run(["verify", "euler", "--trials", "0",
                    "--max-size", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: verified property failed: the catalog's isomorphism search "
        "on 2 points: isomorphism search capped at 8 refinements on 2 "
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
    assert set(g.edges) == want



def test_cube_builders_equal_their_string_oracles():
    """The int builders of the cubes, the covering graphs and the zigzag
    translation against the string builders they replaced."""
    for n in range(13):
        lat = filter_lattice(fence(n))
        g = cover_cube(lat)
        assert g == oracles.cover_cube_by_sorting(lat), n
        assert _zigzag_translate(g) == oracles.zigzag_translate_by_chars(g)
        assert fibonacci_cube(n) == oracles.cube_by_slicing(
            families._no_adjacent_ones(n)), n
    for two_n in range(4, 13, 2):
        lat = filter_lattice(crown(two_n))
        g = cover_cube(lat)
        assert g == oracles.cover_cube_by_sorting(lat), two_n
        assert _zigzag_translate(g) == oracles.zigzag_translate_by_chars(g)
        assert lucas_cube(two_n) == oracles.cube_by_slicing(
            [s for s in families._no_adjacent_ones(two_n)
             if not s[0] == s[-1] == "1"]), two_n


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.sets(st.text("01", min_size=n, max_size=n), min_size=1)))
def test_cube_from_strings_on_any_set_of_strings(strings):
    assert (families._cube_from_strings(list(strings))
            == oracles.cube_by_slicing(strings))


def test_read_graph_counts_parallel_and_reversed_edges_once():
    g = _graph([("a", "b"), ("b", "a"), ("a", "b"), ("c", "b")])
    adj = families._read_graph(g)
    assert (list(map(sorted, adj)), sum(map(len, adj)) // 2) == (
        [[1], [0, 2], [1]], 2)
    assert graph_isomorphic(g, _graph([("x", "y"), ("y", "z")]))

def test_graph_isomorphic_starts_from_the_degree_ranks(monkeypatch):
    """Each vertex starts with the rank of its degree among the degrees of
    both graphs: a path a-b-c-d against its copy listed from the middle.
    Tuple signatures, as _profile gives, search exactly as their ranks
    do: every refinement starts from the same colouring."""
    seen, refine = [], poset._refine
    monkeypatch.setattr(poset, "_refine", lambda adj, n, colour, *rest: (
        seen.append(list(colour)) or refine(adj, n, colour, *rest)))
    path = _graph([("a", "b"), ("b", "c"), ("c", "d")])
    copy = _graph([("b", "c"), ("b", "a"), ("d", "c")], "bcad")
    assert graph_isomorphic(path, copy)
    assert seen[0] == [0, 1, 1, 0, 1, 1, 0, 0]
    adj_g, adj_h = map(families._read_graph, (path, copy))
    end, middle = (1, 2), (2, 1)
    runs = []
    for sig_g, sig_h in (([end, middle, middle, end],
                          [middle, middle, end, end]),
                         ([0, 1, 1, 0], [1, 1, 0, 0])):
        seen.clear()
        runs.append((poset._search(adj_g, adj_h, sig_g, sig_h), seen.copy()))
    assert runs[0] == runs[1] and runs[0][0] is not None


@pytest.mark.parametrize("kind,k,calls_max,visits_max", [
    ("fence", 12, 2, 94_176), ("crown", 12, 5, 192_240)])
def test_cube_search_work_is_bounded(kind, k, calls_max, visits_max,
                                     monkeypatch):
    """A work ledger for graph_isomorphic on the covering graph of F(fence
    (12)) against the Fibonacci cube (n = 377 vertices, m = 1,308 edges)
    and of F(crown(12)) against the Lucas cube (n = 322, m = 1,068).

    Calls.  The first _refine starts from the degree ranks, and each
    further one follows one individualization.  Every refinement but the
    last runs to an equitable colouring, and on these graphs its cells are
    the orbits of the automorphisms that fix the vertices individualized so
    far, so the first candidate of every cell extends to an isomorphism,
    the search never backtracks, and each individualization divides the
    order of that group by its cell's size in g, at least 2.  So calls <= 1
    + floor(log2 |Aut|): the Fibonacci cube's automorphisms are the
    identity and the reversal of the strings (2 calls), and the Lucas
    cube's the 24 rotations and reflections of the cyclic strings (1 +
    floor(log2 24) = 5 calls).  Measured: 2 and 2, since the largest cell
    of the Lucas cube is an orbit of all 24, and individualizing in it
    leaves no automorphism.

    Pops.  The search refines one colouring of the union g ⊔ h.  A pop
    takes one pushed colour; a refinement pushes its starting colours, or
    the one fresh colour, and then one colour for each colour it creates.
    A path that ends in a discrete colouring without backtracking, one
    vertex of each graph per colour, therefore pushes exactly n colours,
    one per colour of the union.  Every refinement but the last empties its
    stack; the last stops at its first discrete colouring, and the colours
    that its last pop created are still on the stack.  So pops <= n - 1.
    Measured: 300 and 217, which leaves 77 and 105 colours unpopped.

    Neighbour visits.  In one refinement a vertex's neighbours are read
    once for each popped cell that holds it.  It is popped at most once
    from the starting stack; every later push puts it in a part that is
    not the largest of its split cell, so into at most half that cell.  On
    this path every cell holds as many vertices of g as of h, so a cell
    shrinks from at most 2n to at least 2 vertices, and the vertex is
    pushed at most floor(log2 n) = 8 times.  The union's degree sum is
    2 * 2m, so over every call visits <= calls * 2 * 2m * 9: 2 * 5,232 * 9
    = 94,176 and 5 * 4,272 * 9 = 192,240.  Measured: 7,232 and 8,098."""
    calls, pops, visits = [0], [0], [0]
    refine, count_parts = poset._refine, poset._count_parts

    def counting_refine(*args):
        calls[0] += 1
        return refine(*args)

    def counting_parts(adj, colour, splitter, tally):
        pops[0] += 1
        visits[0] += sum(len(adj[u]) for u in splitter)
        return count_parts(adj, colour, splitter, tally)

    monkeypatch.setattr(poset, "_refine", counting_refine)
    monkeypatch.setattr(poset, "_count_parts", counting_parts)
    p, model = ((fence(k), fibonacci_cube(k)) if kind == "fence"
                else (crown(k), lucas_cube(k)))
    g = cover_cube(filter_lattice(p))
    assert graph_isomorphic(g, model)
    assert calls[0] <= calls_max and pops[0] <= g.vertex_count - 1
    assert visits[0] <= visits_max
    assert (calls[0], pops[0]) == {"fence": (2, 300), "crown": (2, 217)}[kind]

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
    # isomorphism search never runs.  The pool is drawn before counting:
    # posets_up_to_iso itself searches.
    pool = [p for n in range(6) for p in posets_up_to_iso(n)]
    calls = []
    real = poset._search

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(poset, "_search", counting)
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
