"""Fences, crowns and their filter lattices, whose covering graphs are the
Fibonacci and Lucas cubes.

The fence Z_n is the zigzag on elements 1..n with the even positions at the
bottom (2 < 1, 2 < 3, 4 < 3, ...); the crown on 2n elements closes the zigzag
into a cycle.  Indexing is pinned down by |F(Z_1)| = 2, which forces the
Fibonacci convention F_1 = F_2 = 1 in |F(Z_n)| = F_{n+2}.  fence and crown
read both off their up and down masks: a zigzag has height one, so there
is no closure to compute.

The cubes are built independently as graphs on binary strings (no "11"
substring, additionally no cyclic "11" for the Lucas cube) so that the
identification with covering graphs is a genuine two-sided check.  The
builders work on the strings' int values and name the vertices only at the
end: a cube sets each zero bit of each vertex and looks the result up, and
cover_cube pairs the filter bitstrings off the lattice's upper covers.  The
verify suites certify the identification by the classical isomorphism
(Gansner 1982), _zigzag_translate: flipping every other bit turns the
filter condition on a zigzag into "no two adjacent 1s".  graph_isomorphic
is the general tool on two CubeGraphs: it refuses a graph past
GRAPH_ISO_CAP before it reads either one, reads each into neighbour lists
once (_read_graph) and hands both, with the vertices' degrees as their
signatures, to the exact individualization-refinement search of
latcut.poset, which compares the two graphs' counts and degree sequences
itself and colours their disjoint union from the degree ranks.

Deleting element n from Z_{m+n-2} splits it into two smaller fences, and the
induced convex expansion turns that into the identity

    F_{m+n} = F_m F_{n+1} + F_{m-1} F_n

together with a term-by-term recurrence for the cube-interval counts q_k.
Deleting any element of a crown gives the Lucas analogue L_{2n} = F_{2n+1} +
F_{2n-1}.  verify_fibonacci_decomposition and verify_lucas_decomposition run
the whole chain of checks on one instance each and return a FamilyReport,
whose detail names every check when one fails; the fibonacci and lucas
verify suites print that detail.  The reports compare each part with a
fence, and the round trip compares the expansion with P, exactly through
maps known by construction, so no report runs an isomorphism search, and
a report whose round trip holds reads q of F(P) off the expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityExceeded, OddSize
from .expansion import decompose
from .invariants import check_q_recurrence, poly_eq, poly_eval, q_vector
from .lattice import filter_lattice
from .poset import (FILTER_CAP, Poset, _adjacency, _search, disjoint_union,
                    poset_from_covers)

GRAPH_ISO_CAP = 400


# -- poset generators -----------------------------------------------------------


def chain(n):
    """Total order 1 < 2 < ... < n."""
    labels = [str(i) for i in range(1, n + 1)]
    return poset_from_covers(labels,
                             [(str(i), str(i + 1)) for i in range(1, n)])


def antichain(n):
    return poset_from_covers([str(i) for i in range(1, n + 1)], [])


def _zigzag(n, cyclic):
    """The zigzag on labels 1..n, read off its masks: element i, labelled
    i + 1, is minimal when i is odd and lies below its neighbours i - 1 and
    i + 1, and below 0 too when ``cyclic`` and i = n - 1.  The order has
    height one, so these masks are already closed."""
    full = (1 << n) - 1
    near = [5 << i >> 1 & full for i in range(n)]     # bits i - 1 and i + 1
    if cyclic:
        near[0] |= 1 << n - 1
        near[-1] |= 1
    return Poset([str(i) for i in range(1, n + 1)],
                 [m if i & 1 else 0 for i, m in enumerate(near)],
                 _trusted=True,
                 _down=[0 if i & 1 else m for i, m in enumerate(near)])


def fence(n):
    """Zigzag poset on 1..n, even elements minimal; empty for n <= 0."""
    return _zigzag(max(n, 0), cyclic=False)


def crown(two_n):
    """Cyclic zigzag on 1..two_n: the fence with the extra cover two_n < 1."""
    if two_n % 2:
        raise OddSize("crown needs an even number of elements, got %d" % two_n)
    if two_n < 4:
        raise ValueError("crown needs at least 4 elements, got %d" % two_n)
    return _zigzag(two_n, cyclic=True)


def fib(n, cap=None):
    """F_1 = F_2 = 1; F_0 = 0 so that fib(m-1) makes sense at m = 1."""
    return _two_term("Fibonacci", 0, 1, n, cap)


def lucas(n, cap=None):
    return _two_term("Lucas", 2, 1, n, cap)


def _two_term(name, a, b, n, cap):
    """Term n of a, b, a + b, ..., or, given ``cap``, the first term past it.
    From index 1 on the terms of fib and lucas never fall, so the result
    passes ``cap`` exactly when term n does, after O(log cap) steps."""
    if n < 0:
        raise ValueError("negative %s index" % name)
    for _ in range(n):
        a, b = b, a + b
        if cap is not None and a > cap:
            break
    return a


# -- string-model cubes ---------------------------------------------------------


@dataclass(frozen=True)
class CubeGraph:
    """Undirected graph on binary-string vertices, edges at Hamming distance 1.

    Vertices are lexicographically sorted and edges stored as sorted (u, v)
    pairs with u < v, so equal graphs compare equal and exports are stable.
    """
    vertices: tuple
    edges: tuple

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_list_text(self):
        """One "u v" line per edge, sorted."""
        return "".join("%s %s\n" % e for e in self.edges)


def _cube_from_strings(strings):
    """The Hamming-distance-1 graph on equal-length binary strings.  Each
    string is read as an int, and each of its zero bits is set in turn and
    looked up among the ints: setting a 0 to a 1 gives a string that sorts
    after its own, so every edge comes out as (u, v) with u < v."""
    name = {int(s or "0", 2): s for s in strings}
    full = (1 << len(strings[0])) - 1 if strings else 0
    edges = []
    for v, s in name.items():
        free = full & ~v
        while free:
            low = free & -free
            free ^= low
            t = name.get(v | low)
            if t is not None:
                edges.append((s, t))
    return CubeGraph(vertices=tuple(sorted(strings)), edges=tuple(sorted(edges)))


def _no_adjacent_ones(n):
    """Every length-n binary string without "11": strings of length k are
    "0" + those of length k-1 and "10" + those of length k-2."""
    shorter, strings = [""], ["0", "1"]
    if n == 0:
        return shorter
    for _ in range(n - 1):
        shorter, strings = strings, (["0" + s for s in strings]
                                     + ["10" + s for s in shorter])
    return strings


def fibonacci_cube(n, cap=FILTER_CAP):
    """All length-n binary strings without "11", edges at Hamming distance 1.

    Raises CapacityExceeded, before generating anything, when the F(n+2)
    vertices would exceed ``cap``."""
    if n < 0:
        raise ValueError("negative cube dimension")
    if fib(n + 2, cap) > cap:
        raise CapacityExceeded("Fibonacci cube of dimension %d has more "
                               "than %d vertices" % (n, cap))
    return _cube_from_strings(_no_adjacent_ones(n))


def lucas_cube(two_n, cap=FILTER_CAP):
    """Fibonacci-cube strings with the cyclic constraint: no 1 in both the
    first and last position.  Capped like fibonacci_cube, at L(two_n)
    vertices."""
    if two_n % 2:
        raise OddSize("Lucas cube needs an even length, got %d" % two_n)
    if lucas(two_n, cap) > cap:
        raise CapacityExceeded("Lucas cube of dimension %d has more than %d "
                               "vertices" % (two_n, cap))
    strings = [s for s in _no_adjacent_ones(two_n)
               if not (s and s[0] == "1" and s[-1] == "1")]
    return _cube_from_strings(strings)


def cover_cube(lat):
    """Covering graph of a lattice as a CubeGraph on filter bitstrings.

    Covers in a filter lattice drop exactly one element, so this really is a
    Hamming-distance-1 graph on strings of length |base|; the empty base's
    one filter is the empty string.  An upper cover F - y of F has a 0
    where F has a 1, so its string sorts first: each cover edge (F, F - y)
    is read as (string of F - y, string of F).
    """
    names = [lat.bitstring(a) if lat.base.n else "" for a in range(lat.size)]
    return CubeGraph(vertices=tuple(sorted(names)), edges=tuple(sorted(
        [(names[b], names[a]) for a, b in lat.covering_graph()])))


def _zigzag_translate(g):
    """``g`` with every string XORed with "1010..." (a 1 at each even 0-based
    position): a map that keeps Hamming distance, so equality with a model
    cube is an isomorphism with the map in hand."""
    n = len(g.vertices[0])
    mask = int(("10" * n)[:n] or "0", 2)
    top = 1 << n
    moved = {s: format(int(s or "0", 2) ^ mask | top, "b")[1:]
             for s in g.vertices}
    edges = []
    for u, v in g.edges:
        u, v = moved[u], moved[v]
        edges.append((u, v) if u < v else (v, u))
    return CubeGraph(vertices=tuple(sorted(moved.values())),
                     edges=tuple(sorted(edges)))


def _read_graph(g):
    """The neighbour lists of CubeGraph ``g``, its vertices indexed as
    0..n-1.  Each edge becomes its (lower, higher) index pair, so parallel
    and reversed edges count once, as in a simple graph, and _adjacency
    lists the distinct pairs."""
    index = {x: i for i, x in enumerate(g.vertices)}
    pairs = set()
    for u, v in g.edges:
        a, b = index[u], index[v]
        pairs.add((a, b) if a < b else (b, a))
    return _adjacency(len(g.vertices), pairs)


def graph_isomorphic(g, h):
    """Whether two undirected CubeGraphs are isomorphic, decided exactly.

    Beyond GRAPH_ISO_CAP vertices in either graph it raises CapacityExceeded
    before it reads either graph.  Otherwise it reads both (_read_graph) and
    runs the individualization-refinement search of latcut.poset (_search)
    with each vertex's degree as its signature: the search answers False at
    once to different vertex counts, edge counts or degree sequences, and
    starts each vertex from the rank of its degree.  Every isomorphism
    keeps degrees, so the search loses no map by starting there; a True
    carries an explicit edge-preserving vertex map and a False follows an
    exhaustive search.  A search past its cap of refinements raises
    CapacityExceeded too.
    """
    if max(g.vertex_count, h.vertex_count) > GRAPH_ISO_CAP:
        raise CapacityExceeded(
            "graph isomorphism capped at %d vertices" % GRAPH_ISO_CAP)
    adj_g, adj_h = _read_graph(g), _read_graph(h)
    return _search(adj_g, adj_h, list(map(len, adj_g)),
                   list(map(len, adj_h))) is not None


# -- decomposition reports --------------------------------------------------------


@dataclass(frozen=True, init=False)
class FamilyReport:
    """One deletion identity checked on a fence or a crown: the size and the
    q vector of its filter lattice, and ``detail``, None when every check
    holds and otherwise one line giving each check as name=True/False.

    The checks come in as ``name_ok=`` flags; the detail is formatted, in the
    order given, only when one of them is false, and no flag is kept."""
    lattice_size: int
    q: tuple
    detail: str | None

    def __init__(self, lattice_size, q, detail=None, **checks):
        if not all(checks.values()):
            detail = " ".join("%s=%r" % (name.removesuffix("_ok"), ok)
                              for name, ok in checks.items())
        object.__setattr__(self, "lattice_size", lattice_size)
        object.__setattr__(self, "q", tuple(q))
        object.__setattr__(self, "detail", detail)

    @property
    def ok(self):
        return self.detail is None


def _fence_pair_iso(p, a, b):
    """Whether p is fence(a) beside fence(b) or beside fence(b).dual(), up
    mask by up mask in index order; the labels are not compared.

    Deleting element n of a fence leaves 1..n-1 as fence(n - 1) itself.
    The far piece starts at n + 1, which is a top, as in fence(), when n is
    even and a bottom, as in the dual, when n is odd; deleting n with its
    neighbours starts it at n + 2, the other way round.  So either index
    order counts for the far piece, and none other: equal masks are an
    isomorphism with the map in hand, and no search runs.
    """
    left, right = fence(a), fence(b)
    return any(p.up == disjoint_union(left, side).up
               for side in (right, right.dual()))


def _split(p, x):
    """Decompose F(P) at x; returns the decomposition, q of its expansion
    L', and the expansion and q flags.  A round trip that holds proves the
    walk's lattice to be L' with x moved back, so L''s q is F(P)'s; only a
    failed round trip walks P again and compares q of F(P)."""
    dec = decompose(p, x)
    q_big = q_vector(dec.expansion.lattice)
    expansion_ok = dec.counts_ok and dec.expansion_iso_ok
    return dec, q_big, expansion_ok, (
        check_q_recurrence(dec.expansion) is None
        and (expansion_ok or poly_eq(q_big, q_vector(filter_lattice(p)))))


def verify_fibonacci_decomposition(m, n):
    """Delete element n from the fence on m+n-2 elements.  The checks:
    count, |F(Z_{m+n-2})| = F_{m+n}; identity, F_{m+n} = F_m F_{n+1} +
    F_{m-1} F_n by the part sizes; minus and star, the two parts are
    Z_{n-1} + Z_{m-2} and Z_{n-2} + Z_{m-3} side by side, up mask by up
    mask in index order (_fence_pair_iso); expansion, the
    expansion of the host at the cut interval rebuilds F; q, the q
    recurrence, and, when the round trip fails, q of the expansion against
    that of F built from the round trip's walk (_split)."""
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    dec, q_big, expansion_ok, q_ok = _split(fence(m + n - 2), str(n))
    exp = dec.expansion
    host = exp.host

    identity_ok = (host.size == fib(m) * fib(n + 1)
                   and len(host.between(*exp.interval)) == fib(m - 1) * fib(n)
                   and fib(m + n) == fib(m) * fib(n + 1) + fib(m - 1) * fib(n))

    return FamilyReport(
        dec.size, q_big,
        count_ok=dec.size == fib(m + n),
        identity_ok=identity_ok,
        minus_ok=_fence_pair_iso(host.base, n - 1, m - 2),
        star_ok=_fence_pair_iso(dec.star, n - 2, m - 3),
        expansion_ok=expansion_ok, q_ok=q_ok)


def verify_lucas_decomposition(n):
    """Delete element 2n from the crown on 2n elements.  The checks:
    count, |F(crown)| = L_{2n} = F_{2n+1} + F_{2n-1}; minus and star, the
    parts are Z_{2n-1} and the dual of Z_{2n-3}, up mask by up mask in
    index order; dual_q, q of the interval against q of F(dual star);
    expansion and q as for the fences; euler, Q(-1) = 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    dec, q_big, expansion_ok, q_ok = _split(crown(2 * n), str(2 * n))
    exp = dec.expansion
    host = exp.host

    return FamilyReport(
        dec.size, q_big,
        count_ok=(dec.size == lucas(2 * n) == fib(2 * n + 1) + fib(2 * n - 1)
                  and host.size == fib(2 * n + 1)),
        minus_ok=host.base.up == fence(2 * n - 1).up,
        # The second factor of the crown split is the dual fence: deleting a
        # bottom element and its two neighbours leaves the zigzag 2..2n-2,
        # which starts and ends at a bottom.
        star_ok=dec.star.up == fence(2 * n - 3).dual().up,
        # The second summand enters the lattice-level statement through the
        # dual fence; q is invariant under dualizing, checked here rather
        # than assumed.
        dual_q_ok=poly_eq(q_vector(exp.interval_lattice),
                          q_vector(filter_lattice(dec.star.dual()))),
        expansion_ok=expansion_ok, q_ok=q_ok,
        euler_ok=poly_eval(q_big, -1) == 1)
