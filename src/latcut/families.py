"""Fences, crowns and their filter lattices, whose covering graphs are the
Fibonacci and Lucas cubes.

The fence Z_n is the zigzag on elements 1..n with the even positions at the
bottom (2 < 1, 2 < 3, 4 < 3, ...); the crown on 2n elements closes the zigzag
into a cycle.  Indexing is pinned down by |F(Z_1)| = 2, which forces the
Fibonacci convention F_1 = F_2 = 1 in |F(Z_n)| = F_{n+2}.

The cubes are built independently as graphs on binary strings (no "11"
substring, additionally no cyclic "11" for the Lucas cube) so that the
identification with covering graphs is a genuine two-sided check.  The
verify suites certify it by the classical isomorphism (Gansner 1982),
_zigzag_translate: flipping every other bit turns the filter condition on a
zigzag into "no two adjacent 1s".  graph_isomorphic is the general tool on
two CubeGraphs, the exact individualization-refinement search of
latcut.poset.

Deleting element n from Z_{m+n-2} splits it into two smaller fences, and the
induced convex expansion turns that into the identity

    F_{m+n} = F_m F_{n+1} + F_{m-1} F_n

together with a term-by-term recurrence for the cube-interval counts q_k.
Deleting any element of a crown gives the Lucas analogue L_{2n} = F_{2n+1} +
F_{2n-1}.  verify_fibonacci_decomposition and verify_lucas_decomposition run
the whole chain of checks on one instance each and return a FamilyReport,
whose detail names every check when one fails; the fibonacci and lucas
verify suites print that detail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityExceeded, OddSize
from .expansion import decompose
from .invariants import check_q_recurrence, poly_eq, poly_eval, q_vector
from .lattice import filter_lattice
from .poset import (FILTER_CAP, _search, disjoint_union, poset_from_covers,
                    poset_isomorphic)

GRAPH_ISO_CAP = 400


# -- poset generators -----------------------------------------------------------


def chain(n):
    """Total order 1 < 2 < ... < n."""
    labels = [str(i) for i in range(1, n + 1)]
    return poset_from_covers(labels,
                             [(str(i), str(i + 1)) for i in range(1, n)])


def antichain(n):
    return poset_from_covers([str(i) for i in range(1, n + 1)], [])


def fence(n):
    """Zigzag poset on 1..n, even elements minimal; empty for n <= 0."""
    labels = [str(i) for i in range(1, n + 1)]
    return poset_from_covers(labels, [(str(i), str(j))
                                      for i in range(2, n + 1, 2)
                                      for j in (i - 1, i + 1) if j <= n])


def crown(two_n):
    """Cyclic zigzag on 1..two_n: the fence with the extra cover two_n < 1."""
    if two_n % 2:
        raise OddSize("crown needs an even number of elements, got %d" % two_n)
    if two_n < 4:
        raise ValueError("crown needs at least 4 elements, got %d" % two_n)
    labels = [str(i) for i in range(1, two_n + 1)]
    covers = []
    for i in range(2, two_n + 1, 2):
        covers.append((str(i), str(i - 1)))
        covers.append((str(i), str(i + 1) if i < two_n else "1"))
    return poset_from_covers(labels, covers)


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
    verts = sorted(strings)
    have = set(verts)
    edges = []
    for s in verts:
        for i, c in enumerate(s):
            if c == "0":
                t = s[:i] + "1" + s[i + 1:]
                if t in have:
                    edges.append((s, t) if s < t else (t, s))
    return CubeGraph(vertices=tuple(verts), edges=tuple(sorted(edges)))


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
    one filter is the empty string.
    """
    names = [lat.bitstring(a) if lat.base.n else "" for a in range(lat.size)]
    return CubeGraph(vertices=tuple(sorted(names)), edges=tuple(sorted(
        tuple(sorted((names[a], names[b]))) for a, b in lat.covering_graph())))


def _zigzag_translate(g):
    """``g`` with every string XORed with "1010..." (a 1 at each even 0-based
    position): a map that keeps Hamming distance, so equality with a model
    cube is an isomorphism with the map in hand."""
    n = len(g.vertices[0])
    mask = ("10" * n)[:n]
    moved = {s: "".join("01"[a != b] for a, b in zip(s, mask))
             for s in g.vertices}
    return CubeGraph(vertices=tuple(sorted(moved.values())),
                     edges=tuple(sorted(tuple(sorted((moved[u], moved[v])))
                                        for u, v in g.edges)))


def _read_graph(g):
    """Index the vertices of CubeGraph ``g`` as 0..n-1; returns (adjacency
    sets, edge count).  Parallel and reversed edges count once, as in a
    simple graph."""
    index = {x: i for i, x in enumerate(g.vertices)}
    pairs = [(index[u], index[v]) for u, v in g.edges]
    adj = [set() for _ in g.vertices]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj, len({frozenset(p) for p in pairs})


def graph_isomorphic(g, h):
    """Whether two undirected CubeGraphs are isomorphic, decided exactly.

    Beyond GRAPH_ISO_CAP vertices in either graph it raises CapacityExceeded
    before any search; different vertex counts, edge counts or degree
    sequences return False at once.  Otherwise it runs the
    individualization-refinement search of latcut.poset (_search) from one
    colour for every vertex, so a True carries an explicit edge-preserving
    vertex map and a False follows an exhaustive search.
    """
    adj_g, m_g = _read_graph(g)
    adj_h, m_h = _read_graph(h)
    n = len(adj_g)
    if max(n, len(adj_h)) > GRAPH_ISO_CAP:
        raise CapacityExceeded(
            "graph isomorphism capped at %d vertices" % GRAPH_ISO_CAP)
    if n != len(adj_h) or m_g != m_h:
        return False
    if sorted(map(len, adj_g)) != sorted(map(len, adj_h)):
        return False
    return _search(adj_g, adj_h, [0] * n, [0] * n) is not None


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
    """p isomorphic to a disjoint union of zigzags on a and b elements.

    A zigzag of odd length comes in two orientations (one more top than
    bottom, or the reverse); deleting an element from a fence leaves the far
    piece in the orientation opposite to fence() when the deleted position is
    odd.  Either orientation counts as "a fence" here.
    """
    fa, fb = fence(a), fence(b)
    for left in (fa, fa.dual()):
        for right in (fb, fb.dual()):
            if poset_isomorphic(p, disjoint_union(left, right)):
                return True
    return False


def verify_fibonacci_decomposition(m, n, direct=None):
    """Delete element n from the fence on m+n-2 elements.  The checks:
    count, |F(Z_{m+n-2})| = F_{m+n}; identity, F_{m+n} = F_m F_{n+1} +
    F_{m-1} F_n by the part sizes; minus and star, the two parts are
    Z_{n-1} + Z_{m-2} and Z_{n-2} + Z_{m-3} side by side; expansion, the
    expansion of the host at the cut interval rebuilds F; q, the q
    recurrence, and q of the expansion against that of ``direct``.

    ``direct`` is F(fence(m + n - 2)) built from scratch, when the caller
    has it; it is built here otherwise.  It never comes from the
    expansion."""
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    s = m + n - 2
    p = fence(s)
    dec = decompose(p, str(n))
    exp = dec.expansion
    host = exp.host

    identity_ok = (host.size == fib(m) * fib(n + 1)
                   and len(host.between(*exp.interval)) == fib(m - 1) * fib(n)
                   and fib(m + n) == fib(m) * fib(n + 1) + fib(m - 1) * fib(n))

    q_detail = check_q_recurrence(exp)
    q_big = q_vector(exp.lattice)
    # Independent rebuild of the big lattice, not reusing the expansion.
    if direct is None:
        direct = filter_lattice(p)

    return FamilyReport(
        dec.size, q_big,
        count_ok=dec.size == fib(m + n),
        identity_ok=identity_ok,
        minus_ok=_fence_pair_iso(host.base, n - 1, m - 2),
        star_ok=_fence_pair_iso(dec.star, n - 2, m - 3),
        expansion_ok=dec.counts_ok and dec.expansion_iso_ok,
        q_ok=q_detail is None and poly_eq(q_big, q_vector(direct)))


def verify_lucas_decomposition(n):
    """Delete one element from the crown on 2n elements.  The checks:
    count, |F(crown)| = L_{2n} = F_{2n+1} + F_{2n-1}; minus and star, the
    parts are Z_{2n-1} and the dual of Z_{2n-3}; dual_q, q of the interval
    against q of F(dual star); expansion and q as for the fences; euler,
    Q(-1) = 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = crown(2 * n)
    dec = decompose(p, str(2 * n))
    exp = dec.expansion
    host = exp.host

    q_detail = check_q_recurrence(exp)
    q_big = q_vector(exp.lattice)

    return FamilyReport(
        dec.size, q_big,
        count_ok=(dec.size == lucas(2 * n) == fib(2 * n + 1) + fib(2 * n - 1)
                  and host.size == fib(2 * n + 1)),
        minus_ok=poset_isomorphic(host.base, fence(2 * n - 1)),
        # The second factor of the crown split is the dual fence: deleting a
        # bottom element and its two neighbours leaves the zigzag
        # bottom-heavy.
        star_ok=poset_isomorphic(dec.star, fence(2 * n - 3).dual()),
        # The second summand enters the lattice-level statement through the
        # dual fence; q is invariant under dualizing, checked here rather
        # than assumed.
        dual_q_ok=poly_eq(q_vector(exp.interval_lattice),
                          q_vector(filter_lattice(dec.star.dual()))),
        expansion_ok=dec.counts_ok and dec.expansion_iso_ok,
        q_ok=(q_detail is None
              and poly_eq(q_big, q_vector(filter_lattice(p)))),
        euler_ok=poly_eval(q_big, -1) == 1)
