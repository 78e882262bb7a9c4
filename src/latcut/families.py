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
identification with covering graphs is a genuine two-sided check.  A
CubeGraph holds each string as its int code, bit i for character i as in
Poset.bitstring, and only its edge_list_text makes the strings.  The cube
builders generate the codes without two adjacent 1 bits directly, clear
each 1 bit of each code and look the result up; cover_cube takes the
lattice's filters as its codes and pairs each F with F - y, y in min F,
off the minima.  The verify suites certify the identification by the
classical isomorphism (Gansner 1982), _zigzag_translate: flipping every
other bit, one XOR per code, turns the filter condition on a zigzag into
"no two adjacent 1s".  graph_isomorphic is the general tool on two
CubeGraphs: it refuses a graph past GRAPH_ISO_CAP before it reads either
one, reads each once into adjacency masks and hands both, with the
vertices' degrees as their signatures, to the placement backtrack of
latcut.poset, which compares the two graphs' sizes and degree sequences
itself.

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
from .poset import (FILTER_CAP, Poset, _backtrack, disjoint_union,
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


# -- cubes on int codes ---------------------------------------------------------


@dataclass(frozen=True)
class CubeGraph:
    """Undirected graph on binary strings of length ``dim``, edges at
    Hamming distance 1, held as int codes: bit i of a code is character i
    of its string, as in Poset.bitstring.

    The builders sort the vertices and store each edge as (u, v) with u < v,
    the edges sorted, so equal graphs compare equal.  A code u below v at
    Hamming distance 1 lacks the one bit that v has, so its string sorts
    first too.
    """
    dim: int
    vertices: tuple
    edges: tuple

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_list_text(self):
        """One "u v" line per edge, sorted as strings; the only place the
        strings are made."""
        top = 1 << self.dim
        name = {v: format(v | top, "b")[:0:-1] for v in self.vertices}
        return "".join(sorted(["%s %s\n" % (name[u], name[v])
                               for u, v in self.edges]))


def _cube(dim, codes):
    """The Hamming-distance-1 graph on these codes of length-``dim``
    strings.  Each one bit of each code is cleared in turn and the result
    looked up among the codes, so every edge comes out as (u, v) with
    u < v.  The cubes' vertex sets are closed under clearing a bit, so
    every lookup there finds its edge."""
    have = set(codes)
    edges = []
    for v in have:
        rest = v
        while rest:
            low = rest & -rest
            rest ^= low
            if v ^ low in have:
                edges.append((v ^ low, v))
    return CubeGraph(dim, tuple(sorted(have)), tuple(sorted(edges)))


def _no_adjacent_ones(n):
    """The codes, in increasing order, of every length-n string without
    "11": those of length k are the codes of length k - 1, and those of
    length k - 2 with bit k - 1 set."""
    shorter, codes = [0], [0, 1]
    if n == 0:
        return shorter
    for k in range(1, n):
        shorter, codes = codes, codes + [c | 1 << k for c in shorter]
    return codes


def fibonacci_cube(n, cap=FILTER_CAP):
    """All length-n binary strings without "11", edges at Hamming distance 1.

    Raises CapacityExceeded, before generating anything, when the F(n+2)
    vertices would exceed ``cap``."""
    if n < 0:
        raise ValueError("negative cube dimension")
    if fib(n + 2, cap) > cap:
        raise CapacityExceeded("Fibonacci cube of dimension %d has more "
                               "than %d vertices" % (n, cap))
    return _cube(n, _no_adjacent_ones(n))


def lucas_cube(two_n, cap=FILTER_CAP):
    """Fibonacci-cube strings with the cyclic constraint: no 1 in both the
    first and last position.  Capped like fibonacci_cube, at L(two_n)
    vertices, but at one for two_n = 0: the empty string alone, though
    L(0) = 2."""
    if two_n % 2:
        raise OddSize("Lucas cube needs an even length, got %d" % two_n)
    if (lucas(two_n, cap) if two_n else 1) > cap:
        raise CapacityExceeded("Lucas cube of dimension %d has more than %d "
                               "vertices" % (two_n, cap))
    return _cube(two_n, [c for c in _no_adjacent_ones(two_n)
                         if not (c & 1 and c >> two_n - 1 & 1)])


def cover_cube(lat):
    """Covering graph of a lattice as a CubeGraph on its filters, strings of
    length |base|; the empty base's one filter is the empty string.

    The upper covers of F are the F - y, y in min F: each drops exactly
    one element, so this really is a Hamming-distance-1 graph.  Each edge
    is read off the minima as (F - y, F), the smaller code first, with no
    cover tuple built and no index looked up.
    """
    edges = []
    for f, m in zip(lat.filters, lat.minima):
        while m:
            low = m & -m
            m ^= low
            edges.append((f ^ low, f))
    return CubeGraph(lat.base.n, tuple(sorted(lat.filters)),
                     tuple(sorted(edges)))


def _zigzag_translate(g):
    """``g`` with every code XORed with the 1s at the even 0-based
    positions, "1010...": a map that keeps Hamming distance, so equality
    with a model cube is an isomorphism with the map in hand.  An edge
    whose bit lies in the mask swaps its ends."""
    mask = sum(1 << i for i in range(0, g.dim, 2))
    edges = []
    for u, v in g.edges:
        u, v = u ^ mask, v ^ mask
        edges.append((u, v) if u < v else (v, u))
    return CubeGraph(g.dim, tuple(sorted([v ^ mask for v in g.vertices])),
                     tuple(sorted(edges)))


def graph_isomorphic(g, h):
    """Whether two undirected CubeGraphs are isomorphic, decided exactly.

    Beyond GRAPH_ISO_CAP vertices in either graph it raises CapacityExceeded
    before it reads either graph.  Otherwise it reads each vertex's
    neighbours into one mask, so parallel and reversed edges count once,
    as in a simple graph, and runs the backtrack of latcut.poset with the
    masks as both relations and each vertex's degree as its signature: the
    backtrack answers False at once to different vertex counts or degree
    sequences.  A True carries an explicit edge-preserving vertex map and a
    False follows an exhaustive search.  A search past its cap of
    placements raises CapacityExceeded too.
    """
    if max(g.vertex_count, h.vertex_count) > GRAPH_ISO_CAP:
        raise CapacityExceeded(
            "graph isomorphism capped at %d vertices" % GRAPH_ISO_CAP)
    masks = []
    for graph in g, h:
        index = {x: i for i, x in enumerate(graph.vertices)}
        near = [0] * len(index)
        for u, v in graph.edges:
            a, b = index[u], index[v]
            near[a] |= 1 << b
            near[b] |= 1 << a
        masks.append(near)
    near_g, near_h = masks
    return _backtrack(near_g, near_g, near_h, near_h,
                      [m.bit_count() for m in near_g],
                      [m.bit_count() for m in near_h]) is not None


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
