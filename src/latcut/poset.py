"""Finite posets on labelled elements.

Elements carry string labels and are indexed 0..n-1 in declaration order.
The strict order relation is stored as one bitmask per element: ``up[i]``
holds the elements strictly above element i, ``down[i]`` those strictly
below.  Subsets handed in and out of the API (filters, antichains, boundary
sets) are plain int bitmasks over these indices; see :mod:`latcut.bits`.

Isomorphism is decided by the one individualization-refinement search of
the package (_search), on two graphs given as neighbour lists (built by
_adjacency) and one signature per vertex: poset_isomorphism runs it on the
cover graphs with each element's (|down|, |up|), and
latcut.families.graph_isomorphic on CubeGraphs with each vertex's degree.
The search itself refuses graphs whose vertex counts, edge counts or
sorted signatures differ, and starts each vertex from its signature's
rank.  It works on the disjoint union of the two graphs, with one
colouring of it, so a colour means the same in both.  Its
colour refinement (_refine) splits cells by their neighbour counts in one
splitter cell at a time, so a search node that individualizes a pair of
vertices pays for the splits that follow from that pair, not for a re-sort
of every vertex's neighbour colours.  Each cell is a list of its
vertices: a split appends each new part as its own list and re-filters
the cell it left.  The refinement stops at its first discrete colouring,
whose pair map the leaf's edge test (_leaf_map) accepts or refuses.

Instances are immutable by convention: every operation returns a new poset.
Concurrent readers are safe because the only mutation ever performed is the
one-shot population of internal caches with values that are functions of the
immutable relation.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .bits import iter_bits, mask_of
from .errors import CapacityExceeded, CycleDetected, DuplicateLabel, UnknownLabel

#: Default guard against runaway filter/antichain enumerations.
FILTER_CAP = 1 << 20


class Poset:
    """A finite partial order.

    Construct with :func:`poset_from_covers`; the raw constructor trusts its
    arguments (``up`` must already be transitively closed and acyclic, and
    ``_down``, when given, its transpose).
    """

    def __init__(self, labels, up, _trusted=False, _down=None):
        if not _trusted:
            raise TypeError("use poset_from_covers() to build a Poset")
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.full_mask = (1 << self.n) - 1
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.up = tuple(up)
        self.down = tuple(_transpose(self.up) if _down is None else _down)
        self._covers_up = None

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return self.n

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.up == other.up

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return "Poset(%d elements, %d covers)" % (self.n, len(self.cover_masks()))

    def idx(self, label):
        try:
            return self.index[label]
        except KeyError:
            raise UnknownLabel("no element labelled %r" % (label,)) from None

    def lt(self, i, j):
        """Strict order on element indices."""
        return bool(self.up[i] >> j & 1)

    def comparable_mask(self, i):
        """Everything comparable to element i, including i itself."""
        return self.up[i] | self.down[i] | (1 << i)

    def labels_of(self, bits):
        """The labels of a subset, in index order."""
        return [self.labels[i] for i in iter_bits(bits)]

    def bitstring(self, bits):
        """Render a subset as a 0/1 string, element 0 leftmost.

        The empty-universe subset (n = 0) renders as ``"e"``.
        """
        if self.n == 0:
            return "e"
        # A 1 above bit n-1 keeps the leading zeros; reversed, it is dropped.
        return format(bits & self.full_mask | 1 << self.n, "b")[:0:-1]

    def bits_from_string(self, s):
        if self.n == 0 and s == "e":
            return 0
        if len(s) != self.n or set(s) - {"0", "1"}:
            raise UnknownLabel("bad bitstring %r for %d-element poset" % (s, self.n))
        return mask_of(i for i, c in enumerate(s) if c == "1")

    # -- covers ------------------------------------------------------------

    def cover_masks(self):
        """Transitive reduction: list of (lower, upper) index pairs."""
        if self._covers_up is None:
            up, down = self.up, self.down
            covers = []
            for i in range(self.n):
                rest = up[i]
                while rest:
                    low = rest & -rest
                    j = low.bit_length() - 1
                    # Whatever lies above j is above i through j, so it is
                    # no cover of i: it leaves the bits still to visit.
                    rest &= ~(up[j] | low)
                    # i < j is a cover when nothing sits strictly between.
                    if up[i] & down[j] == 0:
                        covers.append((i, j))
            self._covers_up = tuple(covers)
        return self._covers_up

    def cover_pairs(self):
        """Covers as (lower_label, upper_label) pairs."""
        return [(self.labels[i], self.labels[j]) for i, j in self.cover_masks()]

    # -- subset predicates ---------------------------------------------------

    def min_of(self, bits):
        """Mask of the minimal elements of a subset."""
        return mask_of(i for i in iter_bits(bits) if self.down[i] & bits == 0)

    def max_of(self, bits):
        return mask_of(i for i in iter_bits(bits) if self.up[i] & bits == 0)

    def up_closure(self, bits):
        m = bits
        for i in iter_bits(bits):
            m |= self.up[i]
        return m

    def down_closure(self, bits):
        m = bits
        for i in iter_bits(bits):
            m |= self.down[i]
        return m

    # -- enumeration ---------------------------------------------------------

    def refuse_wide(self, cap=FILTER_CAP):
        """Raise CapacityExceeded, in O(n), when the minimal or the maximal
        elements alone force more than ``cap`` filters: each is an antichain
        of some size w, and every subset of an antichain generates its own
        filter, so there are at least 2^w.  The minimal elements of the
        whole poset are those with nothing below, the maximal ones those
        with nothing above."""
        wide = max(self.down.count(0), self.up.count(0))
        if 1 << wide > cap:
            raise CapacityExceeded(
                "an antichain of %d elements forces more than %d filters"
                % (wide, cap))

    def split(self, mask):
        """How the subposet on ``mask`` splits by the sum laws.

        Returns ``("union", parts)`` when its comparability graph has two or
        more components (the subposet is their disjoint union), else
        ``("sum", parts)`` when its incomparability graph has two or more
        (the subposet is their ordinal sum; parts come bottom-first), else
        ``("prime", [mask])``.  Parts are masks; a union's come lowest
        first.

        Each graph is swept inline over ``up[j] | down[j]``, the elements
        comparable to j, complemented for the incomparability graph.  A
        part grows from the lowest element left; every element it reaches
        leaves ``rest`` at once, so each element is visited once per sweep,
        and the part is what left ``rest``.
        """
        up, down = self.up, self.down
        for kind, flip in ("union", 0), ("sum", -1):
            parts = []
            rest = mask
            while rest:
                start = rest
                frontier = rest & -rest
                rest ^= frontier
                while frontier:
                    j = frontier.bit_length() - 1
                    frontier ^= 1 << j
                    new = ((up[j] | down[j]) ^ flip) & rest
                    rest ^= new
                    frontier |= new
                parts.append(start ^ rest)
            if len(parts) > 1:
                if kind == "sum":
                    # Each part lies wholly above or below each other one,
                    # so the elements below a part's first element, outside
                    # the part, are exactly the parts beneath it.
                    parts.sort(key=lambda c: (
                        down[(c & -c).bit_length() - 1] & mask & ~c
                    ).bit_count())
                return kind, parts
        return "prime", [mask]

    def filters_with_minima(self, cap=FILTER_CAP):
        """Yield ``(F, A)`` for every filter F of the poset, where A = min F.

        Filters correspond one to one with antichains via A -> up(A), and
        min(up(A)) = A.  This is an iterative DFS over antichains: members are
        picked in increasing index order, so each antichain appears exactly
        once, and a node carries (A, up(A), candidates) so that
        up(A + j) = up(A) | up[j] | j costs O(1) big-int operations.  Nodes
        come in preorder: A before its extensions, smaller picks first.

        Raises CapacityExceeded when more than ``cap`` filters exist: before
        the DFS starts when :meth:`refuse_wide` does, otherwise as soon as
        the DFS passes it.
        """
        n = self.n
        self.refuse_wide(cap)
        up, down = self.up, self.down
        closed = [up[j] | 1 << j for j in range(n)]
        incomp = [self.full_mask & ~(up[j] | down[j] | 1 << j)
                  for j in range(n)]
        seen = 0
        stack = [(0, 0, self.full_mask)]
        while stack:
            a, f, cand = stack.pop()
            seen += 1
            if seen > cap:
                raise CapacityExceeded("more than %d filters" % cap)
            yield f, a
            # Push the extensions by decreasing pick, so the smallest pops
            # first; each may only add candidates above its own pick.
            later = 0
            while cand:
                j = cand.bit_length() - 1
                bit = 1 << j
                cand ^= bit
                stack.append((a | bit, f | closed[j], later & incomp[j]))
                later |= bit

    def filters(self, cap=FILTER_CAP):
        """All upward closed subsets, sorted by (size, numeric mask value).

        Runs the antichain DFS of :meth:`filters_with_minima`, whose cost is
        bounded by the number of filters.  Raises CapacityExceeded when more
        than ``cap`` filters exist.
        """
        n = self.n
        keys = sorted([f.bit_count() << n | f
                       for f, _ in self.filters_with_minima(cap)])
        full = self.full_mask
        return [k & full for k in keys]

    # -- derived posets --------------------------------------------------------

    def restrict(self, keep_mask):
        """Induced subposet on a subset mask, labels preserved; its masks
        are P's through :func:`_compress`."""
        squeeze = _compress(keep_mask)
        old = list(iter_bits(keep_mask))
        return Poset([self.labels[o] for o in old],
                     [squeeze(self.up[o]) for o in old], _trusted=True,
                     _down=[squeeze(self.down[o]) for o in old])

    def minus(self, x):
        """Delete the element labelled x."""
        return self.restrict(self.full_mask & ~(1 << self.idx(x)))

    def star(self, x):
        """Delete x together with everything comparable to it."""
        return self.restrict(self.full_mask & ~self.comparable_mask(self.idx(x)))

    def dual(self):
        """Order-reversed poset on the same labels."""
        return Poset(self.labels, self.down, _trusted=True, _down=self.up)


def _compress(keep_mask):
    """The map from P's masks to those of its restriction to ``keep_mask``.
    Each maximal run of kept bits moves down as one block: a mask is
    compressed by one shift and one AND per run (two for P - x)."""
    runs = []
    rest, dest = keep_mask, 0
    while rest:
        start = (rest & -rest).bit_length() - 1
        high = rest >> start
        length = ((high + 1) & ~high).bit_length() - 1
        width = (1 << length) - 1
        runs.append((start, width, dest))
        rest &= ~(width << start)
        dest += length

    def squeeze(mask):
        out = 0
        for start, width, to in runs:
            out |= (mask >> start & width) << to
        return out

    return squeeze


# Bytes "0" and "1" as the flags 0 and 1.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _transpose(rows):
    """The columns of the square bit matrix whose row i is ``rows[i]``:
    column j has bit i set when row i has bit j.  Eight rows at a time
    become one int whose byte j holds their bits j, so column j is the
    strided slice of those ints' bytes at j, read into its int once."""
    n = len(rows)
    blocks = bytearray()
    for r in range(0, n, 8):
        word = 0
        for t, row in enumerate(rows[r:r + 8]):
            flags = format(row | 1 << n, "b")[:0:-1].encode().translate(_FLAGS)
            word |= int.from_bytes(flags, "little") << t
        blocks += word.to_bytes(n, "little")
    return [int.from_bytes(blocks[j::n], "little") for j in range(n)]


def _close(rows, order):
    """Close ``rows``, one successor mask per element, transitively in
    place, visiting each element after its successors, and return it.  A
    row ORs in the closed row of its lowest successor still to visit, then
    skips every successor that row already holds."""
    for i in order:
        m = todo = rows[i]
        while todo:
            low = todo & -todo
            reached = rows[low.bit_length() - 1]
            m |= reached
            todo ^= todo & reached | low
        rows[i] = m
    return rows


# -- construction ------------------------------------------------------------


def poset_from_covers(labels, covers):
    """Build a poset from labels (declaration order fixes indices) and a list
    of (lower_label, upper_label) cover pairs.

    The pairs may be any generating relation; :func:`_close` closes it up
    and down here, and the reduction is recovered on demand.  Raises
    DuplicateLabel / UnknownLabel / CycleDetected.
    """
    labels = list(labels)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel("label %r declared twice" % (lab,))
        seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    succ = [0] * n
    pred = [0] * n
    for lo, hi in covers:
        if lo not in index:
            raise UnknownLabel("no element labelled %r" % (lo,))
        if hi not in index:
            raise UnknownLabel("no element labelled %r" % (hi,))
        i, j = index[lo], index[hi]
        if i == j:
            raise CycleDetected("cover (%r, %r) relates an element to itself"
                                % (lo, hi))
        succ[i] |= 1 << j
        pred[j] |= 1 << i

    # Kahn's algorithm: a topological order proves acyclicity.  Closing up
    # in reverse topological order, and down in topological order, takes
    # one pass each.
    indeg = [0] * n
    for i in range(n):
        for j in iter_bits(succ[i]):
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    topo = []
    while queue:
        i = queue.pop()
        topo.append(i)
        for j in iter_bits(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(topo) != n:
        raise CycleDetected("cover relation contains a cycle")

    return Poset(labels, _close(succ, reversed(topo)), _trusted=True,
                 _down=_close(pred, topo))


def singleton(label="x"):
    return poset_from_covers([label], [])


# -- sums ---------------------------------------------------------------------


def _merge_labels(p, q):
    if set(p.labels) & set(q.labels):
        return (["L." + lab for lab in p.labels],
                ["R." + lab for lab in q.labels])
    return list(p.labels), list(q.labels)


def disjoint_union(p, q):
    """Side-by-side union; colliding labels get "L."/"R." prefixes."""
    pl, ql = _merge_labels(p, q)
    up = list(p.up) + [m << p.n for m in q.up]
    down = list(p.down) + [m << p.n for m in q.down]
    return Poset(pl + ql, up, _trusted=True, _down=down)


def ordinal_sum(p, q):
    """Every element of p below every element of q."""
    pl, ql = _merge_labels(p, q)
    q_above = ((1 << q.n) - 1) << p.n
    up = [m | q_above for m in p.up] + [m << p.n for m in q.up]
    down = list(p.down) + [m << p.n | p.full_mask for m in q.down]
    return Poset(pl + ql, up, _trusted=True, _down=down)


# -- isomorphism ----------------------------------------------------------------


def _refine(adj, n, colour, splitters=None):
    """Refine the colouring ``colour`` of the disjoint union of two graphs,
    g on the vertices 0..n-1 and h on n..2n-1 (``adj`` holds the union's
    neighbour lists), towards the coarsest equitable partition that refines
    it: any two vertices of one colour, in either graph, have equally many
    neighbours of each colour.  The colouring uses each of the colours
    0..k-1.  A colour is one cell of the union, so it means the same in g
    and h by construction.

    Each cell is a list of its vertices.  A stack holds the splitter cells:
    every colour, or only those named in ``splitters`` when each cell
    already has equal counts into every other one.  For the popped cell,
    each vertex counts its neighbours inside it (_count_parts), and every
    cell that a count touches splits by count, in ascending count order:
    the first part keeps the cell's colour and the others take new ones,
    each appended as its own list, and the split cell is re-filtered to the
    vertices that kept its colour.  When the split cell was still queued
    its new parts are pushed; otherwise every part but the largest, since
    the counts into that one follow from those into the cell and the other
    parts.

    The refinement stops at the first colouring with n colours, or when the
    stack is empty, so every colouring it returns with fewer colours is
    equitable.  At n colours, if each holds one vertex of g and one of h,
    the colouring is discrete, and it is equitable exactly when its pair
    map is an isomorphism: further splits could only refute that map, and
    _leaf_map's edge test decides it.  Past n colours some colour holds a
    single vertex.

    Returns (colours, the number of vertices of each colour), or None when
    some colour holds unequally many vertices of g and of h.  One comparison of the two
    graphs' sorted colours, at the end, refuses whatever a comparison at
    every pop would: a split divides its cell's surplus of g vertices among
    its parts, so a cell unbalanced at any pop leaves an unbalanced cell in
    every later colouring.  The argument is left unchanged.

    A refinement costs about the degree sums of the cells it pops plus the
    sizes of the cells it splits."""
    colour = list(colour)
    cells = [[] for _ in range(max(colour, default=-1) + 1)]
    for v, c in enumerate(colour):
        cells[c].append(v)
    stack = list(range(len(cells))) if splitters is None else list(splitters)
    queued = set(stack)
    tally = [0] * len(colour)
    while stack and len(cells) < n:
        s = stack.pop()
        queued.discard(s)
        parts = _count_parts(adj, colour, cells[s], tally)
        # a cell splits exactly when its parts are smaller than it is
        split = sorted(key for key, part in parts.items()
                       if len(part) < len(cells[key[0]]))
        for cell, keys in groupby(split, itemgetter(0)):
            keys = list(keys)
            members = cells[cell]
            if sum(len(parts[key]) for key in keys) == len(members):
                del keys[0]     # every member counted: the lowest count stays
            first = len(cells)
            for c, key in enumerate(keys, first):
                for v in parts[key]:
                    colour[v] = c
                cells.append(parts[key])
            cells[cell] = [v for v in members if colour[v] == cell]
            if cell in queued:
                new = range(first, len(cells))
            else:
                new = [cell, *range(first, len(cells))]
                new.remove(max(new, key=lambda c: len(cells[c])))
            queued.update(new)
            stack.extend(new)
    if sorted(colour[:n]) != sorted(colour[n:]):
        return None
    return colour, [len(cell) for cell in cells]


def _count_parts(adj, colour, splitter, tally):
    """The vertices with a neighbour in ``splitter``, as lists keyed by
    (their colour, their number of neighbours in it).  ``tally``, one zero
    per vertex, counts and is left all zeros again."""
    touched = []
    for u in splitter:
        for x in adj[u]:
            if tally[x]:
                tally[x] += 1
            else:
                tally[x] = 1
                touched.append(x)
    parts = {}
    for x in touched:
        key = colour[x], tally[x]
        tally[x] = 0
        part = parts.get(key)
        if part is None:
            parts[key] = [x]
        else:
            part.append(x)
    return parts


def _leaf_map(adj_g, adj_h, colour):
    """At a discrete colouring of g ⊔ h, map each vertex of g to the vertex
    of h with its colour; returns that map as a list if every edge of g
    lands on an edge of h, else None.  h's neighbours are read into sets
    here, once per leaf, and every edge of g is looked up in them.

    This test decides the leaf.  _refine stops at its first discrete
    colouring, before the splits that would refute a pair map that is not
    an isomorphism, so the search hands this function colourings that are
    not equitable."""
    n = len(adj_g)
    vertex_of = [0] * n
    for w, c in enumerate(colour[n:]):
        vertex_of[c] = w
    f = [vertex_of[c] for c in colour[:n]]
    near_h = list(map(set, adj_h))
    if all(f[b] in near_h[f[a]] for a, nbrs in enumerate(adj_g) for b in nbrs):
        return f
    return None


def _search(adj_g, adj_h, sig_g, sig_h):
    """An isomorphism between two undirected graphs, given as neighbour
    lists, that keeps the vertex signatures ``sig_g``/``sig_h``, one
    sortable, hashable value per vertex: the list f with vertex v of g sent
    to f[v] of h, or None when there is none.

    Before any refinement it returns None when the graphs' vertex counts,
    their edge counts (the sums of the neighbour lists' lengths) or their
    sorted signatures differ, since every isomorphism keeps all three.
    Each vertex then starts with the rank of its signature among the
    distinct signatures.

    Individualization-refinement, the method behind nauty (McKay and
    Piperno, J. Symb. Comput. 60, 2014), on the disjoint union g ⊔ h, with
    g's vertices at 0..n-1 and h's at n..2n-1.  The union's starting
    colouring is refined to its coarsest equitable partition, or until it
    is discrete (see _refine).  While a cell holds more than one vertex of
    each graph, the first vertex v of g in the largest such cell, ties
    going to the lowest colour, is given a fresh colour together with each
    vertex w of h in that cell in turn, and the search refines and
    descends, backtracking over every w.  A large cell is where one
    individualization splits off the most: on the Lucas cube of crown(12)
    it is an orbit of all 24 automorphisms, and the search refines twice.
    Such a node refines from its one new cell {v, w} alone: the colouring
    it came from was not discrete, so it was equitable, and the counts into
    the rest of the old cell follow from those into the cell and into the
    new one.  A discrete colouring, one vertex of each graph per colour, is
    accepted only when the colour-to-colour map sends every edge of g to an
    edge of h (see _leaf_map), which, the edge counts being equal, is an
    isomorphism.  So a map comes with a certificate and None follows an
    exhaustive search.  The worst case is exponential; the depth is at most
    the number of vertices, and the search keeps its own stack rather than
    recursing.

    So the refinements of one search are capped, at n^3, the first one
    included; past the cap it raises CapacityExceeded.  The cap is declared,
    not derived.  A search that never backtracks refines at most n times,
    since each refinement adds a colour, and one that finds no map and
    refutes every branch within three individualizations at most
    1 + n + n(n-1) + n(n-1)(n-2) times, 1,465 at n = 12.  The most measured
    over the domains of the graph tests, in both argument orders and with
    g's components in every order, is 769, at n = 12: two triangles and a
    hexagon, the triangles first, against four triangles.  Refinement
    cannot tell a hexagon from two triangles, so the search tries each of
    h's 12 vertices for g's first triangle, then each of the 9 left for its
    second, and fails on the hexagon against each of the 6 after:
    1 + 12 + 12*9 + 12*9*6.  The class catalog needs at most 6, at n = 7.
    The search prunes no automorphic branches, so k components that
    refinement cannot tell apart cost about n^k refinements, and from four
    of them a pair can be refused rather than answered: three triangles and
    a hexagon, the triangles first, against five triangles pass the cap of
    3,375 at n = 15, though the hexagon first or third is answered.
    """
    n = len(adj_g)
    if (n != len(adj_h) or sorted(sig_g) != sorted(sig_h)
            or sum(map(len, adj_g)) != sum(map(len, adj_h))):
        return None
    rank = {s: c for c, s in enumerate(sorted(set(sig_g)))}
    adj = [*adj_g, *[[x + n for x in nbrs] for nbrs in adj_h]]
    stack = []      # (colours, v, fresh colour, the w left)
    coloured = _refine(adj, n, [rank[s] for s in (*sig_g, *sig_h)])
    refinements, cap = 1, n ** 3
    while True:
        if coloured is not None:
            colour, size = coloured
            count = len(size)
            if count == n:
                f = _leaf_map(adj_g, adj_h, colour)
                if f is not None:
                    return f
            else:
                cell = max(range(count), key=size.__getitem__)
                stack.append((colour, colour.index(cell), count,
                              iter([w for w in range(n, 2 * n)
                                    if colour[w] == cell])))
        while stack:
            colour, v, fresh, ws = stack[-1]
            w = next(ws, None)
            if w is not None:
                break
            stack.pop()
        else:
            return None
        if refinements == cap:
            raise CapacityExceeded("isomorphism search capped at %d "
                                   "refinements on %d vertices" % (cap, n))
        refinements += 1
        colour = colour.copy()
        colour[v] = colour[w] = fresh
        coloured = _refine(adj, n, colour, [fresh])


def _profile(p):
    """(|down i|, |up i|) for each element i."""
    return [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]


def _adjacency(n, edges):
    """Neighbour lists on the vertices 0..n-1 of the undirected graph with
    these (a, b) edges: each edge is listed at both of its ends."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def poset_isomorphism(p, q):
    """An order isomorphism as a label mapping, or None.

    _search looks for a map between the undirected cover graphs that keeps
    each element's (|down i|, |up i|) profile, and refuses at once posets
    whose sizes, cover counts or sorted profiles differ.  That map is an
    order isomorphism: if a < b then |down a| < |down b|, so a cover a < b,
    sent to an edge of q's cover graph with |down f(a)| < |down f(b)|,
    lands on the cover f(a) < f(b); with equal cover counts the covers
    correspond one to one, and the order is their transitive closure.  A
    search past its cap of refinements raises CapacityExceeded.
    """
    f = _search(_adjacency(p.n, p.cover_masks()),
                _adjacency(q.n, q.cover_masks()), _profile(p), _profile(q))
    if f is None:
        return None
    return {p.labels[i]: q.labels[f[i]] for i in range(p.n)}


def poset_isomorphic(p, q):
    return poset_isomorphism(p, q) is not None
