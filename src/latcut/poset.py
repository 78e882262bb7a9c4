"""Finite posets on labelled elements.

Elements carry string labels and are indexed 0..n-1 in declaration order.
The strict order relation is stored as one bitmask per element: ``up[i]``
holds the elements strictly above element i, ``down[i]`` those strictly
below.  Subsets handed in and out of the API (filters, antichains, boundary
sets) are plain int bitmasks over these indices; see :mod:`latcut.bits`.

Isomorphism is decided by the one backtrack of the package (_backtrack),
on two relations given as masks, ``up`` and ``down`` per vertex, and one
signature per vertex: poset_isomorphism runs it on the order masks with
each element's (|down|, |up|), and latcut.families.graph_isomorphic on
CubeGraphs read into adjacency masks, passed as both, with each vertex's
degree.  It places g's vertices one at a time, each next to as many placed
ones as it can (_placement_order), on unused vertices of h with its
signature that lie above the images of its placed vertices below and
below those of its placed vertices above, so a complete map is an
isomorphism by construction.

Instances are immutable by convention: every operation returns a new poset.
Concurrent readers are safe because the only mutation ever performed is the
one-shot population of internal caches with values that are functions of the
immutable relation.
"""

from __future__ import annotations

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


def _placement_order(up, down, sig):
    """The order in which the backtrack places the vertices of one graph
    (``up`` and ``down`` its relation masks, ``sig`` its signatures): each
    time, the unplaced vertex with the most placed neighbours, then the
    rarest signature among the vertices, then the lowest index.  So each
    vertex but the first of its component lands next to placed ones, and a
    vertex with no placed neighbour comes only once the placed vertices
    make up whole components.  Placing breadth first instead, from the
    rarest signature and each vertex's neighbours rarest first, took 32 s
    on the covering graph of F(crown(12)) against the Lucas cube, on a
    2-vCPU VM under CPython 3.11, where the search in this order takes
    2.0 ms (best of 200).

    ``level[c]`` is the mask of the unplaced vertices with c placed
    neighbours, and bit c of ``in_use`` is set while that mask is nonempty,
    so the top count is in_use's highest bit; ``classes`` holds the masks
    of equally rare signatures, rarest first.  A placement takes its
    vertex out of the top level, then walks the set bits of in_use from
    the highest down and moves each level's neighbours of the vertex up
    by one, in place: a few mask operations per count in use, none per
    neighbour or per empty count, so a chain, whose unplaced elements
    share one level, takes a constant number per placement."""
    rare = {}
    for s in sig:
        rare[s] = rare.get(s, 0) + 1
    by_rarity = {}
    for v, s in enumerate(sig):
        by_rarity[rare[s]] = by_rarity.get(rare[s], 0) | 1 << v
    classes = [by_rarity[r] for r in sorted(by_rarity)]
    level = [0] * (len(sig) + 1)
    level[0] = (1 << len(sig)) - 1
    in_use = 1
    order = []
    for _ in sig:
        most = in_use.bit_length() - 1
        top = level[most]
        for c in classes:
            pick = top & c
            if pick:
                break
        low = pick & -pick
        v = low.bit_length() - 1
        order.append(v)
        level[most] = top ^ low
        if top == low:
            in_use ^= 1 << most
        near = up[v] | down[v]
        counts = in_use
        while counts:
            c = counts.bit_length() - 1
            counts ^= 1 << c
            here = level[c]
            m = here & near
            if m:
                level[c] = here ^ m
                if here == m:
                    in_use ^= 1 << c
                level[c + 1] |= m
                in_use |= 2 << c
    return order


def _backtrack(up_g, down_g, up_h, down_h, sig_g, sig_h):
    """An isomorphism between two relations on the vertices 0..n-1, or
    None: the list f with vertex v of g sent to f[v] of h.  ``up_g[v]`` and
    ``down_g[v]`` are masks of the vertices above and below v (for an
    undirected graph, its neighbours twice), and the same for h.  Each
    vertex's signature, one sortable and hashable value, must fix how many
    vertices lie above and below it; an isomorphism keeps it.

    Graphs of different sizes or sorted signatures are refused at once.
    Then g's vertices are placed one at a time in _placement_order.  A
    vertex v may go to an unused vertex w of h with v's signature that
    lies above the images of v's placed vertices below, and below the
    images of those above.  So a complete map sends each relation of g to
    one of h, and the signatures make their counts equal: it is an
    isomorphism by construction.  When v has no candidate the search
    takes back the last placement and tries its next candidate, lowest
    index first, on a stack of its own, so its depth is not bounded by
    Python's recursion limit.

    When v has no placed neighbour, the placed vertices make up whole
    components of g, and their images, whose signatures count all their
    neighbours, make up whole components of h.  g is isomorphic to h
    exactly when the rest of g is to the rest of h, since finite graphs
    cancel common components, whichever images were chosen.  So the stack
    is dropped there, and a new component that cannot be placed ends the
    search.

    The placements of one search are capped at n^3; past the cap it raises
    CapacityExceeded.  The cap is declared, not derived.  A search that
    never takes a placement back places n vertices.
    """
    n = len(up_g)
    if n != len(up_h) or sorted(sig_g) != sorted(sig_h):
        return None
    alike = {}
    for w, s in enumerate(sig_h):
        alike[s] = alike.get(s, 0) | 1 << w
    order = _placement_order(up_g, down_g, sig_g)
    f = [0] * n
    placed = used = 0
    stack = []          # (v, its candidates left), since the last drop
    placements, cap, d = 0, n ** 3, 0
    while d < n:
        v = order[d]
        below, above = down_g[v] & placed, up_g[v] & placed
        rest = below | above
        if not rest:
            stack.clear()
        fit = alike[sig_g[v]] & ~used
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            fit &= up_h[f[u]] if below & low else down_h[f[u]]
            rest ^= low
        left = fit
        while not left:
            if not stack:
                return None
            v, left = stack.pop()
            d -= 1
            placed ^= 1 << v
            used ^= 1 << f[v]
        placements += 1
        if placements > cap:
            raise CapacityExceeded("isomorphism search capped at %d "
                                   "placements on %d vertices" % (cap, n))
        low = left & -left
        stack.append((v, left ^ low))
        f[v] = low.bit_length() - 1
        placed |= 1 << v
        used |= low
        d += 1
    return f


def _profile(p):
    """(|down i|, |up i|) for each element i."""
    return [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]


def poset_isomorphism(p, q):
    """An order isomorphism as a label mapping, or None.

    _backtrack looks for a map between the strict orders that keeps each
    element's (|down i|, |up i|) profile, and refuses at once posets whose
    sizes or sorted profiles differ.  Every map it returns keeps < in both
    directions.  A search past its cap of placements raises
    CapacityExceeded.
    """
    f = _backtrack(p.up, p.down, q.up, q.down, _profile(p), _profile(q))
    if f is None:
        return None
    return {p.labels[i]: q.labels[f[i]] for i in range(p.n)}


def poset_isomorphic(p, q):
    return poset_isomorphism(p, q) is not None
