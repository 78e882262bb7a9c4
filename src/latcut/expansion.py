"""Cutting intervals and convex expansion.

An interval K = [bottom, top] of a finite distributive lattice L is a
*cutting* when every maximal chain of L meets K.  Exactly then can a new
element be spliced into the base poset so that the filter lattice of the
enlarged poset is L with a second copy of K glued in ("convex expansion"),
and |result| = |L| + |K|.

The boundary data of an interval, over the base poset P with
B = filter(bottom), T = filter(top):

    S  = B minus T                 (the convex subposet the interval represents)
    S0 = maximal elements of P-B   (exactly the z with B + {z} still a filter)
    S1 = minimal elements of T     (exactly the y with T - {y} still a filter)

P partitions into (down-closure of S0) + S + (up-closure of S1), and K is a
cutting exactly when z < y for every z in S0, y in S1.  The new element sits
above all of S0, below all of S1, incomparable to S.

``is_cutting`` votes four independent criteria on one interval; the
production routes, ``cuttings`` and ``expand_poset``, do not vote.  An
expansion carries L, K, K's own lattice, built on its first read, and L'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bits import iter_bits
from .errors import CapacityExceeded, DuplicateLabel, NotACutting
from .lattice import DistLattice, IntervalRef, filter_lattice
from .poset import (FILTER_CAP, Poset, disjoint_union, poset_isomorphic,
                    singleton)

CUTTING_METHODS = ("chains", "union", "order", "star")


@dataclass(frozen=True)
class CuttingBoundary:
    """Boundary data of an interval, as base-poset masks."""
    s: int
    s0: int
    s1: int

    def labels(self, base):
        return (base.labels_of(self.s), base.labels_of(self.s0),
                base.labels_of(self.s1))


def boundary(lat, k):
    """Compute (S, S0, S1) for an interval and verify the partition
    P = down(S0) + S + up(S1) and that no element of S0 lies above one of S1."""
    return _boundary(lat, lat.interval(*k))


def _boundary(lat, k):
    """:func:`boundary` of an interval already validated."""
    base = lat.base
    bf, tf = lat.filters[k.bottom], lat.filters[k.top]
    outside = base.full_mask & ~bf
    s0 = base.max_of(outside)
    s1 = base.min_of(tf)
    s = bf & ~tf
    if base.down_closure(s0) != outside or base.up_closure(s1) != tf:
        raise AssertionError("boundary closures do not partition the poset")
    for z in iter_bits(s0):
        if base.down[z] & s1:
            raise AssertionError("an element of S0 lies above an element of S1")
    return CuttingBoundary(s=s, s0=s0, s1=s1)


# -- the four cutting criteria ---------------------------------------------


def _cutting_chains(lat, k):
    # Definition-level criterion: does some maximal chain avoid K?  Maximal
    # chains are exactly the bottom-to-top cover paths, so search for an
    # avoiding path.
    in_k = set(lat.between(*k))
    if lat.bottom in in_k or lat.top in in_k:
        return True
    seen = bytearray(lat.size)
    seen[lat.bottom] = 1
    stack = [lat.bottom]
    top = lat.top
    while stack:
        a = stack.pop()
        for b in lat.up_covers[a]:
            if b in in_k:
                continue
            if b == top:
                return False
            if not seen[b]:
                seen[b] = 1
                stack.append(b)
    return True


def _cutting_union(lat, k):
    # L must be (everything above bottom) union (everything below top).
    le, (b, t) = lat.le, k
    return all(le(b, x) or le(x, t) for x in range(lat.size))


def _cutting_order(lat, k):
    # z < y for every z in S0, y in S1.
    base = lat.base
    b = _boundary(lat, k)
    return all(b.s1 & ~base.up[z] == 0 for z in iter_bits(b.s0))


def _candidate_expansion(lat, k, label):
    """The candidate enlarged poset: new element above P-B, below T,
    incomparable to S.  Returns None when that prescription is not a poset
    (its transitive closure would disturb the original order)."""
    base = lat.base
    bf, tf = lat.filters[k.bottom], lat.filters[k.top]
    below_x = base.full_mask & ~bf
    above_x = tf        # inside B, since k is a validated interval
    # Transitivity through the new element: w < x < v forces w < v, which
    # must already hold in P.  (Triples inside P, or with x extremal in
    # them, are closed because below_x is a down-set and above_x a filter.)
    for w in iter_bits(below_x):
        if above_x & ~base.up[w]:
            return None
    xbit = 1 << base.n
    up = [base.up[i] | (xbit if below_x >> i & 1 else 0) for i in range(base.n)]
    up.append(above_x)
    down = [base.down[i] | (xbit if above_x >> i & 1 else 0)
            for i in range(base.n)]
    down.append(below_x)
    return Poset(list(base.labels) + [label], up, _trusted=True, _down=down)


def _cutting_star(lat, k):
    # Build the candidate enlarged poset and check that the new element's
    # star (everything incomparable to it) is the interval's subposet.
    cand = _candidate_expansion(lat, k, _fresh_label(lat.base))
    if cand is None:
        return False
    star = cand.star(cand.labels[-1])
    return poset_isomorphic(
        star, lat.base.restrict(lat.filters[k.bottom] & ~lat.filters[k.top]))


# (name, criterion) in the order of CUTTING_METHODS; is_cutting runs each.
_CRITERIA = tuple(zip(CUTTING_METHODS, (_cutting_chains, _cutting_union,
                                        _cutting_order, _cutting_star)))


def is_cutting(lat, k):
    """Is the interval met by every maximal chain?  Each of the four
    criteria decides it once; AssertionError lists the votes if they differ."""
    k = lat.interval(*k)
    votes = [(name, criterion(lat, k)) for name, criterion in _CRITERIA]
    if len({vote for _, vote in votes}) > 1:
        raise AssertionError(" ".join("%s=%r" % v for v in votes))
    return votes[0][1]


def cuttings(lat):
    """Every cutting of ``lat`` as a (bottom, top) index pair, sorted by
    bottom and then by top.

    This lists in poset space rather than testing intervals.  By the order
    criterion [B, T] is a cutting exactly when every element of P - B lies
    strictly below every element of T, i.e. when P - B is a down-set inside
    lower(T), the common strict lower bounds of T.  So the bottoms that go
    with top T are the filters containing u = P - lower(T), which are the
    lattice elements below u.

    One step per top finds lower(T); the tops are grouped by it, one walk
    down the covers per distinct bound u collects its bottoms, and one sort
    orders the pairs.
    """
    base = lat.base
    full, down = base.full_mask, base.down
    filters, minima = lat.filters, lat.minima
    index_of, down_covers = lat.index_of, lat.down_covers
    size = lat.size
    # lower(T) for T nonempty is lower(T - y) & down[y], y the lowest
    # minimal element of T.  T - y is a smaller filter, so it has a larger
    # index and its lower bound is known when tops go by descending index.
    lower = [full] * size
    tops_by_lower = {full: [size - 1]}
    for t in range(size - 2, -1, -1):
        y = minima[t] & -minima[t]
        lower[t] = lo = (lower[index_of[filters[t] ^ y]]
                         & down[y.bit_length() - 1])
        tops_by_lower.setdefault(lo, []).append(t)
    keys = []
    for lo, tops in tops_by_lower.items():
        u = index_of[full & ~lo]
        seen = {u}
        stack = [u]
        while stack:
            for a in down_covers[stack.pop()]:
                if a not in seen:
                    seen.add(a)
                    stack.append(a)
        keys += [a * size + t for a in seen for t in tops]
    # bottom * size + top orders the pairs by bottom, then top.
    keys.sort()
    return [divmod(k, size) for k in keys]


# -- expansion ----------------------------------------------------------------


def _fresh_label(base):
    k = 1
    taken = set(base.labels)
    while "x@%d" % k in taken:
        k += 1
    return "x@%d" % k


@dataclass(frozen=True)
class ExpansionResult:
    """Result of splicing a new element into the base poset of a lattice.

    ``host`` is the lattice L that was expanded, ``interval`` the cutting K
    of it, validated, and ``interval_lattice`` K's own lattice, built on
    first read; so the expansion carries the whole triple (L, K, L') that
    the recurrence checks of latcut.invariants take.
    ``source_interval`` locates the original K inside the enlarged lattice,
    ``copy_interval`` the new copy K' = {G + {x} : G in K}; the new element's
    filters are exactly those of the host that contain T, shifted by x.
    """
    host: DistLattice
    interval: IntervalRef
    poset: Poset
    new_element: str
    lattice: DistLattice
    source_interval: IntervalRef
    copy_interval: IntervalRef

    @cached_property
    def interval_lattice(self):
        return self.host.interval_lattice(self.interval)


def expand_poset(lat, k, label=None, cap=FILTER_CAP):
    """Convex expansion of ``lat`` at the cutting interval ``k``.

    Raises NotACutting when some maximal chain avoids ``k``.  The default
    label for the new element is "x@<i>" with the smallest free i; a label
    the base poset already has raises DuplicateLabel.

    The filters of P + x are read off ``lat`` in O(|L|), with no walk over
    P + x.  With B = filter(bottom) and T = filter(top), x lies above P - B
    and below T, so they are the filters G of P with G inside B, whose
    minima are unchanged, and G + x for the filters G containing T, whose
    minima are (min G - T), plus x when G lies inside B.  Every filter of
    a cutting's host lies inside B or contains T, and K is those that do
    both, so there are |L| + |K| of them.  Raises CapacityExceeded on that
    exact size, before the lattice is built, with the message a walk over
    P + x would give.
    """
    if label is None:
        label = _fresh_label(lat.base)
    elif label in lat.base.index:
        raise DuplicateLabel("label %r declared twice" % (label,))
    k = lat.interval(*k)
    cand = _candidate_expansion(lat, k, label)
    if cand is None:
        raise NotACutting(
            "[%s, %s] is avoided by some maximal chain"
            % (lat.bitstring(k.bottom), lat.bitstring(k.top)))
    bf, tf = lat.filters[k.bottom], lat.filters[k.top]
    xbit = 1 << lat.base.n
    pairs = []
    for f, a in zip(lat.filters, lat.minima):
        inside = f & ~bf == 0
        if inside:
            pairs.append((f, a))
        if tf & ~f == 0:
            pairs.append((f | xbit, a & ~tf | (xbit if inside else 0)))
    if len(pairs) > cap:
        cand.refuse_wide(cap)
        raise CapacityExceeded("more than %d filters" % cap)
    big = DistLattice(cand, pairs)
    return ExpansionResult(
        host=lat, interval=k, poset=cand, new_element=label, lattice=big,
        source_interval=IntervalRef(big.index_of[bf], big.index_of[tf]),
        copy_interval=IntervalRef(big.index_of[bf | xbit],
                                  big.index_of[tf | xbit]))


# -- decomposition -------------------------------------------------------------


@dataclass(frozen=True)
class DecomposeResult:
    """Splitting F(P) at an element x: F(P) is the convex expansion of
    F(P - x) at the interval whose subposet is P * x (delete x and everything
    comparable).  ``expansion.host`` is F(P - x), ``expansion.host.base``
    is P - x and ``expansion.interval`` the cutting of the host determined
    by x."""
    star: Poset
    expansion: ExpansionResult
    size: int                  # |F(P)|
    counts_ok: bool            # |F(P)| == |F(P-x)| + |F(P*x)|, and a walk
                               # over P finds the expansion's (F, min F)
    expansion_iso_ok: bool     # expanded poset isomorphic to P
    product_form: bool         # P - x isomorphic to P * x
    product_iso_ok: bool       # ... and then P iso (P - x) + singleton side by side


def decompose(p, x, cap=FILTER_CAP):
    """Decompose F(P) at element x, verifying the expansion round trip."""
    i = p.idx(x)
    minus = p.minus(x)
    star = p.star(x)
    host = filter_lattice(minus, cap=cap)

    # The interval of the host determined by x: bottom is the complement of
    # down(x), top is up(x); both survive deleting x unchanged.  Neither
    # holds bit i, so compressing is moving the bits above i down by one.
    keep = p.full_mask & ~(1 << i)
    low = (1 << i) - 1

    def compress(mask):
        return mask & low | mask >> 1 & ~low

    bf = compress(keep & ~p.down[i])
    tf = compress(p.up[i])
    exp = expand_poset(host, (host.index_of[bf], host.index_of[tf]),
                       label=x, cap=cap)
    # The antichain walks on P and on P*x, independent of the expansion.
    # The expansion puts x last, so its masks are P's with bit i moved to
    # the top; moving it back labels both sides alike.
    walked = dict(p.filters_with_minima(cap))
    star_size = sum(1 for _ in star.filters_with_minima(cap))
    size = len(walked)
    top = p.n - 1

    def relabel(mask):
        rest = mask & ~(1 << top)
        return rest & low | (rest & ~low) << 1 | (mask >> top) << i

    expanded = dict(zip(map(relabel, exp.lattice.filters),
                        map(relabel, exp.lattice.minima)))
    counts_ok = size == host.size + star_size and walked == expanded
    expansion_iso_ok = poset_isomorphic(exp.poset, p)
    product_form = poset_isomorphic(minus, star)
    product_iso_ok = (product_form
                      and poset_isomorphic(p, disjoint_union(minus, singleton(x))))
    return DecomposeResult(
        star=star, expansion=exp,
        size=size, counts_ok=counts_ok, expansion_iso_ok=expansion_iso_ok,
        product_form=product_form, product_iso_ok=product_iso_ok)
