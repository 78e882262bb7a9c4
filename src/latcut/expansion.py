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

``is_cutting`` votes four criteria on one interval: three independent
ones, and the star criterion, which is the existence test of the
candidate enlarged poset that ``expand_poset`` builds.  The production
routes, ``cuttings`` and ``expand_poset``, do not vote.  An
expansion carries L, K, K's own lattice, built on its first read, and L'.
``decompose`` and the cutting pass check one round trip: F(P) against the
expansion of F(P - x) at x's interval, which the pass already holds.  The
round trip compares each fact once, posets exactly through the one map it
knows, x moved back from the expansion's last index to P's; it runs no
isomorphism search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .bits import iter_bits
from .errors import CapacityExceeded, DuplicateLabel, NotACutting
from .lattice import DistLattice, IntervalRef, filter_lattice
from .poset import FILTER_CAP, Poset, _compress

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
    # The candidate enlarged poset exists.  Its new element's star is then
    # S = B - T in P's index order with P's labels and masks, by
    # construction, so the star criterion is the candidate's transitivity
    # test.
    return _candidate_expansion(lat, k, _fresh_label(lat.base)) is not None


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

    By the order criterion [B, T] is a cutting exactly when P - B is a
    down-set inside lower(T), the common strict lower bounds of T; so T's
    bottoms are the filters that contain P - lower(T).  One step per top
    finds lower(T) = lower(T - y) & down[y], and the tops are grouped by it.
    A bound's bottoms are among those of its *parent*, the bound lower(T - y)
    of the top that first met it: the empty top's group takes all of L, and
    each other group filters its parent's bottoms, one AND against P - F
    each.  Only the groups of the tops {y}, y maximal, have all of L as
    parent; any other was met at a T with T - y among its parent's tops.
    So at most |max P|*|L| + n*#cuttings containment tests, O(|L|) steps
    for the bounds, and one sort of the pairs.  A group's bottoms are kept
    only while a child group is left to filter them: a parent is met
    before its children, and its list goes once the last of them is done.
    """
    base = lat.base
    full, down = base.full_mask, base.down
    filters, minima, index_of = lat.filters, lat.minima, lat.index_of
    size = lat.size
    # lower(T) for T nonempty is lower(T - y) & down[y], y the lowest
    # minimal element of T.  T - y is a smaller filter, so it has a larger
    # index and its lower bound is known when tops go by descending index.
    lower = [full] * size
    tops_by_lower = {full: [size - 1]}
    parent = {}
    for t in range(size - 2, -1, -1):
        y = minima[t] & -minima[t]
        above = lower[index_of[filters[t] ^ y]]
        lower[t] = lo = above & down[y.bit_length() - 1]
        tops = tops_by_lower.get(lo)
        if tops is None:
            tops_by_lower[lo] = [t]
            parent[lo] = above
        else:
            tops.append(t)
    outside = [full ^ f for f in filters]
    children = Counter(parent.values())
    bottoms = {full: range(size)}
    keys = []
    for lo, tops in tops_by_lower.items():
        if lo == full:
            own = bottoms[full]
        else:
            up, need = parent[lo], full ^ lo
            own = [a for a in bottoms[up] if not outside[a] & need]
            children[up] -= 1
            if not children[up]:
                del bottoms[up]
            if lo in children:
                bottoms[lo] = own
        keys += [a * size + t for a in own for t in tops]
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
    size: int                  # |F(P)|, as a walk over P counts it
    counts_ok: bool            # P-x and P*x are the expansion's bases, sizes
                               # add up, a walk over P finds (F, min F)
    expansion_iso_ok: bool     # expanded poset, x moved back, equal to P
    product_form: bool         # x comparable to nothing: P * x is P - x,
                               # and P is (P - x) with x beside it


def _x_interval(p, i):
    """Bottom and top filters of x's interval in P - x, x = P's element i:
    P - down(x) and up(x), moved to P - x's indices by the compress that
    :meth:`Poset.restrict` builds P - x with."""
    rest = p.full_mask & ~(1 << i)
    squeeze = _compress(rest)
    return squeeze(rest & ~p.down[i]), squeeze(p.up[i])


def decompose(p, x, cap=FILTER_CAP):
    """Decompose F(P) at element x and check the round trip on the result."""
    host = filter_lattice(p.minus(x), cap=cap)
    k = [host.index_of[f] for f in _x_interval(p, p.idx(x))]
    return _round_trip(p, x, expand_poset(host, k, label=x, cap=cap), cap)


def _move_back(masks, i, top):
    """``masks`` moved from an expansion's index order, x last at index
    ``top``, to P's, x at index i: the bits from i up to top move up by one
    and bit top moves to i.  When x is P's last element too (i == top) the
    move is the identity, and ``masks`` come back unmoved."""
    if i == top:
        return masks
    low, mid = (1 << i) - 1, (1 << top) - (1 << i)
    return [m & low | (m & mid) << 1 | (m >> top) << i for m in masks]


def _round_trip(p, x, exp, cap=FILTER_CAP):
    """Check ``exp``, an expansion of F(P - x) at x's interval, as F(P)
    split at x: its L and K have bases P - x and P * x exactly, and a walk
    over P, independent of the expansion, finds its (F, min F).  Each
    caller's K is x's interval by construction, so it is not compared.  The
    expansion puts x last; moving it back to P's index i (one map, for the
    lattice's masks and the poset's) must give P's pairs and P exactly, so
    no isomorphism search runs.  The walk stays in P's index order, so a
    fault in the compress that built P - x cannot agree with itself."""
    i = p.idx(x)
    host, klat, q = exp.host, exp.interval_lattice, exp.poset
    walked = dict(p.filters_with_minima(cap))
    big, top = exp.lattice, p.n - 1
    expanded = dict(zip(_move_back(big.filters, i, top),
                        _move_back(big.minima, i, top)))
    star = p.star(x)
    counts_ok = ((p.minus(x), star) == (host.base, klat.base)
                 and len(walked) == host.size + klat.size and walked == expanded)
    up = list(_move_back(q.up, i, top))
    up.insert(i, up.pop())
    labels = q.labels[:i] + q.labels[-1:] + q.labels[i:-1]
    return DecomposeResult(
        star=star, expansion=exp,
        size=len(walked), counts_ok=counts_ok,
        expansion_iso_ok=(labels, tuple(up)) == (p.labels, p.up),
        product_form=p.up[i] | p.down[i] == 0)
