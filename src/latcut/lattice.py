"""Finite distributive lattices, represented as lattices of filters.

Every finite distributive lattice is the lattice of upward closed subsets
(filters) of a finite poset, ordered by *reverse* inclusion:

    a <= b   iff   filter(a) contains filter(b).

So index 0 is the bottom (the full ground set), the last index is the top
(the empty filter), meet is filter union and join is filter intersection.
An element's height is |P| - |filter|, which agrees with longest-chain
rank because the lattice is graded; it is read off the filter where it is
needed, not stored.  By Birkhoff, the meet-irreducibles are the
principal filters up(x), and ``birkhoff_roundtrip`` certifies that map.

A ``DistLattice`` is immutable; lazily computed caches (the up-cover
tuples, containment masks, the q vector and the degree histograms) depend
only on the relation, so concurrent reads are safe.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .bits import mask_of
from .errors import InvalidInterval
from .poset import FILTER_CAP, Poset


class IntervalRef(NamedTuple):
    """An interval [bottom, top] of a lattice, by element index."""
    bottom: int
    top: int


class DistLattice:
    """The lattice of filters of a base poset.

    Construction takes every filter F of ``base`` with its minimal
    elements min F, as ``pairs`` (F, min F) in any order.  They are sorted
    by F's mask, then stably by |F|, largest first, and the caller's ints
    are kept as ``filters`` and ``minima``.  F's height is n - |F|, read
    off the filter and not stored.  |min F| is F's up-degree, and
    ``up_covers`` (F - y for y in min F) is the one cover cache, built
    from the minima on first read.  The pairs are trusted, and the caller
    checks the cap: :func:`filter_lattice` takes them from the antichain
    walk (:meth:`Poset.filters_with_minima`), and convex expansion derives
    them from the host lattice.
    """

    def __init__(self, base, pairs):
        self.base = base
        # Canonical element order: largest filter first, ties by mask value.
        # That puts the bottom at index 0 and the top at index size-1.
        pairs = sorted(pairs, key=itemgetter(0))
        pairs.sort(key=lambda pair: pair[0].bit_count(), reverse=True)
        self.filters, self.minima = map(tuple, zip(*pairs))
        self.index_of = {f: i for i, f in enumerate(self.filters)}
        self._above = None
        # The q vector and the degree histograms, filled in by
        # invariants.q_vector and invariants.d_vectors.
        self._q = None
        self._d = None

    @cached_property
    def up_covers(self):
        """For each F, the indices of F - y for y in min F, ascending."""
        index_of, up = self.index_of, []
        for m, f in zip(self.minima, self.filters):
            covs = []
            while m:    # the lowest y first: the largest F - y and index
                low = m & -m
                m ^= low
                covs.append(index_of[f ^ low])
            up.append(tuple(covs[::-1]))
        return tuple(up)

    # -- basics -----------------------------------------------------------

    @property
    def size(self):
        return len(self.filters)

    def __len__(self):
        return len(self.filters)

    def __repr__(self):
        return "DistLattice(%d elements over %d-element poset)" % (
            self.size, self.base.n)

    @property
    def bottom(self):
        return 0

    @property
    def top(self):
        return self.size - 1

    def le(self, a, b):
        """Lattice order: reverse inclusion of filters."""
        return self.filters[b] & ~self.filters[a] == 0

    def bitstring(self, a):
        return self.base.bitstring(self.filters[a])

    def element_by_string(self, s):
        bits = self.base.bits_from_string(s)
        try:
            return self.index_of[bits]
        except KeyError:
            raise InvalidInterval(
                "%s is not a filter of the base poset"
                % self.base.bitstring(bits)) from None

    # -- containment masks -------------------------------------------------

    def above_masks(self):
        """For each element a, a bitmask over lattice indices of {x : x >= a}.
        Cached; quadratic, intended for desk-scale lattices."""
        if self._above is None:
            self._above = tuple([mask_of(self.between(a, self.top))
                                 for a in range(self.size)])
        return self._above

    # -- intervals ----------------------------------------------------------

    def interval(self, bottom, top):
        """Validated IntervalRef; raises InvalidInterval unless bottom <= top."""
        if not (0 <= bottom < self.size and 0 <= top < self.size):
            raise InvalidInterval("element index out of range")
        if not self.le(bottom, top):
            raise InvalidInterval(
                "[%s, %s] is not an interval: endpoints incomparable or reversed"
                % (self.bitstring(bottom), self.bitstring(top)))
        return IntervalRef(bottom, top)

    def interval_by_strings(self, bottom_bits, top_bits):
        return self.interval(self.element_by_string(bottom_bits),
                             self.element_by_string(top_bits))

    def between(self, bottom, top):
        """The indices x with bottom <= x <= top, ascending: the containment
        primitive, F(top) within F(x) within F(bottom).  Like ``le``, it
        trusts its indices; ``interval`` is the check for untrusted ones."""
        fb, ft = self.filters[bottom], self.filters[top]
        return [x for x, fx in enumerate(self.filters)
                if fx & ~fb == 0 and ft & ~fx == 0]

    def interval_elements(self, k):
        """All element indices x with bottom <= x <= top, ascending."""
        return self.between(*self.interval(*k))

    def interval_lattice(self, k):
        """The interval as a lattice in its own right: the filter lattice
        of the convex base subposet S = filter(bottom) minus filter(top)."""
        k = self.interval(*k)
        return filter_lattice(
            self.base.restrict(self.filters[k.bottom] & ~self.filters[k.top]))

    # -- structure ------------------------------------------------------------

    def meet_irreducibles(self):
        """Indices, ascending, of the F with one upper cover: |min F| = 1."""
        return [a for a, m in enumerate(self.minima) if m.bit_count() == 1]

    def mi_poset(self):
        """The meet-irreducibles as a poset under the induced order,
        labelled by their filter bitstrings.  Mi is the up(x), and up(x_t)
        lies above up(x_a) iff x_t is in up(x_a): no pairwise test."""
        mi = self.meet_irreducibles()
        labels = [self.bitstring(a) for a in mi]
        if not mi:
            return Poset(labels, [], _trusted=True)
        # Character n - 1 - y of F's n-digit string is y's bit; row a picks x_t's.
        n = self.base.n
        pick = itemgetter(*[n - self.minima[a].bit_length() for a in mi])
        rows = ["".join(pick(format(self.filters[a], "0%db" % n)))
                for a in mi]
        up, down = ([int(s[::-1], 2) & ~(1 << t) for t, s in enumerate(strs)]
                    for strs in (rows, map("".join, zip(*rows))))
        return Poset(labels, up, _trusted=True, _down=down)

    def covering_graph(self):
        """The cover edges as sorted (lower, upper) index pairs; the
        ``lattice`` command and the DOT export read them."""
        return [(a, b) for a in range(self.size) for b in self.up_covers[a]]


def filter_lattice(p, cap=FILTER_CAP):
    """The distributive lattice of all filters of poset ``p``; raises
    CapacityExceeded beyond ``cap`` filters."""
    return DistLattice(p, p.filters_with_minima(cap))


def birkhoff_roundtrip(lat):
    """True when the meet-irreducibles of ``lat``, as sorted (min F, F)
    pairs, are exactly the principal filters (x, up(x)) of its base P.  P's
    order is transitively closed, so up(y) lies in up(x) iff y is in up(x):
    x -> up(x) is then an isomorphism from P onto Mi(L), with no search."""
    p = lat.base
    mi = sorted([(lat.minima[a], lat.filters[a])
                 for a in lat.meet_irreducibles()])
    return mi == [(1 << x, p.up[x] | 1 << x) for x in range(p.n)]
