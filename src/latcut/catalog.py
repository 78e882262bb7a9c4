"""Exhaustive and seeded-random poset sources for the verification suites.

Exhaustive layers, grown one point at a time by convex expansion:
  all_labeled_posets(n)    every partial order on the labels 1..n
  posets_up_to_iso(n)      one representative per isomorphism class

Read backwards, the decomposition says that every poset Q on n + 1 points
is Q - x expanded at the cutting F(Q * x).  So the extensions of P by a
last point n + 1 are its expansions at the cuttings of F(P), one each.
Extending every labelled poset on n - 1 points gives each on n once (1, 1,
3, 19, 219, 4231, 130023 for n = 0..6); extending one poset per class and
dropping isomorphic candidates gives one per class (1, 1, 2, 5, 16, 63,
318, 2045 for n = 0..7), most of them not naturally labelled.

random_poset draws the size, then one edge probability for the whole poset,
then upper-triangle relations i < j, and transitively closes.  Everything is
driven by random.Random(seed), so a seed pins the poset down exactly; a
size past _DRAW_BOUND relation draws is refused before any is drawn.
"""

from __future__ import annotations

import random

from .errors import CapacityExceeded
from .expansion import _candidate_expansion, cuttings
from .lattice import IntervalRef, filter_lattice
from .poset import Poset, _close, _profile, poset_isomorphic

_ENUM_LIMIT = 7
# n(n - 1)/2 relation draws at most: a random poset has up to 4096 elements.
_DRAW_BOUND = 1 << 23


def _extensions(p):
    """Every one-point extension of ``p``: its expansion at each cutting
    of F(P), the new point last with the label n + 1.  Every interval that
    ``cuttings`` lists has its expansion; one that does not raises
    AssertionError, naming P and the interval."""
    lat = filter_lattice(p)
    label = str(p.n + 1)
    for a, b in cuttings(lat):
        q = _candidate_expansion(lat, IntervalRef(a, b), label)
        if q is None:
            raise AssertionError(
                "cuttings listed [%s,%s] of F(P), which has no expansion, "
                "for P with elements %s and covers %s"
                % (lat.bitstring(a), lat.bitstring(b),
                   " ".join(p.labels) or "none",
                   " ".join("%s<%s" % c for c in p.cover_pairs()) or "none"))
        yield q


def _levels(n, step):
    """The levels of 0, 1, ..., n points, lazily: the empty poset's, then
    each ``step`` of the one before."""
    if n < 0:
        raise ValueError("negative size")
    if n > _ENUM_LIMIT:
        raise ValueError("exhaustive enumeration capped at %d elements" % _ENUM_LIMIT)
    level = [Poset((), (), _trusted=True)]
    yield level
    for _ in range(n):
        level = step(level)
        yield level


def _new_classes(level):
    """One extension per class.  Each candidate is tested with
    poset_isomorphic only against the kept ones that share its sorted
    (|down|, |up|) profile.  Its backtrack places at most 17 elements in
    one test up to n = 7, far below the cap of n^3 = 343, so one that
    passes the cap fails as a check, with AssertionError."""
    reps = {}
    out = []
    for p in level:
        for q in _extensions(p):
            bucket = reps.setdefault(tuple(sorted(_profile(q))), [])
            try:
                known = any(poset_isomorphic(q, r) for r in bucket)
            except CapacityExceeded as e:
                raise AssertionError("the catalog's isomorphism search on "
                                     "%d points: %s" % (q.n, e)) from None
            if not known:
                bucket.append(q)
                out.append(q)
    return out


def _extend_each(level):
    return [q for p in level for q in _extensions(p)]


def all_labeled_posets(n):
    """Every partial order on labels 1..n, as Poset objects."""
    return list(_levels(n, _extend_each))[-1]


def posets_up_to_iso(n):
    """One representative per isomorphism class of n-element posets."""
    return list(_levels(n, _new_classes))[-1]


def random_poset(seed, n_max):
    """Seed-determined poset with 1 <= |P| <= n_max.

    The relation density is itself drawn per poset, so the stream mixes
    near-chains, near-antichains and everything between.  Each row of drawn
    relations is collected as bytes and read into its int once, so a dense
    draw costs about its n^2/2 ``rng.random()`` calls, not an n-bit OR per
    relation.  The rows are closed by :func:`latcut.poset._close`.  Raises
    CapacityExceeded, naming the seed and the size, when those calls would
    pass _DRAW_BOUND (more than 4096 elements).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    if n * (n - 1) // 2 > _DRAW_BOUND:
        raise CapacityExceeded(
            "random poset seed=%d draws %d elements: %d relation draws, "
            "more than %d" % (seed, n, n * (n - 1) // 2, _DRAW_BOUND))
    density = rng.random()
    rand = rng.random
    up = []
    for i in range(n):
        drawn = bytes([rand() < density for _ in range(i + 1, n)])
        up.append(int(drawn.translate(_DIGITS)[::-1] or b"0", 2) << i + 1)
    # Relations go up the natural order, so right to left closes each row
    # after all its successors.
    return Poset([str(i) for i in range(1, n + 1)],
                 _close(up, range(n - 1, -1, -1)), _trusted=True)


# Bytes 0 and 1 as the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def trial_seed(seed, t):
    """Per-trial derived seed for the randomized suites."""
    return seed * 1_000_003 + t
