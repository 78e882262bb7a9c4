"""Exhaustive and seeded-random poset sources for the verification suites.

Exhaustive layers:
  natural_posets(n)    strict orders contained in the integer order 1 < .. < n
  all_labeled_posets(n)    every partial order on n labelled points
  posets_up_to_iso(n)      one representative per isomorphism class

Every poset has a linear extension, so each isomorphism class contains a
naturally labelled member; relabelling the natural ones by all permutations
and deduplicating gives the labelled count (1, 1, 3, 19, 219, 4231, ...),
while keeping one natural poset per isomorphism class, by pairwise
isomorphism tests, gives the class count (1, 1, 2, 5, 16, 63, 318).

random_poset draws the size, then one edge probability for the whole poset,
then upper-triangle relations i < j, and transitively closes.  Everything is
driven by random.Random(seed), so a seed pins the poset down exactly.
"""

from __future__ import annotations

import random
from itertools import permutations

from .bits import iter_bits, mask_of
from .poset import Poset, _profile, poset_isomorphic

_ENUM_LIMIT = 7


def _labels(n):
    return [str(i) for i in range(1, n + 1)]


def natural_posets(n):
    """Up-mask tuples of every strict order with i < j only for i < j as ints.

    Scans the 2^C(n,2) upper-triangle relations and keeps the transitive
    ones; fine through n = 7, guarded beyond.
    """
    if n < 0:
        raise ValueError("negative size")
    if n > _ENUM_LIMIT:
        raise ValueError("exhaustive enumeration capped at %d elements" % _ENUM_LIMIT)
    if n == 0:
        return [()]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for bits in range(1 << len(pairs)):
        up = [0] * n
        for t, (i, j) in enumerate(pairs):
            if bits >> t & 1:
                up[i] |= 1 << j
        if all(up[j] & ~up[i] == 0
               for i in range(n) for j in iter_bits(up[i])):
            out.append(tuple(up))
    return out


def all_labeled_posets(n):
    """Every partial order on labels 1..n, as Poset objects."""
    base = natural_posets(n)
    seen = set()
    labels = _labels(n)
    out = []
    for up in base:
        for perm in permutations(range(n)):
            relabeled = [0] * n
            for i in range(n):
                relabeled[perm[i]] = mask_of(perm[j] for j in iter_bits(up[i]))
            key = tuple(relabeled)
            if key not in seen:
                seen.add(key)
                out.append(Poset(labels, key, _trusted=True))
    return out


def posets_up_to_iso(n):
    """One representative per isomorphism class of n-element posets: the
    first natural poset of each class.  Each poset is tested with
    poset_isomorphic only against the representatives that share its
    sorted (|down|, |up|) profile."""
    labels = _labels(n)
    reps = {}
    out = []
    for up in natural_posets(n):
        p = Poset(labels, up, _trusted=True)
        bucket = reps.setdefault(tuple(sorted(_profile(p))), [])
        if not any(poset_isomorphic(p, r) for r in bucket):
            bucket.append(p)
            out.append(p)
    return out


def random_poset(seed, n_max):
    """Seed-determined poset with 1 <= |P| <= n_max.

    The relation density is itself drawn per poset, so the stream mixes
    near-chains, near-antichains and everything between.  Each row of drawn
    relations is collected as bytes and read into its int once, so a dense
    draw costs about its n^2/2 ``rng.random()`` calls, not an n-bit OR per
    relation.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    density = rng.random()
    rand = rng.random
    up = []
    for i in range(n):
        drawn = bytes([rand() < density for _ in range(i + 1, n)])
        up.append(int(drawn.translate(_DIGITS)[::-1] or b"0", 2) << i + 1)
    # Transitive closure along the natural order, right to left.  A row ORs
    # in the closed row of its nearest relation first, then skips every
    # drawn relation that row already implies.
    for i in range(n - 2, -1, -1):
        m = todo = up[i]
        while todo:
            low = todo & -todo
            reached = up[low.bit_length() - 1]
            m |= reached
            todo &= ~(reached | low)
        up[i] = m
    return Poset(_labels(n), tuple(up), _trusted=True, _down=_transpose(up))


# Bytes 0 and 1 as the digits "0" and "1", and back.
_DIGITS = bytes.maketrans(b"\0\1", b"01")
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


def trial_seed(seed, t):
    """Per-trial derived seed for the randomized suites."""
    return seed * 1_000_003 + t
