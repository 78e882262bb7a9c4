"""Reference answers the benchmark checks every item against.

Nothing here imports latcut.  Posets are ``Order`` values: ``n`` elements
indexed 0..n-1 and one bitmask per element of the elements strictly above
it, transitively closed.  Filter counts come from closed forms (fences,
crowns, antichains, chains), from the sum rules (product for a disjoint
union, sum minus one for an ordinal sum) or, for small pieces, from a scan
of all 2^n subsets.
"""

from __future__ import annotations

from math import comb


def fib(n):
    """F_0 = 0, F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    """L_0 = 2, L_1 = 1."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Order:
    """A finite strict order as transitively closed up-masks."""

    __slots__ = ("n", "up", "down")

    def __init__(self, up):
        self.up = tuple(up)
        self.n = len(self.up)
        down = [0] * self.n
        for i, m in enumerate(self.up):
            for j in bits(m):
                down[j] |= 1 << i
        self.down = tuple(down)

    @property
    def full(self):
        return (1 << self.n) - 1

    def covers(self):
        """The transitive reduction as (lower, upper) index pairs."""
        return [(i, j) for i in range(self.n) for j in bits(self.up[i])
                if self.up[i] & self.down[j] == 0]

    def permuted(self, perm):
        """The same order with element i moved to index perm[i]."""
        up = [0] * self.n
        for i, m in enumerate(self.up):
            up[perm[i]] = sum(1 << perm[j] for j in bits(m))
        return Order(up)


# -- generators (same conventions as the paper: fences start at a top) --------


def chain(n):
    return Order([((1 << n) - 1) & ~((1 << (i + 1)) - 1) for i in range(n)])


def antichain(n):
    return Order([0] * n)


def _closed(n, pairs):
    up = [0] * n
    for lo, hi in pairs:
        up[lo] |= 1 << hi
    # Zigzags have height one, so the covers are already closed.
    return Order(up)


def fence(n):
    """Zigzag 1 > 2 < 3 > 4 ...: odd positions (index 0, 2, ...) on top."""
    pairs = []
    for i in range(1, n, 2):
        pairs.append((i, i - 1))
        if i + 1 < n:
            pairs.append((i, i + 1))
    return _closed(n, pairs)


def crown(two_n):
    """The fence on two_n elements closed into a cycle."""
    pairs = []
    for i in range(1, two_n, 2):
        pairs.append((i, i - 1))
        pairs.append((i, (i + 1) % two_n))
    return _closed(two_n, pairs)


def union(a, b):
    """Disjoint union: |F(a + b)| = |F(a)| * |F(b)|."""
    return Order(list(a.up) + [m << a.n for m in b.up])


def ordinal_sum(a, b):
    """Every element of a below every element of b:
    |F(a (+) b)| = |F(a)| + |F(b)| - 1."""
    above = ((1 << b.n) - 1) << a.n
    return Order([m | above for m in a.up] + [m << a.n for m in b.up])


# -- counting -------------------------------------------------------------------


def filters_by_scan(p):
    """Every up-closed subset, by testing all 2^n subsets."""
    up = p.up
    return [s for s in range(1 << p.n)
            if all(up[i] & ~s == 0 for i in bits(s))]


def antichain_counter(p):
    """count(M): antichains of p inside the subset M, memoised.  When M is
    a down-set these are exactly the down-sets of p contained in M, and when
    M is a filter the filters of p contained in M."""
    comp = [p.up[i] | p.down[i] | (1 << i) for i in range(p.n)]
    memo = {0: 1}

    def count(m):
        got = memo.get(m)
        if got is None:
            low = m & -m
            i = low.bit_length() - 1
            got = count(m ^ low) + count(m & ~comp[i])
            memo[m] = got
        return got

    return count


def interval_and_cutting_counts(p):
    """(intervals, cuttings) of F(p).

    An interval is a pair of filters G inside F; there are count(F) of them
    for each F.  A cutting is a one-point extension of p: a down-set D and a
    filter T with every element of D strictly below every element of T, so
    for each filter T they are the down-sets of the common lower bounds of T.
    """
    count = antichain_counter(p)
    intervals = cuttings = 0
    for f in filters_by_scan(p):
        intervals += count(f)
        lower = p.full
        for t in bits(f):
            lower &= p.down[t]
        cuttings += count(lower)
    return intervals, cuttings


# -- checks on program output (each returns None or what went wrong) -----------


def binomial_transform(d):
    """q_k = sum_j C(j, k) d_j, trailing zeros dropped."""
    q = [sum(comb(j, k) * d[j] for j in range(k, len(d)))
         for k in range(len(d))]
    while q and q[-1] == 0:
        q.pop()
    return q


def check_stats(report, n, size):
    """A ``latcut stats`` report against the size it must have and the
    identities every distributive lattice satisfies."""
    if report.get("n") != n:
        return "n=%r, want %d" % (report.get("n"), n)
    if report.get("size") != size:
        return "size=%r, want %d" % (report.get("size"), size)
    q, dm, dp = report["q"], report["d_minus"], report["d_plus"]
    if sum((-1) ** k * c for k, c in enumerate(q)) != 1:
        return "Q(-1) != 1 for q=%r" % (q,)
    if binomial_transform(dm) != q:
        return "q=%r is not the binomial transform of d_minus=%r" % (q, dm)
    if dm != dp:
        return "d_minus=%r != d_plus=%r" % (dm, dp)
    if sum(report["rank_poly"]) != size:
        return "rank_poly sums to %d, want %d" % (sum(report["rank_poly"]), size)
    return None


def check_cutting_listing(text, n, want):
    """``latcut cutting`` output: ``want`` distinct lines of two n-bit
    strings."""
    lines = text.splitlines()
    if len(lines) != want:
        return "%d cuttings listed, want %d" % (len(lines), want)
    if len(set(lines)) != len(lines):
        return "a cutting is listed twice"
    for line in lines:
        parts = line.split()
        if len(parts) != 2 or any(len(s) != n or set(s) - {"0", "1"}
                                  for s in parts):
            return "malformed line %r" % (line,)
    return None
