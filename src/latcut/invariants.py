"""Enumerative invariants of finite distributive lattices and their behaviour
under convex expansion.

All arithmetic is exact integer arithmetic; polynomials are plain coefficient
lists with no trailing zeros (the zero polynomial is the empty list).

Invariants
----------
rank_poly   R(L, x) = sum over elements of x^height
q           q_k = number of intervals that are Boolean cubes of dimension k
d_minus     d_k = number of elements with exactly k upper covers
d_plus      d_k = number of elements with exactly k lower covers
d_total     d_k = number of elements with Hasse degree k

q and d_minus determine each other by a binomial transform, which is why the
alternating sum of q is always 1 (an Euler relation) and the derivative of
q's generating polynomial at -1 counts the meet-irreducibles.

Under expansion at a cutting K the rank polynomial satisfies

    R(L expanded, x) = R_L(below top(K), x) + x * R_L(above bottom(K), x)

and the vectors satisfy

    q_k(exp)       = q_k(L) + q_k(K) + q_{k-1}(K)
    d_minus_k(exp) = d_minus_k(L) + d_minus_{k-1}(K)
    d_k(exp at K') = d_k(exp) + d_{k-2}(K)     (second expansion at the copy)

q is counted by a census of the filter minima.  q_vector cross-checks it
once per lattice by the q recurrence read on the base poset, with F(P) as
F(P - x) expanded at F(P * x):

    Q(P) = Q(P - x) + (1 + t) Q(P * x)

which builds no lattice and reads nothing of the lattice it checks.  The
check is skipped past the recurrence's work bound.

The checks of these identities take the ExpansionResult of expand_poset
alone: it holds L, K and the expansion together, and K as a lattice, which
only the q and d checks read.  None of them validates K again or builds the
expansion it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb, prod
from operator import add

from .bits import iter_bits
from .errors import CapacityExceeded
from .expansion import expand_poset
from .poset import FILTER_CAP

# _q_recurrence's work bound, in big-int word operations of its splits.
# fence(200) reaches it in about 30 ms, and random_poset(2, 2000), of
# 1,958 elements, finishes inside it in about 13 ms (CPython 3.11, 2-vCPU
# VM).
_RECURRENCE_WORK_MAX = 1 << 17


# -- polynomial helpers (coefficient lists, exact ints) -------------------------


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_eq(a, b):
    return poly_trim(a) == poly_trim(b)


def poly_add(a, b):
    return poly_trim(map(sum, zip_longest(a, b, fillvalue=0)))


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_shift(a, k):
    """Multiply by x^k."""
    a = poly_trim(a)
    return [0] * k + a if a else []


def poly_eval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def poly_deriv(a):
    return poly_trim([i * c for i, c in enumerate(a)][1:])


# -- rank generating function ------------------------------------------------------


def _rank_histogram(n, filters):
    """The rank histogram, a list of length n + 1, of filters of an
    n-element poset: coefficient k counts the F of height n - |F| = k."""
    rank = [0] * (n + 1)
    for f in filters:
        rank[n - f.bit_count()] += 1
    return rank


def rank_gen(lat):
    """Coefficient k counts the elements of height k, a list of length
    n + 1 (:func:`_rank_histogram` on the filters of ``lat``)."""
    return _rank_histogram(lat.base.n, lat.filters)


def rank_gen_of(lat, elements):
    """Rank polynomial of a subset of elements, heights taken in ``lat``:
    the element a has height n - |F_a|."""
    return poly_trim(_rank_histogram(
        lat.base.n, [lat.filters[a] for a in elements]))


# -- q vector -------------------------------------------------------------------------


def _q_census(lat):
    """Pair formula: every Boolean interval [a, b] arises from the filter
    F = filter(a) and a subset of its minimal elements, so q_k = sum over F
    of C(|min F|, k): the binomial transform of d_minus, read off the minima.
    Trimmed first, it takes one Pascal row per degree, not per element."""
    hist = [0] * (lat.base.n + 1)
    for m in lat.minima:
        hist[m.bit_count()] += 1
    return binomial_transform(poly_trim(hist))


def _q_scan(lat):
    """q by its definition, the reference the tests hold the census and
    the recurrence to: enumerate every comparable pair (a, b), take the
    set difference of their filters, and count it by its size when it is
    an antichain, that is when no element of it has another above it.
    F_b within F_a puts b at or after a in the canonical order (larger
    filters first), so each row a walks only the columns from a on.
    O(|L|^2) pairs; no production route calls it."""
    up = lat.base.up
    filters = lat.filters
    counts = [0] * (lat.base.n + 1)
    for a, fa in enumerate(filters):
        outside = ~fa
        for fb in filters[a:]:
            if not fb & outside:                       # F_b within F_a
                s = fa ^ fb
                if not any(up[i] & s for i in iter_bits(s)):
                    counts[s.bit_count()] += 1
    return poly_trim(counts)


def _q_recurrence(p):
    """q of F(P) from P alone, by the paper's q recurrence read on posets,
    or None past the work bound.
    F(P) is F(P - x) expanded at the cutting F(P * x), P * x being P less
    everything comparable to x, so

        Q(P) = Q(P - x) + (1 + t) Q(P * x).

    The sum laws come first (:meth:`Poset.split`): a disjoint union's
    lattice is the product of its parts', so their Q polynomials multiply.
    An ordinal sum of k parts stacks its parts' lattices, one element
    shared at each junction.  A junction is comparable to every element,
    so it lies strictly inside no Boolean interval, and each Boolean
    interval lies in one part: their Q polynomials add, less k - 1 in
    degree 0 for the junctions counted twice.  A single point has
    Q = 2 + t and the empty poset Q = 1.  A prime block deletes the x
    comparable to most of its elements, the lowest such index, which
    leaves P * x smallest; like the split, the pick reads
    ``up[i] | down[i]`` inline.  Subposets are masks of P, memoised, and
    evaluated children first from an explicit stack.

    The work bound: with w = n // 64 + 1 the machine words of a mask of
    P, the sum of |M| * w over the subposets M that are split stays at
    most _RECURRENCE_WORK_MAX; the split that would pass it returns None
    instead.  Splitting M, and picking a prime block's x, visit each of
    its elements at most three times with a few operations on n-bit
    masks, so |M| * w is its cost to within a constant factor."""
    up, down = p.up, p.down
    words = p.n // 64 + 1
    work = 0
    done = {0: [1]}
    plans = {}
    stack = [p.full_mask]
    while stack:
        mask = stack[-1]
        if mask in done:
            stack.pop()
        elif mask in plans:
            # Every part of the plan was evaluated above it on the stack.
            stack.pop()
            kind, parts = plans.pop(mask)
            # Inline arithmetic on fresh lists: every Q has nonnegative
            # coefficients and a positive leading one, so none needs a trim.
            qs = [done[m] for m in parts]
            if kind == "union":
                q = [1]
                for r in qs:
                    out = [0] * (len(q) + len(r) - 1)
                    for a, c in enumerate(q):
                        for b, d in enumerate(r):
                            out[a + b] += c * d
                    q = out
            elif kind == "sum":
                q = [sum(c) for c in zip_longest(*qs, fillvalue=0)]
                q[0] -= len(qs) - 1
            else:
                minus, star = qs
                shifted = [0] + star                    # t Q(P * x)
                q = [sum(c) for c in zip_longest(minus, star, shifted,
                                                 fillvalue=0)]
            done[mask] = q
        elif mask.bit_count() == 1:
            # A point is a leaf: splitting it as a prime block instead took
            # twice as long on fences, crowns and random posets.
            stack.pop()
            done[mask] = [2, 1]
        else:
            work += mask.bit_count() * words
            if work > _RECURRENCE_WORK_MAX:
                return None
            kind, parts = p.split(mask)
            if kind == "prime":
                # The lowest index among the most comparable elements.
                most, rest = -1, mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    i = low.bit_length() - 1
                    c = ((up[i] | down[i]) & mask).bit_count()
                    if c > most:
                        most, x, xbit = c, i, low
                parts = [mask ^ xbit, mask & ~(up[x] | down[x] | xbit)]
            plans[mask] = kind, parts
            for m in parts:
                if m not in done:
                    stack.append(m)
    return done[p.full_mask]


def q_vector(lat):
    """Counts of Boolean-cube intervals by dimension: the census
    (:func:`_q_census`), cross-checked once by the recurrence on the base
    poset (:func:`_q_recurrence`), which reads P alone; past its work
    bound the census goes unchecked.  Raises AssertionError when the two
    disagree.  Computed once per lattice and cached on it; each call
    returns a fresh list."""
    if lat._q is None:
        q = _q_census(lat)
        check = _q_recurrence(lat.base)
        if check is not None and check != q:
            raise AssertionError("recurrence %r disagrees with census %r"
                                 % (check, q))
        lat._q = tuple(q)
    return list(lat._q)


# -- degree vectors --------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeVectors:
    minus: list      # histogram of up-cover counts, length width+1
    plus: list       # histogram of down-cover counts, length width+1
    total: list      # histogram of total Hasse degree

    @property
    def width(self):
        return len(self.minus) - 1


def antichain_census(p):
    """Number of k-element antichains of a poset, k = 0..width.

    On the meet-irreducible poset of a lattice this reproduces both degree
    histograms, which is the oracle behind the d-vector identities.
    """
    out = [0] * (p.n + 1)
    for _, a in p.filters_with_minima():
        out[a.bit_count()] += 1
    return poly_trim(out)


def _padded_degree_vectors(minus, plus, total):
    """The DegreeVectors of the three histograms: trailing zeros dropped,
    then ``minus`` and ``plus`` padded to one length, the largest degree
    plus one."""
    minus, plus = poly_trim(minus), poly_trim(plus)
    width = max(len(minus), len(plus))
    return DegreeVectors(minus=minus + [0] * (width - len(minus)),
                         plus=plus + [0] * (width - len(plus)),
                         total=poly_trim(total))


def _histograms(n, filters, minima, index_of):
    """The degree histograms [minus, plus, total], lists of length n + 1,
    of the filters ``filters`` of an n-element poset, with ``minima``
    their minima and ``index_of`` each filter's position in ``filters``.
    F has up-degree |min F|, and F is a lower cover of F - y for each y in
    min F, so the down-degrees are counted off the minima.  No rank is
    counted: :func:`_rank_histogram` counts it where it is read."""
    down = [0] * len(filters)
    for m, f in zip(minima, filters):
        while m:
            y = m & -m
            m ^= y
            down[index_of[f ^ y]] += 1
    # An element's up- and down-covers drop and add distinct elements of
    # the base, so both degrees and their sum are at most n.
    minus, plus, total = hists = [[0] * (n + 1) for _ in range(3)]
    for m, d in zip(minima, down):
        u = m.bit_count()
        minus[u] += 1
        plus[d] += 1
        total[u + d] += 1
    return hists


def d_vectors(lat):
    """The degree histograms of ``lat`` (:func:`_histograms`), computed
    once per lattice and cached on it; each call returns fresh lists."""
    if lat._d is None:
        lat._d = _padded_degree_vectors(*_histograms(
            lat.base.n, lat.filters, lat.minima, lat.index_of))
    d = lat._d
    return DegreeVectors(minus=list(d.minus), plus=list(d.plus),
                         total=list(d.total))


# -- binomial transform and Euler relations ------------------------------------------


def binomial_transform(d):
    """q_k = sum over j of C(j, k) d_j.  Row j of Pascal's triangle is made
    from row j - 1 as the sum runs, so this takes O(w^2) additions and
    multiplications by the d_j, and no comb()."""
    q = [0] * len(d)
    row = [1]       # C(j, 0), ..., C(j, j)
    for dj in d:
        if dj:
            for k, c in enumerate(row):
                q[k] += c * dj
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return poly_trim(q)


def inverse_binomial_transform(q):
    m = len(q) - 1
    return poly_trim([sum((-1) ** (j - k) * comb(j, k) * q[j]
                          for j in range(k, m + 1)) for k in range(m + 1)])


def binomial_relations(lat):
    """Check all three forms of the q / d_minus correspondence: None when
    they hold, the failure detail otherwise."""
    q = q_vector(lat)
    d = d_vectors(lat).minus
    # q_k = sum_j C(j, k) d_j by the comb() sum, independent of the census's
    # Pascal row and of the substitution below.
    q_from_d = [sum(comb(j, k) * d[j] for j in range(k, len(d)))
                for k in range(len(d))]
    # d_k = sum_j (-1)^(j-k) C(j, k) q_j.
    d_from_q = inverse_binomial_transform(q)
    # Q(x) = D(1 + x), by polynomial arithmetic rather than comb().
    sub = []
    for coeff in reversed(d):
        sub = poly_add(poly_mul(sub, [1, 1]), [coeff])
    if not (poly_eq(q_from_d, q) and poly_eq(d_from_q, d)
            and poly_eq(sub, q)):
        return "q=%r d_minus=%r" % (q, d)


def _euler_sums(q):
    """Q(-1) and Q'(-1), which the Euler relations put at 1 and |Mi|."""
    return poly_eval(q, -1), poly_eval(poly_deriv(q), -1)


def euler_checks(lat):
    """Q(-1) = 1 and Q'(-1) = number of meet-irreducibles: None when both
    hold, the failure detail otherwise."""
    alternating, derivative = _euler_sums(q_vector(lat))
    mi_count = len(lat.meet_irreducibles())
    if (alternating, derivative) != (1, mi_count):
        return "Q(-1)=%d Q'(-1)=%d |Mi|=%d" % (alternating, derivative,
                                                mi_count)


# -- recurrences under expansion ----------------------------------------------------
#
# Each check takes an ExpansionResult, which carries its host L, the cutting
# K of L it was made at, validated by expand_poset, and the expansion L'.
# It returns None when its identity holds and the failure detail otherwise.


def check_rank_recurrence(exp):
    """R(L') = R_L(below top) + x R_L(above bottom), heights taken in the
    host L.  The forms for a K at the top or the bottom of L are this one
    with one side all of L and the other K itself."""
    lat, k = exp.host, exp.interval
    lhs = rank_gen(exp.lattice)
    below_top = rank_gen_of(lat, lat.between(lat.bottom, k.top))
    above_bottom = rank_gen_of(lat, lat.between(k.bottom, lat.top))
    rhs = poly_add(below_top, poly_shift(above_bottom, 1))
    if not poly_eq(lhs, rhs):
        return "lhs=%r host=%r" % (lhs, rhs)


def check_q_recurrence(exp):
    """The q recurrence, whose k = 0 coefficient is |L'| = |L| + |K|."""
    q_host = q_vector(exp.host)
    q_int = q_vector(exp.interval_lattice)
    q_exp = q_vector(exp.lattice)
    want = poly_add(q_host, poly_add(q_int, poly_shift(q_int, 1)))
    if not poly_eq(q_exp, want):
        return "q=%r" % (q_exp,)


def check_d_recurrences(exp):
    """One expansion for the up-cover histogram, and the growth of |Mi| by
    one; a second expansion at the copy interval for the total-degree
    histogram."""
    lat = exp.host
    d_host = d_vectors(lat)
    d_int = d_vectors(exp.interval_lattice)
    d_exp = d_vectors(exp.lattice)

    minus_ok = poly_eq(d_exp.minus,
                       poly_add(d_host.minus, poly_shift(d_int.minus, 1)))
    mi_ok = (len(exp.lattice.meet_irreducibles())
             == len(lat.meet_irreducibles()) + 1)

    exp2 = expand_poset(exp.lattice, exp.copy_interval)
    d_exp2 = d_vectors(exp2.lattice)
    total_ok = poly_eq(d_exp2.total,
                       poly_add(d_exp.total, poly_shift(d_int.total, 2)))
    if not (minus_ok and total_ok and mi_ok):
        return "d_minus_ok=%r d_total_ok=%r mi_growth_ok=%r" % (
            minus_ok, total_ok, mi_ok)


# -- summary report -----------------------------------------------------------------


def _stats_json(n, size, q, deg, rank, mi_count):
    """The report of :func:`stats_dict` and :func:`poset_stats`, from the
    q vector, the DegreeVectors, the rank polynomial and |Mi|."""
    alternating, derivative = _euler_sums(q)
    return {
        "n": n,
        "size": size,
        "q": list(q),
        "d_minus": list(deg.minus),
        "d_plus": list(deg.plus),
        "d_total": list(deg.total),
        "rank_poly": list(rank),
        "mi_count": mi_count,
        "euler_ok": alternating == 1,
        "euler_derivative_ok": derivative == mi_count,
    }


def stats_dict(lat):
    """The JSON-facing report: integer-only values, fixed key set."""
    return _stats_json(lat.base.n, lat.size, q_vector(lat), d_vectors(lat),
                       rank_gen(lat), len(lat.meet_irreducibles()))


def poset_stats(p, cap=FILTER_CAP):
    """``stats_dict(filter_lattice(p, cap))``, computed without the lattice.

    The element F of F(P) has height n - |F|, |min F| upper covers (F - a
    for a in min F) and |max(P - F)| lower covers (F + y for y in
    max(P - F)).  The report is a function of four histograms over the
    filters: of the height, of each degree and of their sum.

    P is first split by the sum laws (:meth:`Poset.split`, with an explicit
    stack, so any depth of nesting is fine), down to single points, which
    take the closed form of F({x}) = {{x}, {}}, and prime blocks, which
    are counted.  A disjoint union's histograms are the convolutions of
    its parts': its filter lattice is the product of theirs, and height,
    both degrees and their sum each add up over the parts.  An ordinal
    sum stacks its parts' lattices with one element shared at each
    junction (:func:`_stacked_histograms`).

    A prime block, of 4 or more elements, is counted by one fixed rule
    (:func:`_prime_histograms`).  The walk (:func:`_walked_histograms`)
    lists its filters once, with their minima, and counts their degrees
    as :func:`d_vectors` counts a lattice's elements and their heights as
    :func:`rank_gen` does.  It may list up to S filters, the state bound
    of the transfer-matrix DP (:func:`_transfer_order`): S is the sum over
    the vertices, in BFS order, of 4^w, w the frontier after the vertex,
    so 4n - 3 on a fence of n elements.  Past S filters the DP
    (:func:`_transfer_histograms`) counts the block, in time that grows
    with S and not with the number of filters.

    Raises CapacityExceeded beyond ``cap`` filters, with the messages of a
    walk over all of P: first when the minimal or maximal elements of P
    already force more (:meth:`Poset.refuse_wide`), then "more than cap
    filters" as soon as one block, or the exact size of a union or sum of
    blocks, passes it.  A block is walked at most to the cap, and the DP
    runs only when S is under the cap, and is refused on its exact size.

    q is the census, the binomial transform of the up-degree histogram; no
    lattice is built and no cross-check runs.  The recurrence cross-checks
    the census in :func:`q_vector`, which the verify suites and the tests
    call.

    So here Q(x) = D(1 + x), D the up-degree polynomial, and the Euler
    sums are Q(-1) = d_minus[0] and Q'(-1) = d_minus[1].  As ``mi_count``
    is read as d_minus[1], ``euler_derivative_ok`` holds by definition,
    and ``euler_ok`` only says that exactly one filter, the empty one, has
    no minima.  The informative check of this route is d_minus == d_plus:
    the DP counts min F and max(P - F) separately, and the walk counts the
    lower covers of G as the filters F = G + y it lists with y in min F.
    """
    p.refuse_wide(cap)
    rank, minus, plus, total = _split_histograms(p, cap)
    size = sum(rank)
    deg = _padded_degree_vectors(minus, plus, total)
    return _stats_json(p.n, size, binomial_transform(deg.minus), deg, rank,
                       deg.minus[1] if deg.width else 0)


def _split_histograms(p, cap):
    """The [rank, minus, plus, total] histograms of F(P), combined up the
    split tree of P: the tree is listed parents first, then folded in
    reverse, so every block's parts are done before the block.

    A single point x is a leaf, neither split nor restricted: F({x}) is
    {x} (height 0, up-degree 1, down-degree 0) above the empty filter
    (height 1, up-degree 0, down-degree 1).  Every poset on 2 or 3
    elements splits, so the other leaves, the prime blocks, have 4 or more
    elements, or none when P is empty."""
    nodes = []
    done = {}
    stack = [p.full_mask]
    while stack:
        mask = stack.pop()
        if mask.bit_count() == 1:
            done[mask] = [[1, 1], [1, 1], [1, 1], [0, 2]]
            continue
        kind, parts = p.split(mask)
        nodes.append((mask, kind, parts))
        if kind != "prime":
            stack.extend(parts)
    for mask, kind, parts in reversed(nodes):
        if kind == "prime":
            block = p if mask == p.full_mask else p.restrict(mask)
            done[mask] = _prime_histograms(block, cap)
            continue
        hists = [done.pop(m) for m in parts]
        sizes = [sum(h[0]) for h in hists]
        size = prod(sizes) if kind == "union" else sum(sizes) - len(sizes) + 1
        if size > cap:
            raise CapacityExceeded("more than %d filters" % cap)
        done[mask] = (_convolved_histograms(hists) if kind == "union"
                      else _stacked_histograms(p, parts, hists))
    return done[p.full_mask]


def _prime_histograms(q, cap):
    """The histograms of a prime block Q, of 4 or more elements or of
    none, by the walk or by the DP, one fixed rule.  The walk, which
    counts the rank in a pass of its own, costs within a factor of two of
    the DP's cost per unit of its state bound S: 1.1 to 1.5 us per filter
    against 0.8 to 1.2 us on fence and crown of 14 to 20 elements, best of
    20 (CPython 3.11, one core of a shared 2-vCPU VM), the walk 0.9 to 1.3
    times the DP on the fences and 1.4 to 1.7 times on the crowns.  The
    walk's cost per filter grows with the mean |min F|, as it counts one
    cover per minimal element.  So the walk may list up to S filters, and
    past that the DP is the cheaper route; a DP run then follows a cut
    walk, which costs less than the DP itself.  Neither runs past the cap:
    when S is over it the walk refuses at the cap, and the DP's exact size
    is checked against it."""
    steps, bound = _transfer_order(q)
    budget = min(cap, bound)
    try:
        return _walked_histograms(q, budget)
    except CapacityExceeded:
        if budget == cap:
            # A block over the cap puts P over it, and a walk over P would
            # have said so in these words.
            raise CapacityExceeded("more than %d filters" % cap) from None
    hists = _transfer_histograms(q, steps)
    if sum(hists[0]) > cap:
        raise CapacityExceeded("more than %d filters" % cap)
    return hists


def _walked_histograms(q, cap):
    """The [rank, minus, plus, total] histograms of F(Q) for a poset Q that
    does not split, from one antichain walk over Q, which yields each
    filter with its minima: the rank by :func:`_rank_histogram`, the
    degrees by :func:`_histograms`.  The walk raises CapacityExceeded
    beyond ``cap`` filters."""
    filters, minima = zip(*q.filters_with_minima(cap))
    return [_rank_histogram(q.n, filters),
            *_histograms(q.n, filters, minima,
                         {f: i for i, f in enumerate(filters)})]


def _transfer_order(q):
    """The steps of the transfer-matrix DP over the cover graph of ``q`` and
    their state bound.  Vertices are taken in BFS order, each component
    from a vertex of least degree.  A step adds one vertex v and is the
    tuple ``(v, lower, upper, retire)``: v's lower and upper covers among the
    vertices added before it, and the vertices whose last neighbour is then
    added, which leave the frontier.  The bound is S = sum over the steps
    of 4^w, where w is the frontier after the step: each frontier vertex
    has four states."""
    n = q.n
    lower, upper = [0] * n, [0] * n
    for i, j in q.cover_masks():
        upper[i] |= 1 << j
        lower[j] |= 1 << i
    order = []
    left = q.full_mask
    while left:
        start = min(iter_bits(left),
                    key=lambda v: (lower[v] | upper[v]).bit_count())
        left &= ~(1 << start)
        queue = [start]
        for v in queue:
            order.append(v)
            new = (lower[v] | upper[v]) & left
            left &= ~new
            queue += iter_bits(new)
    steps = []
    done = frontier = 0
    bound = 0
    for v in order:
        done |= 1 << v
        frontier |= 1 << v
        retire = 0
        for u in iter_bits(frontier):
            if (lower[u] | upper[u]) & ~done == 0:
                retire |= 1 << u
        frontier &= ~retire
        steps.append((v, lower[v] & done, upper[v] & done, retire))
        bound += 4 ** frontier.bit_count()
    return steps, bound


def _transfer_histograms(q, steps):
    """The [rank, minus, plus, total] histograms of F(Q), lists of length
    n + 1, by a transfer-matrix DP over the cover graph (Stanley, EC1
    4.7); no filter is listed.

    F is a filter iff every cover a < b has b in F when a is.  The element
    a is in min F iff a is in F and no lower cover of a is, and in
    max(Q - F) iff a is not in F and every upper cover of a is.  So the
    DP adds the vertices one by one (:func:`_transfer_order`) and keys
    its states on the frontier: for each frontier vertex, whether it is in
    F and whether its status (minimal in F, or maximal outside F) is still
    possible.  A vertex that leaves the frontier has its status settled.
    Each state carries the four generating polynomials, in x^height,
    x^|min F|, x^|max(Q - F)| and x^(both), packed into one int each with
    n + 1 bits per coefficient: a count is at most 2^n, so they never
    carry, and multiplying by x^k is a shift."""
    bits = q.n + 1
    states = {(0, 0): (1, 1, 1, 1)}
    for v, lower, upper, retire in steps:
        vbit, keep = 1 << v, ~retire
        new = {}
        for (f, ok), (r, a, b, t) in states.items():
            moves = []
            if upper & ~f == 0:
                # v in F: its upper covers are in F and stop being minimal;
                # v is minimal while none of its lower covers is in F.
                moves.append(
                    (f | vbit, ok & ~upper | (0 if lower & f else vbit), r))
            if lower & f == 0:
                # v outside F: so are its lower covers, which stop being
                # maximal there; v is maximal while its upper covers are in F.
                moves.append(
                    (f, ok & ~lower | (0 if upper & ~f else vbit), r << bits))
            for g, live, h in moves:
                # The vertices leaving the frontier are settled: a minimal
                # one in F, or a maximal one outside it, adds to a degree.
                mins = (g & live & retire).bit_count() * bits
                maxs = (live & retire & ~g).bit_count() * bits
                key = (g & keep, live & keep)
                polys = (h, a << mins, b << maxs, t << (mins + maxs))
                old = new.get(key)
                new[key] = (polys if old is None
                            else tuple(map(add, old, polys)))
        states = new
    (polys,) = states.values()
    mask = (1 << bits) - 1
    return [[p >> (k * bits) & mask for k in range(bits)] for p in polys]


def _convolved_histograms(hists):
    """Histograms of a disjoint union from its parts'."""
    out = hists[0]
    for other in hists[1:]:
        out = [poly_mul(a, b) for a, b in zip(out, other)]
    return out


def _stacked_histograms(p, parts, hists):
    """Histograms of the ordinal sum of ``parts`` (masks, bottom-first) from
    their histograms.  With A below B, the filters of the sum are those of
    B, each of height |A| more than in F(B), and the union of G and B for
    each nonempty filter G of A.  B itself, the one filter of both kinds,
    is B's full filter (height 0, up-degree |min B|, down-degree 0) and
    A's empty filter (height |A|, up-degree 0, down-degree |max A|); in the
    sum it has height |A|, up-degree |min B| and down-degree |max A|."""
    n = sum(m.bit_count() for m in parts)
    rank, minus, plus, total = out = [[0] * (n + 1) for _ in range(4)]
    offset = 0
    for mask, (r, *degrees) in zip(parts, hists):
        for h, c in enumerate(r):
            rank[offset + h] += c
        for acc, hist in zip(out[1:], degrees):
            for k, c in enumerate(hist):
                acc[k] += c
        offset += mask.bit_count()
    offset = 0
    for below, above in zip(parts, parts[1:]):
        offset += below.bit_count()
        a = p.max_of(below).bit_count()
        b = p.min_of(above).bit_count()
        rank[offset] -= 1
        minus[0] -= 1
        plus[0] -= 1
        total[a] -= 1
        total[b] -= 1
        total[a + b] += 1
    return out
