"""Naive reference implementations the tests use as oracles.

Everything here works on explicit label sets, quadratic scans and literal
definitions.  Slowness is the point: no bitmasks, no DP tables, no sharing
with the package internals beyond reading the order relation itself.
"""

import random
from collections import Counter
from functools import reduce
from itertools import combinations, permutations
from math import comb

from latcut import poset_from_covers
from latcut.bits import iter_bits
from latcut.invariants import (_RECURRENCE_WORK_MAX, poly_add, poly_mul,
                               poly_shift)


def relation(p):
    """Strict order as a set of (lower_label, upper_label) pairs."""
    return {(p.labels[i], p.labels[j])
            for i in range(p.n) for j in range(p.n) if p.lt(i, j)}



def canonical_key(p):
    """A complete isomorphism invariant: the smallest sorted list of
    relation pairs over every renaming of the elements by 0..n-1."""
    rel = relation(p)
    best = None
    for perm in permutations(range(p.n)):
        name = dict(zip(p.labels, perm))
        enc = sorted((name[a], name[b]) for a, b in rel)
        if best is None or enc < best:
            best = enc
    return p.n, tuple(best)


def natural_posets(n):
    """Up-mask tuples of every strict order on 0..n-1 that holds i < j only
    for i < j as ints: a scan of all 2^C(n,2) upper-triangle relation sets
    that keeps the transitive ones."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pair for t, pair in enumerate(pairs) if bits >> t & 1}
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(tuple(sum(1 << j for j in range(n) if (i, j) in rel)
                             for i in range(n)))
    return out


def labeled_posets(n):
    """Up-mask tuples of every strict order on 0..n-1: each natural one
    renamed by every permutation, repeats dropped.  Every order has a
    linear extension, so every order is reached."""
    out = set()
    for up in natural_posets(n):
        for perm in permutations(range(n)):
            renamed = [0] * n
            for i in range(n):
                renamed[perm[i]] = sum(1 << perm[j] for j in range(n)
                                       if up[i] >> j & 1)
            out.add(tuple(renamed))
    return out


def fence_by_covers(n):
    """The zigzag on labels 1..n, even labels minimal, from its cover pairs
    through ``poset_from_covers`` and its transitive closure:
    ``families.fence``, built from masks, must equal it exactly."""
    labels = [str(i) for i in range(1, n + 1)]
    return poset_from_covers(labels, [(str(i), str(j))
                                      for i in range(2, n + 1, 2)
                                      for j in (i - 1, i + 1) if j <= n])


def crown_by_covers(two_n):
    """``fence_by_covers(two_n)`` with the extra cover two_n < 1."""
    labels = [str(i) for i in range(1, two_n + 1)]
    covers = []
    for i in range(2, two_n + 1, 2):
        covers.append((str(i), str(i - 1)))
        covers.append((str(i), str(i + 1) if i < two_n else "1"))
    return poset_from_covers(labels, covers)


def naive_cover_masks(p):
    """The (lower, upper) index pairs of the transitive reduction, by the
    definition: i < j with no k strictly between; i ascending, then j."""
    n = p.n
    return tuple((i, j) for i in range(n) for j in range(n)
                 if p.lt(i, j)
                 and not any(p.lt(i, k) and p.lt(k, j) for k in range(n)))


def induced_masks(p, keep_mask):
    """The subposet on the elements in ``keep_mask``, remapped bit by bit:
    its labels, up masks and down masks, kept elements renumbered
    0, 1, ... in index order."""
    kept = [i for i in range(p.n) if keep_mask >> i & 1]
    up = [sum(1 << t for t, j in enumerate(kept) if p.lt(i, j)) for i in kept]
    down = [sum(1 << t for t, j in enumerate(kept) if p.lt(j, i)) for i in kept]
    return tuple(p.labels[i] for i in kept), tuple(up), tuple(down)


def is_filter(p, bits):
    """True when the subset ``bits`` is upward closed."""
    return all(p.up[i] & ~bits == 0 for i in range(p.n) if bits >> i & 1)


def naive_filters(p):
    """All up-closed label sets, by checking every subset against the
    definition."""
    rel = relation(p)
    labs = list(p.labels)
    out = set()
    for r in range(len(labs) + 1):
        for sub in combinations(labs, r):
            s = set(sub)
            if all(b in s for a in s for (x, b) in rel if x == a):
                out.add(frozenset(s))
    return out


def naive_antichains(p):
    rel = relation(p)
    labs = list(p.labels)
    out = set()
    for r in range(len(labs) + 1):
        for sub in combinations(labs, r):
            if all((a, b) not in rel and (b, a) not in rel
                   for a, b in combinations(sub, 2)):
                out.add(frozenset(sub))
    return out


def meet(lat, a, b):
    """Meet of two lattice elements: the union of their filters."""
    return lat.index_of[lat.filters[a] | lat.filters[b]]


def join(lat, a, b):
    """Join of two lattice elements: the intersection of their filters."""
    return lat.index_of[lat.filters[a] & lat.filters[b]]


def filter_labelset(lat, a):
    """Element a of the lattice as the label set of its filter."""
    base = lat.base
    return frozenset(base.labels[i] for i in range(base.n)
                     if lat.filters[a] >> i & 1)


# -- lattice-level oracles, all driven by lat.le only --------------------------------


def naive_covers(lat):
    """(a, b) pairs with a < b and nothing strictly between."""
    size = lat.size
    lt = [[a != b and lat.le(a, b) for b in range(size)] for a in range(size)]
    out = []
    for a in range(size):
        for b in range(size):
            if lt[a][b] and not any(lt[a][c] and lt[c][b] for c in range(size)):
                out.append((a, b))
    return out


def naive_heights(lat):
    """Longest-path height of each element above the bottom."""
    covers = naive_covers(lat)
    below = {b: [a for a, bb in covers if bb == b] for b in range(lat.size)}
    h = {}

    def height(x):
        if x not in h:
            h[x] = 1 + max((height(a) for a in below[x]), default=-1)
        return h[x]

    return [height(x) for x in range(lat.size)]


def naive_maximal_chains(lat):
    covers = naive_covers(lat)
    up = {a: [b for x, b in covers if x == a] for a in range(lat.size)}
    bottoms = [a for a in range(lat.size)
               if not any(b == a for _, b in covers)]
    assert len(bottoms) == 1
    chains = []

    def walk(node, path):
        if not up[node]:
            chains.append(tuple(path))
            return
        for nxt in up[node]:
            walk(nxt, path + [nxt])

    walk(bottoms[0], [bottoms[0]])
    return chains


def naive_is_cutting(lat, bottom, top):
    """Literal reading: every maximal chain contains a point of [bottom, top]."""
    member = [lat.le(bottom, c) and lat.le(c, top) for c in range(lat.size)]
    return all(any(member[c] for c in chain)
               for chain in naive_maximal_chains(lat))


def naive_cut_elements(lat):
    return [a for a in range(1, lat.size - 1) if naive_is_cutting(lat, a, a)]


def naive_q(lat):
    """Boolean-interval counts from sizes alone: in a distributive lattice
    the interval [a, b] is a cube exactly when its element count is 2 to the
    rank difference."""
    h = naive_heights(lat)
    size = lat.size
    counts = {}
    for a in range(size):
        for b in range(size):
            if lat.le(a, b):
                d = h[b] - h[a]
                inside = sum(1 for c in range(size)
                             if lat.le(a, c) and lat.le(c, b))
                if inside == 1 << d:
                    counts[d] = counts.get(d, 0) + 1
    return [counts.get(k, 0) for k in range(max(counts) + 1)]


def q_census_by_up_covers(lat):
    """The census q_k = sum over F of C(|min F|, k), with |min F| taken as
    the length of F's up-cover tuple rather than read off the minima, and
    summed by comb() rather than by Pascal's rows."""
    degrees = [len(covs) for covs in lat.up_covers]
    return [sum(comb(u, k) for u in degrees)
            for k in range(max(degrees) + 1)]


def naive_d(lat):
    covers = naive_covers(lat)
    ups = [sum(1 for a, _ in covers if a == x) for x in range(lat.size)]
    downs = [sum(1 for _, b in covers if b == x) for x in range(lat.size)]
    width = max(max(ups), max(downs))
    minus = [0] * (width + 1)
    plus = [0] * (width + 1)
    for u in ups:
        minus[u] += 1
    for d in downs:
        plus[d] += 1
    return minus, plus


def naive_mi(lat):
    covers = naive_covers(lat)
    return sorted(x for x in range(lat.size)
                  if sum(1 for a, _ in covers if a == x) == 1)


def mi_poset_by_le(lat):
    """The meet-irreducibles' order by its definition: one ``le`` test for
    each ordered pair, as (labels, up masks)."""
    mi = naive_mi(lat)
    return ([lat.bitstring(a) for a in mi],
            [sum(1 << t for t, b in enumerate(mi) if b != a and lat.le(a, b))
             for a in mi])


def naive_cutting_count(p):
    """Number of cuttings of F(p) by the order criterion read off label sets:
    the sum over filters T of the down-sets D with every element of D
    strictly below every element of T (the bottom is then P - D)."""
    rel = relation(p)
    labs = list(p.labels)
    total = 0
    for top in naive_filters(p):
        lower = [a for a in labs if all((a, y) in rel for y in top)]
        for r in range(len(lower) + 1):
            for sub in combinations(lower, r):
                d = set(sub)
                if all(a in d for (a, b) in rel if b in d):
                    total += 1
    return total


def refine_by_signatures(adj_g, adj_h, cg, ch):
    """Colour refinement of two graphs in lockstep, by full rounds.

    A vertex's signature is its colour and the sorted colours of its
    neighbours; the new colours are ranks in the one sorted list of both
    graphs' signatures, so a colour means the same in ``g`` and ``h``.
    Returns (colours of g, colours of h, number of colours) once the number
    stops growing, or None as soon as the signature multisets differ.  It
    keeps going past a colouring in which every vertex has its own colour,
    so what it returns is equitable for both graphs together."""
    count = len(set(cg))
    while True:
        sg = [(c, tuple(sorted(map(cg.__getitem__, nbrs))))
              for c, nbrs in zip(cg, adj_g)]
        sh = [(c, tuple(sorted(map(ch.__getitem__, nbrs))))
              for c, nbrs in zip(ch, adj_h)]
        rank = {s: i for i, s in enumerate(sorted(set(sg).union(sh)))}
        cg = [rank[s] for s in sg]
        ch = [rank[s] for s in sh]
        if sorted(cg) != sorted(ch):
            return None
        if len(rank) == count:
            return cg, ch, len(rank)
        count = len(rank)


def placement_order_by_scanning(up, down, sig):
    """The order in which the isomorphism backtrack places the vertices of
    one graph, by its definition: each time, a scan of every unplaced
    vertex for the most placed neighbours, then the rarest signature among
    all the vertices, then the lowest index.  Placing a vertex adds one to
    the count of each unplaced neighbour, so the order takes O(n^2) steps."""
    rarity = Counter(sig)
    placed_near = [0] * len(sig)
    unplaced = list(range(len(sig)))
    order = []
    while unplaced:
        v = min(unplaced, key=lambda u: (-placed_near[u], rarity[sig[u]], u))
        unplaced.remove(v)
        order.append(v)
        for u in unplaced:
            if (up[v] | down[v]) >> u & 1:
                placed_near[u] += 1
    return order


def down_covers(lat):
    """For each element, its lower covers, ascending: one pass over the
    minima lists a under F - y for each y in min F(a)."""
    index_of, down = lat.index_of, [[] for _ in lat.filters]
    for a, (m, f) in enumerate(zip(lat.minima, lat.filters)):
        while m:
            low = m & -m
            m ^= low
            down[index_of[f ^ low]].append(a)
    return tuple([tuple(d) for d in down])


def per_top_cuttings(lat):
    """Every cutting of ``lat``, sorted by bottom and then by top, one top
    at a time: lower(T) rebuilt over every element of T, and a fresh walk
    down the covers from u = P - lower(T) for each top.  ``cuttings``
    shares both among tops and must give the same list."""
    base = lat.base
    full, down = base.full_mask, base.down
    size = lat.size
    covers = down_covers(lat)
    keys = []
    for t, tf in enumerate(lat.filters):
        lower = full
        for y in range(base.n):
            if tf >> y & 1:
                lower &= down[y]
        u = lat.index_of[full & ~lower]
        seen = {u}
        stack = [u]
        while stack:
            for a in covers[stack.pop()]:
                if a not in seen:
                    seen.add(a)
                    stack.append(a)
        keys += [a * size + t for a in seen]
    keys.sort()
    return [divmod(k, size) for k in keys]


def random_poset_masks(seed, n_max):
    """The up and down masks of ``catalog.random_poset(seed, n_max)``, by
    the same draw and a closure that ORs in the up mask of every element
    above, then the down masks transposed bit by bit."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    density = rng.random()
    up = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= 1 << j
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    return tuple(up), tuple(down)


def cube_by_slicing(strings):
    """The Hamming-distance-1 graph on equal-length binary strings: every
    "0" of every string is set to "1" by slicing, and the result looked up
    among the strings.  Its sorted vertices and its sorted edges, each
    edge's two strings sorted."""
    verts = sorted(strings)
    have = set(verts)
    edges = []
    for s in verts:
        for i, c in enumerate(s):
            if c == "0":
                t = s[:i] + "1" + s[i + 1:]
                if t in have:
                    edges.append((s, t) if s < t else (t, s))
    return tuple(verts), tuple(sorted(edges))


def cover_cube_by_sorting(lat):
    """The covering graph of ``lat`` on filter bitstrings ("" for the empty
    base), from ``covering_graph``: its sorted vertices and its sorted
    edges, each edge's two strings sorted."""
    names = [lat.bitstring(a) if lat.base.n else "" for a in range(lat.size)]
    return tuple(sorted(names)), tuple(sorted(
        tuple(sorted((names[a], names[b]))) for a, b in lat.covering_graph()))


def zigzag_translate_by_chars(graph):
    """A string graph, as the sorted (vertices, edges) above, with every
    string XORed, character by character, with "1010..."; sorted again."""
    vertices, edges = graph
    n = len(vertices[0])
    mask = ("10" * n)[:n]
    moved = {s: "".join("01"[a != b] for a, b in zip(s, mask))
             for s in vertices}
    return (tuple(sorted(moved.values())),
            tuple(sorted(tuple(sorted((moved[u], moved[v])))
                         for u, v in edges)))


def _components(mask, neighbours):
    """Connected components of the graph on ``mask`` in which j is adjacent
    to the members of ``neighbours(j) & mask``, as masks, lowest first."""
    parts = []
    while mask:
        part = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbours(low.bit_length() - 1) & mask & ~part
            part |= new
            frontier |= new
        parts.append(part)
        mask &= ~part
    return parts


def split_by_components(p, mask):
    """``Poset.split`` as a component search behind a neighbour callback,
    ``comparable_mask`` for the union and its complement for the sum: the
    reference its inline sweeps are held to, part for part and in order."""
    parts = _components(mask, p.comparable_mask)
    if len(parts) > 1:
        return "union", parts
    parts = _components(mask, lambda j: ~p.comparable_mask(j))
    if len(parts) > 1:
        parts.sort(key=lambda c: (
            p.down[(c & -c).bit_length() - 1] & mask & ~c).bit_count())
        return "sum", parts
    return "prime", [mask]


def q_recurrence_by_components(p):
    """``invariants._q_recurrence`` on :func:`split_by_components`, each
    prime block's pivot picked by ``max`` over ``comparable_mask``, with
    the package's polynomial helpers and work bound: the same Q, the same
    work accounting and the same None past the bound."""
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
            stack.pop()
            kind, parts = plans.pop(mask)
            qs = [done[m] for m in parts]
            if kind == "union":
                q = reduce(poly_mul, qs)
            elif kind == "sum":
                q = reduce(poly_add, qs)
                q[0] -= len(qs) - 1
            else:
                minus, star = qs
                q = poly_add(minus, poly_add(star, poly_shift(star, 1)))
            done[mask] = q
        elif mask.bit_count() == 1:
            stack.pop()
            done[mask] = [2, 1]
        else:
            work += mask.bit_count() * words
            if work > _RECURRENCE_WORK_MAX:
                return None
            kind, parts = split_by_components(p, mask)
            if kind == "prime":
                x = max(iter_bits(mask), key=lambda i: (
                    p.comparable_mask(i) & mask).bit_count())
                parts = [mask & ~(1 << x), mask & ~p.comparable_mask(x)]
            plans[mask] = kind, parts
            stack.extend(m for m in parts if m not in done)
    return done[p.full_mask]


def histograms_by_two_walks(p):
    """The [rank, minus, plus, total] histograms of F(P) by two antichain
    walks, the reference ``invariants._walked_histograms`` is held to: the
    walk over P yields each filter F with min F, the walk over the dual
    each down-set D = P - F with max D, and the two are joined on F into
    (height, up-degree, down-degree) triples.  So max(P - F) is read off a
    walk of its own, where the package counts the filters F + y that hold
    y in their minima."""
    full = p.full_mask
    up_degree = {f: a.bit_count() for f, a in p.filters_with_minima()}
    triples = Counter((d.bit_count(), up_degree[full ^ d], m.bit_count())
                      for d, m in p.dual().filters_with_minima())
    rank, minus, plus, total = hists = [[0] * (p.n + 1) for _ in range(4)]
    for (h, u, d), c in triples.items():
        rank[h] += c
        minus[u] += c
        plus[d] += c
        total[u + d] += c
    return hists
