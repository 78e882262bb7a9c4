"""Filter lattices: order, meet/join, intervals, meet-irreducibles."""

from collections import Counter
from functools import cached_property, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets, shuffled_relabeling
from latcut import (DistLattice, InvalidInterval, all_labeled_posets,
                    birkhoff_roundtrip, chain, cover_cube, cuttings,
                    expand_poset, fence, filter_lattice, poset_from_covers,
                    poset_isomorphic, random_poset, run_cutting_suite,
                    verify_birkhoff, verify_fibonacci_decomposition,
                    verify_lucas_decomposition)


def z3_lattice():
    return filter_lattice(
        poset_from_covers(["a", "b", "c"], [("b", "a"), ("b", "c")]))


def test_canonical_element_order():
    lat = z3_lattice()
    assert [lat.bitstring(a) for a in range(lat.size)] == \
        ["111", "101", "100", "001", "000"]
    # No height is stored: an element's height is n - |F|.
    assert not hasattr(lat, "heights")
    assert [3 - f.bit_count() for f in lat.filters] == [0, 1, 2, 2, 3]
    assert lat.bottom == 0 and lat.top == lat.size - 1


def _check_order_extends_le(lat):
    for a in range(lat.size):
        for b in range(lat.size):
            if lat.le(a, b):
                assert a <= b, (lat.bitstring(a), lat.bitstring(b))


@settings(max_examples=60, deadline=None)
@given(posets(max_n=6), st.integers(min_value=0, max_value=2 ** 32))
def test_index_order_extends_the_lattice_order(p, seed):
    """le(a, b) implies a <= b: the interval scan compares each row only
    with the columns from it on, and relies on this.  Also
    on the lattices convex expansion builds from (F, min F) pairs."""
    for q in (p, p.dual(), shuffled_relabeling(p, seed)[0]):
        lat = filter_lattice(q)
        _check_order_extends_le(lat)
        for k in cuttings(lat)[:4]:
            _check_order_extends_le(expand_poset(lat, k).lattice)


def test_order_is_reverse_inclusion():
    lat = z3_lattice()
    full = lat.element_by_string("111")
    empty = lat.element_by_string("000")
    for a in range(lat.size):
        assert lat.le(full, a) and lat.le(a, empty)
    a, c = lat.element_by_string("100"), lat.element_by_string("001")
    assert not lat.le(a, c) and not lat.le(c, a)


def test_meet_is_union_join_is_intersection():
    lat = z3_lattice()
    a, c = lat.element_by_string("100"), lat.element_by_string("001")
    assert lat.bitstring(oracles.meet(lat, a, c)) == "101"
    assert lat.bitstring(oracles.join(lat, a, c)) == "000"
    top = lat.element_by_string("000")
    assert oracles.meet(lat, a, top) == a and oracles.join(lat, a, top) == top


def test_element_lookup_errors():
    lat = z3_lattice()
    with pytest.raises(InvalidInterval):
        lat.element_by_string("010")   # not a filter
    with pytest.raises(InvalidInterval):
        lat.interval(lat.element_by_string("100"), lat.element_by_string("001"))


# -- the containment primitive --------------------------------------------------


def _check_between_against_le(lat):
    """``between`` on every ordered pair, comparable or not, against a scan
    with ``le``; and the routes built on it."""
    for b in range(lat.size):
        for t in range(lat.size):
            want = [x for x in range(lat.size) if lat.le(b, x) and lat.le(x, t)]
            assert lat.between(b, t) == want
            if lat.le(b, t):
                assert lat.interval_elements((b, t)) == want
        assert lat.above_masks()[b] == sum(
            1 << x for x in range(lat.size) if lat.le(b, x))


def test_between_matches_le_on_every_labeled_poset_up_to_4():
    for n in range(5):
        for p in all_labeled_posets(n):
            _check_between_against_le(filter_lattice(p))


@settings(max_examples=60, deadline=None)
@given(posets(max_n=6))
def test_between_matches_le_on_random_posets(p):
    _check_between_against_le(filter_lattice(p))


def test_covers_against_naive():
    for covers in ([("b", "a"), ("b", "c")],
                   [("a", "b"), ("b", "c")],
                   [],
                   [("a", "b"), ("a", "c")]):
        lat = filter_lattice(poset_from_covers(["a", "b", "c"], covers))
        got = [(a, b) for a in range(lat.size) for b in lat.up_covers[a]]
        assert sorted(got) == sorted(oracles.naive_covers(lat))
        assert ([lat.base.n - f.bit_count() for f in lat.filters]
                == oracles.naive_heights(lat))


@settings(max_examples=60, deadline=None)
@given(posets(max_n=6))
def test_cover_tuples_are_sorted_and_invert_each_other(p):
    # The cache and the oracle's down covers list indices ascending,
    # whatever the base's index order, and the down covers are the up
    # covers read backwards.
    lat = filter_lattice(p)
    naive = oracles.naive_covers(lat)
    assert lat.up_covers == tuple(
        tuple(sorted(b for x, b in naive if x == a)) for a in range(lat.size))
    assert oracles.down_covers(lat) == tuple(
        tuple(sorted(x for x, b in naive if b == a)) for a in range(lat.size))


def test_covers_drop_exactly_one_element():
    lat = z3_lattice()
    for a in range(lat.size):
        for b in lat.up_covers[a]:
            gone = lat.filters[a] & ~lat.filters[b]
            assert gone.bit_count() == 1


def test_meet_irreducibles_frozen():
    lat = z3_lattice()
    mi = lat.meet_irreducibles()
    assert [lat.bitstring(a) for a in mi] == ["111", "100", "001"]
    assert poset_isomorphic(lat.mi_poset(), lat.base)
    assert oracles.naive_mi(lat) == sorted(mi)


def test_interval_ops():
    lat = z3_lattice()
    k = lat.interval_by_strings("101", "000")
    assert sorted(lat.bitstring(a) for a in lat.interval_elements(k)) == \
        ["000", "001", "100", "101"]
    klat = lat.interval_lattice(k)
    s = klat.base
    assert set(s.labels) == {"a", "c"} and oracles.relation(s) == set()
    assert klat.size == 4


def test_covering_graph_size():
    lat = z3_lattice()
    assert len(lat.covering_graph()) == 5


def test_trivial_lattice():
    lat = filter_lattice(poset_from_covers([], []))
    assert lat.size == 1
    assert [lat.base.n - f.bit_count() for f in lat.filters] == [0]
    assert oracles.naive_maximal_chains(lat) == [(0,)]
    assert list(lat.meet_irreducibles()) == []


# -- Birkhoff's representation ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(posets(max_n=6), st.integers(min_value=0, max_value=2 ** 32))
def test_mi_poset_reads_the_order_of_the_definition(p, seed):
    # mi_poset reads the order off the filters' bits; the oracle makes one
    # le test per pair.  down must be the transpose of up.
    for q in (p, p.dual(), shuffled_relabeling(p, seed)[0]):
        lat = filter_lattice(q)
        mi = lat.mi_poset()
        labels, up = oracles.mi_poset_by_le(lat)
        assert (list(mi.labels), list(mi.up)) == (labels, up)
        assert list(mi.down) == [
            sum(1 << a for a in range(mi.n) if up[a] >> t & 1)
            for t in range(mi.n)]


def birkhoff_by_search(lat):
    """The isomorphism form of the round trip, the certificate's oracle:
    build the Mi poset and search for any isomorphism onto the base."""
    return poset_isomorphic(lat.mi_poset(), lat.base)


def test_birkhoff_certificate_agrees_with_the_search_up_to_5_elements():
    seen = 0
    for n in range(6):
        for p in all_labeled_posets(n):
            lat = filter_lattice(p)
            assert (birkhoff_roundtrip(lat), birkhoff_by_search(lat)) == \
                (True, True)
            seen += 1
    assert seen == 4474


def test_birkhoff_certificate_asks_for_the_map_x_to_up_x():
    # chain(3)'s lattice shape over the reversed chain's filters: Mi is a
    # 3-chain, so a search finds an isomorphism, but no Mi element is the
    # principal filter up(x) of the base.
    p = chain(3)
    lat = DistLattice(p, p.dual().filters_with_minima())
    assert birkhoff_by_search(lat)
    assert not birkhoff_roundtrip(lat)


def test_birkhoff_certificate_refuses_a_duplicated_meet_irreducible():
    p = chain(3)
    pairs = list(p.filters_with_minima())
    bottom = [(f, a) for f, a in pairs if f == p.full_mask]
    assert birkhoff_roundtrip(DistLattice(p, pairs))
    assert not birkhoff_roundtrip(DistLattice(p, pairs + bottom))


# -- properties ---------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(posets(max_n=5), st.integers(min_value=0, max_value=2 ** 32))
def test_birkhoff_roundtrip_property(p, seed):
    for q in (p, p.dual(), shuffled_relabeling(p, seed)[0]):
        lat = filter_lattice(q)
        assert (birkhoff_roundtrip(lat), birkhoff_by_search(lat)) == \
            (True, True)


@settings(max_examples=40, deadline=None)
@given(posets(max_n=5))
def test_lattice_axioms_hold(p):
    lat = filter_lattice(p)
    meet, join = partial(oracles.meet, lat), partial(oracles.join, lat)
    elems = range(lat.size)
    for a in elems:
        assert meet(a, a) == a and join(a, a) == a
        for b in elems:
            m, j = meet(a, b), join(a, b)
            assert lat.le(m, a) and lat.le(a, j)
            assert meet(a, j) == a and join(a, m) == a
            for c in elems:
                # distributivity, the defining property of these lattices
                assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


@settings(max_examples=40, deadline=None)
@given(posets(max_n=6))
def test_heights_grade_the_lattice(p):
    lat = filter_lattice(p)
    heights = [p.n - f.bit_count() for f in lat.filters]
    assert heights[lat.bottom] == 0
    assert heights[lat.top] == p.n
    for a in range(lat.size):
        for b in lat.up_covers[a]:
            assert heights[b] == heights[a] + 1


# -- work ledger: the up covers are built on first read ----------------------------


def _count_builds(monkeypatch):
    """Count DistLattice builds and the builds of the up-cover tuple."""
    counts = Counter()
    real_init = DistLattice.__init__

    def init(self, *args, **kwargs):
        counts["lattices"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DistLattice, "__init__", init)

    def build(self, real=DistLattice.__dict__["up_covers"].func):
        counts["up_covers"] += 1
        return real(self)

    prop = cached_property(build)
    prop.__set_name__(DistLattice, "up_covers")
    monkeypatch.setattr(DistLattice, "up_covers", prop)
    return counts


@pytest.mark.parametrize("run, want", [
    # The q census, the q scan and Mi read the minima and the filters.
    # F(fence(9)) is the expansion L' alone, with L and K: the report reads
    # its q off L' once the round trip holds.  The crown adds F(dual star).
    (lambda: verify_fibonacci_decomposition(7, 4), {"lattices": 3}),
    (lambda: verify_lucas_decomposition(6), {"lattices": 4}),
    # The round trip lists Mi off the minima; the scan reads the filters.
    # 243 labelled and 1000 random pooled lattices.  The labelled pool is
    # one growth from the empty poset to 4 points, which extends at the
    # cuttings of F of every labelled poset on 0..3 points: 1 + 1 + 3 + 19
    # = 24 more lattices.  1243 + 24 = 1267.
    (lambda: verify_birkhoff(), {"lattices": 1267}),
    # The cube pairs each F with F - y, y in min F, off the minima.
    (lambda: cover_cube(filter_lattice(fence(8))), {"lattices": 1}),
    # 27 pooled lattices and 435 cuttings.  Each cutting builds L' (its
    # expansion), K (read by the round trip and the q and d checks) and L''
    # (the d check's expansion at the copy).  The exhaustive layer is one
    # growth from the empty poset to 4 points, which extends at the
    # cuttings of F of the 1 + 1 + 2 + 5 = 9 class representatives on 0..3
    # points.  27 + 3 * 435 + 9 = 1341.  Only the chain criterion of the
    # vote reads the up covers, and only where K holds neither the bottom
    # nor the top.
    (lambda: run_cutting_suite(trials=2, max_size=7, seed=5,
                               exhaustive_max=4),
     {"lattices": 1341, "up_covers": 24}),
    # The binomial rows run on the 27 pooled lattices and the 435 L', and
    # the growth adds its 9: 27 + 435 + 9 = 471 lattices.
    (lambda: run_cutting_suite(trials=2, max_size=7, seed=5,
                               exhaustive_max=4, topics=("binomial",)),
     {"lattices": 471}),
], ids=["fibonacci-7-4", "lucas-6", "birkhoff", "cover-cube-fence-8",
        "cutting-pass", "binomial"])
def test_cover_tuples_are_built_only_by_their_readers(run, want, monkeypatch):
    counts = _count_builds(monkeypatch)
    run()
    assert counts == Counter(want)


# -- memory ledger: a build holds a constant number of bytes per element -------


@pytest.mark.parametrize("make", [lambda: random_poset(1000003, 3000),
                                  lambda: fence(22)],
                         ids=["random-2114-elements", "fence-22"])
def test_a_build_holds_a_constant_number_of_bytes_per_element(make):
    # The pairs are listed first, so the walk is not traced.  Per lattice
    # element, with N elements in all, the build holds at most:
    # - the sorted list of the pairs, 8 B, and while it is sorted by size,
    #   8 B of sort keys and a 32 B int for each size past 256, freed
    #   before anything below is built;
    # - ``filters`` and ``minima``, 8 B each; no height is stored;
    # - ``index_of``: a dict resized at u <= N keys has fewer than 6u slots
    #   of at most 4 B and 4u entries of 24 B, so less than 120 B a key.
    # 8 + 16 + 120 = 144 B, more than the 8 + 8 + 32 = 48 B of the sort,
    # whatever n is: the F and min F ints are the caller's, never copied or
    # packed into 3n-bit keys.  64 KiB covers the fixed objects.  The
    # random poset has 2,114 elements (3,889 filters), so its sizes pass
    # 256.
    import tracemalloc

    p = make()
    pairs = list(p.filters_with_minima())
    tracemalloc.start()
    try:
        lat = DistLattice(p, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lat.size == len(pairs)
    assert peak <= 144 * lat.size + (64 << 10), (peak, peak / lat.size)
