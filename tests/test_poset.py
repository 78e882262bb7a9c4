"""Poset core: construction, enumeration, derived posets, isomorphism."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets, shuffled_relabeling
from latcut import (CycleDetected, DuplicateLabel, Poset, UnknownLabel,
                    all_labeled_posets, antichain, chain, crown, cuttings,
                    disjoint_union, expand_poset, fence, filter_lattice,
                    ordinal_sum, poset_from_covers, poset_isomorphic,
                    poset_isomorphism, singleton)


def z3():
    return poset_from_covers(["a", "b", "c"], [("b", "a"), ("b", "c")])


def chain3():
    return poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])


# -- construction ------------------------------------------------------------------


def test_from_covers_z3():
    p = z3()
    assert p.labels == ("a", "b", "c")
    assert oracles.relation(p) == {("b", "a"), ("b", "c")}


def test_transitive_closure_is_computed():
    p = poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert ("a", "c") in oracles.relation(p)
    # and the cover relation drops the implied pair again
    assert sorted(p.cover_pairs()) == [("a", "b"), ("b", "c")]


def test_raw_constructor_is_guarded():
    with pytest.raises(TypeError):
        Poset(["a"], [0])


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        poset_from_covers(["a", "a"], [])


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        poset_from_covers(["a"], [("a", "b")])


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        poset_from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        poset_from_covers(["a", "b", "c"],
                          [("a", "b"), ("b", "c"), ("c", "a")])


def test_empty_poset():
    p = poset_from_covers([], [])
    assert p.n == 0 and p.filters() == [0]
    assert p.bitstring(0) == "e"


def test_bitstring_matches_its_definition():
    """Character i is bit i, for every size up to 70; bits at or above n,
    as a mask of a larger poset may carry, are not rendered."""
    rng = random.Random(70)
    for n in range(71):
        p = antichain(n)
        for bits in (0, p.full_mask, rng.getrandbits(n),
                     rng.getrandbits(n + 9), p.full_mask + 1 << rng.randrange(4)):
            want = "".join("1" if bits >> i & 1 else "0" for i in range(n))
            assert p.bitstring(bits) == (want or "e"), (n, bits)
            assert p.bits_from_string(p.bitstring(bits)) == bits & p.full_mask


# -- enumeration -------------------------------------------------------------------


def test_filters_z3_frozen():
    p = z3()
    assert [p.bitstring(f) for f in p.filters()] == \
        ["000", "100", "001", "101", "111"]


def test_filters_match_naive():
    for p in (z3(), chain3(), poset_from_covers(list("abcd"), []),
              poset_from_covers(list("abcd"),
                                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])):
        got = {frozenset(p.labels[i] for i in range(p.n) if f >> i & 1)
               for f in p.filters()}
        assert got == oracles.naive_filters(p)


def test_antichains_match_naive():
    for p in (z3(), chain3()):
        got = {frozenset(p.labels[i] for i in range(p.n) if a >> i & 1)
               for _, a in p.filters_with_minima()}
        assert got == oracles.naive_antichains(p)


# -- covers -------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(posets(max_n=12), st.integers(min_value=0, max_value=2 ** 32))
def test_cover_masks_match_the_definition(p, seed):
    # The strategy numbers elements bottom-up; the dual numbers them
    # top-down and the relabeling in no order at all.
    shuffled, _ = shuffled_relabeling(p, seed)
    for q in (p, p.dual(), shuffled):
        assert q.cover_masks() == oracles.naive_cover_masks(q)


def test_cover_masks_of_a_long_chain():
    assert chain(3000).cover_masks() == tuple((i, i + 1) for i in range(2999))


# -- derived posets ----------------------------------------------------------------


def test_minus_and_star():
    p = z3()
    assert oracles.relation(p.minus("a")) == {("b", "c")}
    assert p.minus("a").labels == ("b", "c")
    # b is comparable to everything, so the star empties out
    assert p.star("b").n == 0
    assert p.star("a").labels == ("c",)


def _induced_parts(q):
    return q.labels, q.up, q.down


@settings(max_examples=150, deadline=None)
@given(posets(max_n=12), st.integers(min_value=0), st.integers(min_value=0))
def test_induced_subposets_match_the_bitwise_remap(p, keep, pick):
    keep &= p.full_mask
    assert _induced_parts(p.restrict(keep)) == oracles.induced_masks(p, keep)
    if p.n:
        i = pick % p.n
        x = p.labels[i]
        assert _induced_parts(p.minus(x)) == oracles.induced_masks(
            p, p.full_mask & ~(1 << i))
        assert _induced_parts(p.star(x)) == oracles.induced_masks(
            p, p.full_mask & ~p.comparable_mask(i))


def test_minus_in_the_middle_of_a_long_chain():
    q = chain(1100).minus("550")
    assert q.labels == tuple(str(i) for i in range(1, 1101) if i != 550)
    assert q.up == tuple(q.full_mask & ~((2 << t) - 1) for t in range(1099))
    assert q.down == tuple((1 << t) - 1 for t in range(1099))


def test_dual_reverses_and_involutes():
    p = chain3()
    assert oracles.relation(p.dual()) == {("b", "a"), ("c", "b"), ("c", "a")}
    assert p.dual().dual() == p


def test_restrict_keeps_label_order():
    p = chain3()
    q = p.restrict(0b101)
    assert q.labels == ("a", "c")
    assert oracles.relation(q) == {("a", "c")}


def test_disjoint_union_and_ordinal_sum():
    a, b = chain3(), singleton("x")
    u = disjoint_union(a, b)
    assert u.n == 4 and len(oracles.relation(u)) == 3
    s = ordinal_sum(a, b)
    # every element of the left part now sits below x
    assert len(oracles.relation(s)) == 3 + 3


def test_label_collision_gets_prefixes():
    u = disjoint_union(singleton("x"), singleton("x"))
    assert set(u.labels) == {"L.x", "R.x"}


# -- the split by the sum laws -------------------------------------------------------


def _connected(labels, adjacent):
    """Naive graph search over a label set."""
    labels = set(labels)
    if not labels:
        return True
    seen, todo = set(), [next(iter(labels))]
    while todo:
        a = todo.pop()
        if a not in seen:
            seen.add(a)
            todo += [b for b in labels if b != a and adjacent(a, b)]
    return seen == labels


@settings(max_examples=120, deadline=None)
@given(posets(max_n=7))
def test_split_follows_the_sum_laws(p):
    rel = oracles.relation(p)

    def comparable(a, b):
        return (a, b) in rel or (b, a) in rel

    def incomparable(a, b):
        return not comparable(a, b)

    kind, parts = p.split(p.full_mask)
    labels = [set(p.labels_of(m)) for m in parts]
    assert sorted(x for ls in labels for x in ls) == sorted(p.labels)
    if kind == "prime":
        assert parts == [p.full_mask]
        assert _connected(p.labels, comparable)
        assert _connected(p.labels, incomparable)
        return
    assert len(parts) >= 2
    for i, low in enumerate(labels):
        for high in labels[i + 1:]:
            for a in low:
                for b in high:
                    if kind == "union":
                        assert incomparable(a, b)
                    else:
                        assert kind == "sum" and (a, b) in rel
    inner = comparable if kind == "union" else incomparable
    assert all(_connected(ls, inner) for ls in labels)


def test_split_of_nested_sums():
    a, b, c = chain3(), z3(), singleton("x")
    p = ordinal_sum(disjoint_union(a, b), c)
    assert p.split(p.full_mask) == ("sum", [0b111111, 0b1000000])
    assert p.split(0b111111) == ("union", [0b000111, 0b111000])
    assert p.split(0b000111) == ("sum", [0b001, 0b010, 0b100])
    assert p.split(0b111000) == ("sum", [0b010000, 0b101000])
    assert p.split(0b101000) == ("union", [0b001000, 0b100000])
    assert p.split(0) == ("prime", [0])


def _assert_split_matches_reference(p):
    for mask in range(p.full_mask + 1):
        assert p.split(mask) == oracles.split_by_components(p, mask), (
            p.up, mask)


def test_split_matches_the_component_reference_on_every_mask():
    """The inline sweeps give the reference's kind and parts, in its
    order, on every subposet of every labelled poset up to 5 elements."""
    for n in range(6):
        for up in oracles.labeled_posets(n):
            _assert_split_matches_reference(
                Poset([str(i) for i in range(n)], up, _trusted=True))


@settings(max_examples=60, deadline=None)
@given(posets(max_n=8), st.integers(0, 2**16))
def test_split_matches_the_component_reference_as_given_dual_and_shuffled(
        p, seed):
    for q in (p, p.dual(), shuffled_relabeling(p, seed)[0]):
        _assert_split_matches_reference(q)


# -- isomorphism -------------------------------------------------------------------


def test_isomorphic_to_relabeling():
    p = z3()
    q = poset_from_covers(["u", "v", "w"], [("w", "v"), ("w", "u")])
    f = poset_isomorphism(p, q)
    assert f is not None and f["b"] == "w"
    assert poset_isomorphic(p, q)


def test_chain_vs_fence_not_isomorphic():
    assert not poset_isomorphic(z3(), chain3())


def test_isomorphism_respects_relation():
    p = poset_from_covers(list("abcde"),
                          [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")])
    q, _ = shuffled_relabeling(p, seed=7)
    f = poset_isomorphism(p, q)
    assert sorted(f.values()) == sorted(q.labels)
    rel_q = oracles.relation(q)
    assert all((f[x], f[y]) in rel_q for x, y in oracles.relation(p))


def test_canonical_key_is_invariant():
    p = poset_from_covers(list("abcd"), [("a", "b"), ("c", "b"), ("c", "d")])
    for seed in range(5):
        q, _ = shuffled_relabeling(p, seed)
        assert oracles.canonical_key(q) == oracles.canonical_key(p)
    assert (oracles.canonical_key(p)
            != oracles.canonical_key(poset_from_covers(list("abcd"), [])))


def _is_order_isomorphism(p, q, f):
    """f is a bijection from p's labels onto q's that preserves < in both
    directions."""
    return (sorted(f) == sorted(p.labels)
            and sorted(f.values()) == sorted(q.labels)
            and ({(f[a], f[b]) for a, b in oracles.relation(p)}
                 == oracles.relation(q)))


def test_poset_isomorphism_agrees_with_the_oracle_on_labelled_posets():
    """Every pair of labelled posets on up to 4 elements."""
    for n in range(5):
        batch = all_labeled_posets(n)
        keys = [oracles.canonical_key(p) for p in batch]
        for p, kp in zip(batch, keys):
            for q, kq in zip(batch, keys):
                f = poset_isomorphism(p, q)
                assert (f is not None) == (kp == kq)
                assert f is None or _is_order_isomorphism(p, q, f)


def test_two_crowns_are_not_one_crown():
    """Refinement cannot split these: each minimal element has the profile
    (0, 2), each maximal one (2, 0), and every element two cover
    neighbours, so only individualizing tells the two 12-cycles of covers
    from the one 24-cycle."""
    assert not poset_isomorphic(disjoint_union(crown(12), crown(12)),
                                crown(24))
    assert poset_isomorphic(disjoint_union(crown(12), crown(12)),
                            disjoint_union(crown(12), crown(12)).dual())


def test_a_crown_against_two_crowns_is_answered_at_once(placement_passes):
    """crown(4k) against two crown(2k), both ways, for 2 <= k <= 8: one
    degree sequence of the cover graphs and one profile per element, so
    only placing tells the 4k-cycle of covers from the two 2k-cycles.
    Placing in index order took 25-30 s at k = 5; next to the placed
    elements, all fourteen searches take a few milliseconds, in 2,982
    passes of the backtrack's loop.  A count of the used elements below
    and above each candidate, tested per candidate, cut that to 2,842
    passes but not the wall time, and was dropped."""
    t0 = time.perf_counter()
    for k in range(2, 9):
        one, two = crown(4 * k), disjoint_union(crown(2 * k), crown(2 * k))
        assert poset_isomorphism(one, two) is None
        assert poset_isomorphism(two, one) is None
    assert time.perf_counter() - t0 < 1.0
    assert placement_passes[0] == 2982


def test_isomorphism_of_a_long_chain():
    """A chain longer than Python's recursion limit."""
    p = chain(1100)
    q, _ = shuffled_relabeling(p, seed=11)
    f = poset_isomorphism(p, q)
    assert f is not None and sorted(f.values()) == sorted(q.labels)
    assert all(q.lt(q.idx(f[a]), q.idx(f[b])) for a, b in p.cover_pairs())


# -- properties ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(posets())
def test_filters_are_filters_and_counted_by_antichains(p):
    filters = p.filters()
    assert len(set(filters)) == len(filters)
    assert all(oracles.is_filter(p, f) for f in filters)
    assert len(filters) == len({a for _, a in p.filters_with_minima()})


@settings(max_examples=60, deadline=None)
@given(posets())
def test_up_down_transpose(p):
    for i in range(p.n):
        for j in range(p.n):
            assert bool(p.up[i] >> j & 1) == bool(p.down[j] >> i & 1)


def _down_is_transpose(p):
    return all(bool(p.up[i] >> j & 1) == bool(p.down[j] >> i & 1)
               for i in range(p.n) for j in range(p.n))


@settings(max_examples=60, deadline=None)
@given(posets(max_n=7), posets(max_n=3), st.randoms(use_true_random=False))
def test_built_and_derived_posets_keep_down_the_transpose_of_up(p, q, rnd):
    # The whole relation, in a random order, so that the closure has both
    # redundant and missing pairs to deal with.
    pairs = [(p.labels[i], p.labels[j]) for i in range(p.n)
             for j in range(p.n) if p.up[i] >> j & 1]
    rnd.shuffle(pairs)
    built = poset_from_covers(p.labels, pairs[:rnd.randint(0, len(pairs))])
    full = poset_from_covers(p.labels, pairs)
    assert full == p
    lat = filter_lattice(full)
    derived = [built, full, disjoint_union(full, q), ordinal_sum(full, q),
               ordinal_sum(q, full),
               expand_poset(lat, rnd.choice(cuttings(lat))).poset]
    if p.n:
        x = p.labels[rnd.randrange(p.n)]
        derived += [full.minus(x), full.star(x),
                    full.restrict(rnd.getrandbits(p.n))]
    for d in derived:
        assert _down_is_transpose(d)


@settings(max_examples=40, deadline=None)
@given(posets())
def test_dual_involution_and_filter_count(p):
    d = p.dual()
    assert d.dual() == p
    # filters of the dual are complements of filters: equal counts
    assert len(p.filters()) == len(d.filters())


@settings(max_examples=150, deadline=None)
@given(posets(max_n=12), st.integers(min_value=0, max_value=2 ** 32))
def test_relabeling_is_isomorphic(p, seed):
    q, _ = shuffled_relabeling(p, seed)
    f = poset_isomorphism(p, q)
    assert f is not None and _is_order_isomorphism(p, q, f)
