"""Rank polynomials, cube counts, degree vectors, and their recurrences."""

import json
from dataclasses import replace
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets
from latcut import (CapacityExceeded, IntervalRef, InvalidInterval,
                    antichain, antichain_census, binomial_relations,
                    binomial_transform, boundary, chain, check_d_recurrences,
                    check_q_recurrence, check_rank_recurrence, crown,
                    d_vectors, disjoint_union, euler_checks, expand_poset,
                    fence, filter_lattice, inverse_binomial_transform,
                    is_cutting, poset_from_covers, posets_up_to_iso, q_vector,
                    rank_gen, rank_gen_of, stats_dict)
from latcut.invariants import (_SCAN_BLOCK_PAIRS, _q_census, _q_scan,
                               _q_scan_blocks, _q_scan_ints, poly_add,
                               poly_deriv, poly_eq, poly_eval, poly_mul,
                               poly_shift, poly_trim)
from latcut.verify import _pool_iso, _pool_random


def z3():
    return poset_from_covers(["a", "b", "c"], [("b", "a"), ("b", "c")])


def z3_lattice():
    return filter_lattice(z3())


# -- polynomial helpers ---------------------------------------------------------------


def test_poly_arithmetic():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0]) == []
    assert poly_eq([1, 0], [1])
    assert poly_add([1, 2], [0, 1, 3]) == [1, 3, 3]
    assert poly_add([1], [-1]) == []
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_mul([], [4, 5]) == []
    assert poly_shift([2, 3], 2) == [0, 0, 2, 3]
    assert poly_shift([], 5) == []
    assert poly_eval([1, 2, 3], 2) == 1 + 4 + 12
    assert poly_eval([], 7) == 0
    assert poly_deriv([5, 4, 3]) == [4, 6]
    assert poly_deriv([5]) == []


# -- frozen values on the three-element zigzag ----------------------------------------


def test_rank_poly_counts_heights():
    lat = z3_lattice()
    assert poly_trim(rank_gen(lat)) == [1, 1, 2, 1]


def test_rank_gen_of_subsets_and_offsets():
    lat = z3_lattice()
    all_elems = range(lat.size)
    assert poly_eq(rank_gen_of(lat, all_elems), rank_gen(lat))
    top_only = [lat.top]
    assert rank_gen_of(lat, top_only) == [0, 0, 0, 1]
    assert rank_gen_of(lat, top_only, offset=3) == [1]
    assert rank_gen_of(lat, []) == []


def test_cube_counts_by_both_routes():
    lat = z3_lattice()
    # 5 points, 5 cover edges, one square, no 3-cube
    assert _q_census(lat) == [5, 5, 1]
    assert _q_scan(lat) == [5, 5, 1]
    assert q_vector(lat) == [5, 5, 1]


def test_degree_vectors_frozen():
    d = d_vectors(z3_lattice())
    assert d.minus == [1, 3, 1]
    assert d.plus == [1, 3, 1]
    assert d.total == [0, 1, 3, 1]
    assert d.width == 2


def test_antichain_census_of_base():
    # antichains of the zigzag: empty, three singletons, {a, c}
    assert antichain_census(z3()) == [1, 3, 1]


def test_euler_relations_frozen():
    lat = z3_lattice()
    assert euler_checks(lat) is None
    q = q_vector(lat)
    assert poly_eval(q, -1) == 1
    assert len(lat.meet_irreducibles()) == 3
    assert poly_eval(poly_deriv(q), -1) == 3


def test_binomial_routes_frozen():
    lat = z3_lattice()
    assert binomial_relations(lat) is None
    assert q_vector(lat) == [5, 5, 1] and d_vectors(lat).minus == [1, 3, 1]


def test_lattice_checks_report_a_planted_failure():
    # A wrong q cached on the lattice breaks both identities; each check
    # names the values it saw.
    lat = z3_lattice()
    q_vector(lat)
    lat._q = (5, 6, 1)
    assert binomial_relations(lat) == "q=[5, 6, 1] d_minus=[1, 3, 1]"
    assert euler_checks(lat) == "Q(-1)=0 Q'(-1)=4 |Mi|=3"


def test_binomial_transform_pair():
    d = [1, 3, 1]
    q = binomial_transform(d)
    assert q == [5, 5, 1]
    assert inverse_binomial_transform(q) == d
    assert binomial_transform([]) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=30))
def test_binomial_transform_is_the_comb_sum(d):
    want = poly_trim([sum(comb(j, k) * d[j] for j in range(k, len(d)))
                      for k in range(len(d))])
    assert binomial_transform(d) == want
    assert inverse_binomial_transform(binomial_transform(d)) == poly_trim(d)


def test_binomial_transform_at_width_600():
    # q_k = sum over j of C(j, k) = C(601, k + 1) for d = [1] * 601
    q = binomial_transform([1] * 601)
    assert q == [comb(601, k + 1) for k in range(601)]


def test_cached_q_and_d_cannot_be_mutated_by_callers():
    lat = filter_lattice(poset_from_covers(["a", "b", "c"], []))
    q = q_vector(lat)
    q.append(99)
    q[0] = -1
    assert q_vector(lat) == [8, 12, 6, 1] == stats_dict(lat)["q"]
    d = d_vectors(lat)
    d.minus[0] = d.plus[0] = d.total[0] = -1
    assert d_vectors(lat) == d_vectors(filter_lattice(lat.base))
    assert d_vectors(lat).minus == [1, 3, 3, 1]


def test_trivial_lattice_invariants():
    lat = filter_lattice(poset_from_covers([], []))
    assert rank_gen(lat) == [1]
    assert q_vector(lat) == _q_scan(lat) == [1]
    d = d_vectors(lat)
    assert d.minus == [1] and d.plus == [1] and d.total == [1]
    assert lat.meet_irreducibles() == []
    assert euler_checks(lat) is None
    assert binomial_relations(lat) is None


# -- recurrences under expansion ------------------------------------------------------


def expansion_at(lat, bottom, top):
    """The expansion of ``lat`` at [bottom, top], given as bitstrings: the
    one argument of the checks."""
    return expand_poset(lat, lat.interval_by_strings(bottom, top))


def test_rank_recurrence_worked_case():
    exp = expansion_at(z3_lattice(), "101", "000")
    assert check_rank_recurrence(exp) is None
    assert rank_gen(exp.lattice) == [1, 1, 3, 3, 1]


def test_rank_recurrence_endpoint_cases():
    # The interval reaches the top, the bottom, or neither: each of the
    # three shapes of the recurrence holds.
    lat = z3_lattice()
    for bottom, top in (("101", "000"), ("111", "101"), ("101", "101")):
        assert check_rank_recurrence(expansion_at(lat, bottom, top)) is None
    # A wrong expansion shows which forms were computed: the endpoint form
    # (case=) for an interval at the bottom, none for an inner one.  The
    # top-reaching shape is pinned in the built-expansion test below.
    wrong = expansion_at(lat, "111", "000")
    at_bottom = expansion_at(lat, "111", "101")
    assert check_rank_recurrence(
        replace(at_bottom, lattice=wrong.lattice)) == (
        "lhs=[1, 2, 3, 3, 1] host=[1, 2, 1, 2, 1] self=[1, 2, 1, 2, 1] "
        "case=[1, 2, 1, 2, 1]")
    inner = expansion_at(lat, "101", "101")
    assert check_rank_recurrence(replace(inner, lattice=wrong.lattice)) == (
        "lhs=[1, 2, 3, 3, 1] host=[1, 1, 1, 2, 1] self=[1, 1, 1, 2, 1] "
        "case=None")


def test_q_recurrence_worked_case():
    lat = z3_lattice()
    exp = expansion_at(lat, "101", "000")
    assert check_q_recurrence(exp) is None
    assert q_vector(lat) == [5, 5, 1]
    assert q_vector(exp.interval_lattice) == [4, 4, 1]
    assert q_vector(exp.lattice) == [9, 13, 6, 1]


def test_d_recurrences_worked_case():
    lat = z3_lattice()
    exp = expansion_at(lat, "101", "000")
    assert check_d_recurrences(exp) is None
    assert d_vectors(lat).minus == [1, 3, 1]
    assert d_vectors(exp.interval_lattice).minus == [1, 2, 1]
    assert d_vectors(exp.lattice).minus == [1, 4, 3, 1]
    assert (len(exp.lattice.meet_irreducibles())
            == len(lat.meet_irreducibles()) + 1)


def test_recurrences_take_a_built_expansion_and_interval_lattice():
    lat = z3_lattice()
    exp = expansion_at(lat, "101", "000")
    assert exp.host is lat
    assert exp.interval == lat.interval_by_strings("101", "000")
    assert check_rank_recurrence(exp) is None
    assert check_q_recurrence(exp) is None
    assert check_d_recurrences(exp) is None
    # The expansion's K lattice is built once, on first read, and kept.
    assert exp.interval_lattice is exp.interval_lattice
    # The expansion and the interval lattice it carries are the ones used: a
    # wrong enlarged lattice, with its copy interval for the d check's second
    # expansion, planted in the expansion, or a wrong interval lattice put
    # in the cache of a copy, fails each check with its detail.  A copy made
    # by replace starts with an empty cache.
    wrong = expansion_at(lat, "111", "000")
    planted = replace(exp, lattice=wrong.lattice,
                      copy_interval=wrong.copy_interval)
    wrong_k = replace(exp)
    assert "interval_lattice" not in vars(wrong_k)
    vars(wrong_k)["interval_lattice"] = filter_lattice(
        poset_from_covers(["u"], []))
    assert check_rank_recurrence(planted) == (
        "lhs=[1, 2, 3, 3, 1] host=[1, 1, 3, 3, 1] self=[1, 1, 3, 3, 1] "
        "case=[1, 1, 3, 3, 1]")
    assert check_q_recurrence(planted) == (
        "q=[10, 15, 7, 1] size_ok=False")
    assert check_q_recurrence(wrong_k) == (
        "q=[9, 13, 6, 1] size_ok=True")
    assert check_d_recurrences(planted) == (
        "d_minus_ok=False d_total_ok=False mi_growth_ok=True")
    assert check_d_recurrences(wrong_k) == (
        "d_minus_ok=False d_total_ok=False mi_growth_ok=True")


# Every public entry that takes an interval validates it, whatever the caller
# has already built: reversed, incomparable, out of range, negative.  The
# recurrence checks take an expansion, so the interval they check is the one
# expand_poset validated; their cases pin that the only way to them is
# through that check.
_BAD_INTERVALS = [IntervalRef(4, 0), (2, 3), (0, 5), (-1, 4)]


@pytest.mark.parametrize("k", _BAD_INTERVALS, ids=str)
@pytest.mark.parametrize("call", [
    expand_poset, boundary,
    lambda lat, k: check_rank_recurrence(expand_poset(lat, k)),
    lambda lat, k: check_q_recurrence(expand_poset(lat, k)),
    lambda lat, k: check_d_recurrences(expand_poset(lat, k)),
    lambda lat, k: lat.interval_elements(k),
    is_cutting,
], ids=["expand_poset", "boundary", "rank", "q", "d", "interval_elements",
        "is_cutting"])
def test_bad_intervals_raise_invalid_interval(call, k):
    with pytest.raises(InvalidInterval):
        call(z3_lattice(), k)


def test_recurrences_across_small_catalog():
    for p in posets_up_to_iso(3):
        lat = filter_lattice(p)
        for a in range(lat.size):
            for b in range(lat.size):
                if not lat.le(a, b) or not is_cutting(lat, (a, b)):
                    continue
                exp = expand_poset(lat, (a, b))
                assert check_rank_recurrence(exp) is None
                assert check_q_recurrence(exp) is None
                assert check_d_recurrences(exp) is None


# -- oracle comparisons ---------------------------------------------------------------


def test_q_matches_interval_oracle_on_catalog():
    for p in posets_up_to_iso(4):
        lat = filter_lattice(p)
        assert q_vector(lat) == poly_trim(oracles.naive_q(lat))


def test_d_matches_cover_oracle_on_catalog():
    for p in posets_up_to_iso(4):
        lat = filter_lattice(p)
        d = d_vectors(lat)
        minus, plus = oracles.naive_d(lat)
        assert poly_eq(d.minus, minus) and poly_eq(d.plus, plus)


def test_degree_vectors_match_antichain_census_on_catalog():
    for p in posets_up_to_iso(4):
        lat = filter_lattice(p)
        d = d_vectors(lat)
        census = antichain_census(lat.mi_poset())
        assert poly_eq(d.minus, d.plus)
        assert poly_eq(d.minus, census)


@settings(max_examples=60, deadline=None)
@given(posets(max_n=6))
def test_invariant_identities_on_random_posets(p):
    lat = filter_lattice(p)
    assert binomial_relations(lat) is None
    assert euler_checks(lat) is None
    d = d_vectors(lat)
    assert poly_eq(d.minus, d.plus)
    assert poly_eq(d.minus, antichain_census(lat.mi_poset()))


@settings(max_examples=40, deadline=None)
@given(posets(max_n=5))
def test_q_routes_agree_on_random_posets(p):
    lat = filter_lattice(p)
    assert poly_eq(_q_census(lat), _q_scan(lat))


def _chain_product(*lengths):
    """chain(a) + chain(b) + ... side by side; its filter lattice is the
    product of chains of a+1, b+1, ... elements."""
    return reduce(disjoint_union, map(chain, lengths))


@pytest.mark.parametrize("make,size", [
    (lambda: fence(16), 2584),                  # 7 row blocks, ragged last
    (lambda: crown(16), 2207),                  # 5 row blocks, ragged last
    (lambda: antichain(11), 2048),              # 4 full row blocks
    (lambda: _chain_product(2, 3, 4, 5, 6), 2520),  # n = 20, 7 row blocks
], ids=["fence16", "crown16", "antichain11", "chains23456"])
def test_blocked_scan_matches_the_census_across_row_blocks(make, size):
    lat = filter_lattice(make())
    assert lat.size == size
    assert lat.size > _SCAN_BLOCK_PAIRS // lat.size      # several blocks
    assert _q_scan(lat) == _q_census(lat)


@settings(max_examples=60, deadline=None)
@given(posets(max_n=7))
def test_scan_kernels_agree_at_every_size(p):
    # Both kernels run on every lattice here, whichever one _q_scan picks.
    lat = filter_lattice(p)
    assert _q_scan_ints(lat) == _q_scan_blocks(lat) == poly_trim(
        _q_census(lat))


@pytest.mark.parametrize("make,size,kernel", [
    (lambda: antichain(6), 64, "_q_scan_ints"),
    (lambda: _chain_product(4, 12), 65, "_q_scan_blocks"),
], ids=["antichain6", "chains4_12"])
def test_scan_picks_its_kernel_by_lattice_size(make, size, kernel,
                                               monkeypatch):
    import latcut.invariants as inv

    lat = filter_lattice(make())
    assert lat.size == size
    assert _q_scan_ints(lat) == _q_scan_blocks(lat) == _q_census(lat)
    picked = []

    def recording(name):
        real = getattr(inv, name)

        def run(lat):
            picked.append(name)
            return real(lat)
        return run

    for name in ("_q_scan_ints", "_q_scan_blocks"):
        monkeypatch.setattr(inv, name, recording(name))
    assert _q_scan(lat) == _q_census(lat)
    assert picked == [kernel]


def test_scan_matches_the_interval_oracle_on_the_cutting_pool():
    pool = list(_pool_iso(5)) + list(_pool_random(200, 7, 1))
    for tag, p in pool:
        lat = filter_lattice(p)
        assert _q_scan(lat) == poly_trim(oracles.naive_q(lat)), tag


def test_scan_refuses_a_base_past_its_limit():
    lat = filter_lattice(chain(21))
    assert (lat.size, lat.base.n) == (22, 21)
    with pytest.raises(CapacityExceeded, match="at most 20 base elements"):
        _q_scan(lat)
    # q_vector never scans such a base: it returns the census.
    assert q_vector(lat) == [22, 21]


# -- summary reports ------------------------------------------------------------------


def test_invariant_report_fields():
    lat = z3_lattice()
    stats = stats_dict(lat)
    assert stats["n"] == 3 and stats["size"] == 5
    assert stats["q"] == [5, 5, 1]
    assert d_vectors(lat).width == 2 and stats["mi_count"] == 3
    assert stats["euler_ok"] and stats["euler_derivative_ok"]


def test_stats_dict_shape_and_json():
    stats = stats_dict(z3_lattice())
    assert set(stats) == {"n", "size", "q", "d_minus", "d_plus", "d_total",
                          "rank_poly", "mi_count", "euler_ok",
                          "euler_derivative_ok"}
    assert stats["n"] == 3 and stats["size"] == 5
    assert stats["q"] == [5, 5, 1]
    text = json.dumps(stats, sort_keys=True)
    assert json.loads(text) == stats
