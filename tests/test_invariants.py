"""Rank polynomials, cube counts, degree vectors, and their recurrences."""

import ast
import json
from dataclasses import replace
from functools import reduce
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets, shuffled_relabeling
from latcut import (IntervalRef, InvalidInterval, all_labeled_posets,
                    antichain, antichain_census,
                    binomial_relations, binomial_transform, boundary, chain,
                    check_d_recurrences, check_q_recurrence,
                    check_rank_recurrence, crown, d_vectors, disjoint_union,
                    euler_checks, expand_poset, fence, filter_lattice,
                    inverse_binomial_transform, is_cutting, ordinal_sum,
                    poset_from_covers, poset_stats, posets_up_to_iso,
                    q_vector, rank_gen, rank_gen_of, stats_dict)
from latcut.invariants import (_q_census, _q_recurrence, _q_scan, poly_add,
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
    # The interval reaches the top, the bottom, or neither: the recurrence
    # holds in each of the three shapes, where one of its sides is all of L
    # in the first two.
    lat = z3_lattice()
    for bottom, top in (("101", "000"), ("111", "101"), ("101", "101")):
        assert check_rank_recurrence(expansion_at(lat, bottom, top)) is None
    # A wrong expansion shows both sides: the right side is R(K) + x R(L)
    # for an interval at the bottom, and two proper parts of L for an inner
    # one.  The top-reaching shape is pinned in the built-expansion test
    # below.
    wrong = expansion_at(lat, "111", "000")
    at_bottom = expansion_at(lat, "111", "101")
    assert check_rank_recurrence(
        replace(at_bottom, lattice=wrong.lattice)) == (
        "lhs=[1, 2, 3, 3, 1] host=[1, 2, 1, 2, 1]")
    inner = expansion_at(lat, "101", "101")
    assert check_rank_recurrence(replace(inner, lattice=wrong.lattice)) == (
        "lhs=[1, 2, 3, 3, 1] host=[1, 1, 1, 2, 1]")


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
        "lhs=[1, 2, 3, 3, 1] host=[1, 1, 3, 3, 1]")
    assert check_q_recurrence(planted) == "q=[10, 15, 7, 1]"
    assert check_q_recurrence(wrong_k) == "q=[9, 13, 6, 1]"
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
@given(posets(max_n=5), st.integers(min_value=0, max_value=2 ** 32))
def test_q_routes_agree_on_random_posets(p, seed):
    # The census reads |min F| off the minima.  It must equal the comb()
    # sum over the up-cover tuples, the transform of d_minus, the interval
    # scan and the recurrence on the poset, as given, dualized and
    # relabelled.
    for q in (p, p.dual(), shuffled_relabeling(p, seed)[0]):
        lat = filter_lattice(q)
        census = _q_census(lat)
        assert census == oracles.q_census_by_up_covers(lat)
        assert census == binomial_transform(d_vectors(lat).minus)
        assert census == _q_scan(lat) == _q_recurrence(q)


def test_q_routes_agree_on_every_labeled_poset_up_to_5():
    # 4,474 posets, every index order among them.
    for n in range(6):
        for p in all_labeled_posets(n):
            lat = filter_lattice(p)
            assert _q_census(lat) == _q_scan(lat) == _q_recurrence(p), p.up


def test_the_census_transforms_a_trimmed_histogram(monkeypatch):
    # F(chain(4000)) has 4,001 filters of base 4,000, each with at most one
    # minimal element: the histogram of |min F| is [1, 4000], not 4,001
    # entries, so the transform makes two Pascal rows, not 4,001.
    import latcut.invariants as inv

    seen = []
    real = inv.binomial_transform

    def recording(d):
        seen.append(list(d))
        return real(d)

    monkeypatch.setattr(inv, "binomial_transform", recording)
    assert _q_census(filter_lattice(chain(4000))) == [4001, 4000]
    assert seen == [[1, 4000]]


def _chain_product(*lengths):
    """chain(a) + chain(b) + ... side by side; its filter lattice is the
    product of chains of a+1, b+1, ... elements."""
    return reduce(disjoint_union, map(chain, lengths))


@pytest.mark.parametrize("make,size", [
    (lambda: fence(13), 610),
    (lambda: fence(16), 2584),
    (lambda: crown(16), 2207),
    (lambda: antichain(11), 2048),
    (lambda: _chain_product(3, 3, 15), 256),    # 2^16 pairs
    (lambda: _chain_product(2, 3, 4, 5, 6), 2520),  # n = 20
    (lambda: _chain_product(4, 4, 4, 5), 750),
    (lambda: ordinal_sum(ordinal_sum(fence(7), crown(6)), fence(6)), 71),
], ids=["fence13", "fence16", "crown16", "antichain11", "pairs2_16",
        "chains23456", "chains4445", "stacked"])
def test_recurrence_matches_the_census_past_the_int_kernel(make, size):
    p = make()
    lat = filter_lattice(p)
    assert lat.size == size
    assert _q_recurrence(p) == _q_census(lat)


@settings(max_examples=60, deadline=None)
@given(posets(max_n=7))
def test_scan_and_recurrence_agree_at_every_size(p):
    lat = filter_lattice(p)
    assert _q_scan(lat) == _q_recurrence(p) == poly_trim(_q_census(lat))


def _cross_checks(monkeypatch):
    """(route, argument, whether it returned q) of each cross-check
    q_vector runs, in order; the scan is patched too, so a production call
    to it would show here."""
    import latcut.invariants as inv

    checks = []
    for name in ("_q_scan", "_q_recurrence"):
        def route(x, name=name, real=getattr(inv, name)):
            q = real(x)
            checks.append((name, x, q is not None))
            return q
        monkeypatch.setattr(inv, name, route)
    return checks


@pytest.mark.parametrize("make,size,checked", [
    (lambda: antichain(6), 64, True),
    (lambda: _chain_product(4, 12), 65, True),
    (lambda: fence(16), 2584, True),
    (lambda: _chain_product(2, 3, 4, 5, 6), 2520, True),
    # 21 base elements, and 4183^2 > 2^23 pairs: past the scan's old gates.
    (lambda: chain(21), 22, True),
    (lambda: disjoint_union(fence(9), crown(8)), 4183, True),
    # One split of n points, n * (n // 64 + 1) work: 2879 * 45 = 129,555
    # is inside the bound of 2^17 = 131,072, and 2880 * 46 is past it.
    (lambda: chain(2879), 2880, True),
    (lambda: chain(2880), 2881, False),
], ids=["antichain6", "chains4_12", "fence16", "chains23456", "chain21",
        "pairs_past_2_23", "chain2879", "chain2880"])
def test_q_vector_cross_checks_each_lattice_once_by_its_size(
        make, size, checked, monkeypatch):
    """The ledger: the recurrence on the base runs once per lattice,
    however often q is asked for, and checks it whatever its size until
    the base's work passes the bound, where it returns None and the
    census stands alone.  The scan never runs."""
    lat = filter_lattice(make())
    assert lat.size == size
    checks = _cross_checks(monkeypatch)
    assert q_vector(lat) == q_vector(lat) == _q_census(lat)
    assert checks == [("_q_recurrence", lat.base, checked)]


def _split_calls(monkeypatch, p):
    """_q_recurrence(p) and the number of Poset.split calls it made."""
    from latcut.poset import Poset

    calls = []
    real = Poset.split
    monkeypatch.setattr(Poset, "split", lambda self, mask: (
        calls.append(mask) or real(self, mask)))
    q = _q_recurrence(p)
    monkeypatch.setattr(Poset, "split", real)
    return q, len(calls)


def test_recurrence_splits_fences_and_crowns_a_linear_number_of_times(
        monkeypatch):
    """The recurrence's work ledger.  fence(n) numbers its elements along
    the path.  Write S(k) for the suffix fence on elements k, ..., n - 1.
    A prime S(k), of 4 or more elements, deletes x = k + 1, the first
    element comparable to three: P - x is the union of {k} and S(k + 2),
    and P * x is S(k + 3).  From S(0), the suffixes reached are S(0) and
    every S(k) with k >= 2, so n - 4 of them are prime, each with its one
    union: 2(n - 4) splits.  Then S(n - 3) is the sum of its middle point
    and its two ends, an antichain that splits as a union, and S(n - 2)
    is a two-element chain, a sum: three more, 2n - 5 in all.

    crown(n) is a cycle in index order, every element comparable to
    three, so the first one, 0, is deleted: P - 0 is the fence on
    1, ..., n - 1 and P * 0 the fence on 2, ..., n - 2.  Both are fences in
    index order, whose suffixes end at different elements, so no mask is
    shared: 1 + (2(n - 1) - 5) + (2(n - 3) - 5) = 4n - 17 splits, for n
    of at least 8, where the shorter fence has 4 elements."""
    for n in range(4, 31):
        q, splits = _split_calls(monkeypatch, fence(n))
        assert q is not None and splits == 2 * n - 5, n
    for n in range(8, 41, 2):
        q, splits = _split_calls(monkeypatch, crown(n))
        assert q is not None and splits == 4 * n - 17, n


def test_recurrence_returns_none_past_its_work_bound(monkeypatch):
    # fence(200), about 7.3 * 10^41 filters, so no lattice is built: its
    # splits of up to 200 elements at 4 words each pass 2^17 before the
    # recurrence ends; q_vector's side of it is the ledger's chain2880.
    q, splits = _split_calls(monkeypatch, fence(200))
    assert q is None and 0 < splits < 2 * 200 - 5


def test_recurrence_matches_the_component_reference():
    """The same Q as the reference, or the same None past the work bound:
    fence(191) and chain(2879) are the largest of their kind inside it."""
    cases = ([fence(n) for n in range(4, 31)]
             + [crown(n) for n in range(8, 41, 2)]
             + [fence(191), fence(200), chain(2879), chain(2880)])
    got = [_q_recurrence(p) for p in cases]
    assert got == [oracles.q_recurrence_by_components(p) for p in cases]
    assert [q is None for q in got[-4:]] == [False, True, False, True]


def test_recurrence_and_stats_never_call_comparable_mask(monkeypatch):
    # The splits, the pivot pick and the walk's table read up[j] | down[j]
    # inline, with no method call per visited element.
    from latcut.poset import Poset

    calls = []
    real = Poset.comparable_mask
    monkeypatch.setattr(Poset, "comparable_mask", lambda self, i: (
        calls.append(i) or real(self, i)))
    assert _q_recurrence(fence(30)) is not None
    assert poset_stats(fence(25))["size"] == 196418
    assert calls == []


def test_no_module_in_latcut_reads_the_scan():
    # The scan is the tests' reference: production checks q by the
    # recurrence alone.  Its definition is a FunctionDef, not a read.
    import latcut.invariants as inv

    for path in Path(inv.__file__).parent.glob("*.py"):
        reads = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert "_q_scan" not in reads, path.name


def test_scan_matches_the_interval_oracle_on_the_cutting_pool():
    pool = list(_pool_iso(5)) + list(_pool_random(200, 7, 1))
    for tag, p in pool:
        lat = filter_lattice(p)
        assert _q_scan(lat) == poly_trim(oracles.naive_q(lat)), tag


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
