"""The antichain DFS behind F(P): every filter with its minimal elements,
checked against the naive oracles, the 2^n subset scan and closed forms."""

import io
import json
import re
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets
from latcut import (CapacityExceeded, Poset, all_labeled_posets, antichain,
                    antichain_census, binomial_transform, chain, crown,
                    d_vectors, disjoint_union, fence, fib, filter_lattice,
                    lucas, ordinal_sum, poset_from_covers, poset_stats,
                    q_vector, stats_dict, verify_random, write_poset_file)
from latcut.bits import iter_bits
from latcut.cli import _json_line, cli_run
from latcut.invariants import (_split_histograms, _transfer_histograms,
                               _transfer_order, _walked_histograms,
                               poly_add, poly_deriv, poly_eval, poly_shift,
                               poly_trim, rank_gen)
from latcut.poset import FILTER_CAP
from latcut.verify import (_CUTTING_TOPICS, _LATTICE_ROWS, SuiteResult,
                           _run_rows, filters_by_scan, run_cutting_suite,
                           run_suite, verify_birkhoff)


def labelset(p, bits):
    return frozenset(p.labels[i] for i in range(p.n) if bits >> i & 1)


def check_pairs(p):
    """Every emitted (F, A) has F = up(A) and A = min F; returns the F."""
    out = []
    for f, a in p.filters_with_minima():
        assert f == p.up_closure(a)
        assert a == p.min_of(f)
        out.append(f)
    return out


def reference_antichains(p):
    """The antichain order the package has always used: recursive DFS,
    members picked in increasing index order."""
    out = []

    def rec(chosen, cand):
        out.append(chosen)
        for j in iter_bits(cand):
            above = cand & ~((2 << j) - 1)
            rec(chosen | 1 << j, above & ~p.comparable_mask(j))

    rec(0, p.full_mask)
    return out


def check_against_naive(p):
    emitted = check_pairs(p)
    filters = p.filters()
    assert sorted(emitted) == sorted(filters)
    assert filters == sorted(filters, key=lambda f: (f.bit_count(), f))
    assert {labelset(p, f) for f in filters} == oracles.naive_filters(p)
    assert len(set(filters)) == len(filters)
    assert [a for _, a in p.filters_with_minima()] == reference_antichains(p)


def test_kernel_on_every_labeled_poset_up_to_4():
    for n in range(5):
        for p in all_labeled_posets(n):
            check_against_naive(p)


@settings(max_examples=80, deadline=None)
@given(posets(max_n=7))
def test_kernel_on_random_posets(p):
    check_against_naive(p)


@settings(max_examples=60, deadline=None)
@given(posets(max_n=7))
def test_subset_scan_oracle_matches_naive(p):
    scanned = filters_by_scan(p)
    assert scanned == sorted(scanned)
    assert {labelset(p, f) for f in scanned} == oracles.naive_filters(p)


@settings(max_examples=40, deadline=None)
@given(posets(max_n=6))
def test_lattice_covers_come_from_the_minima(p):
    lat = filter_lattice(p)
    assert list(lat.filters) == sorted(lat.filters,
                                       key=lambda f: (-f.bit_count(), f))
    for x, f in enumerate(lat.filters):
        want = sorted(lat.index_of[f & ~(1 << y)]
                      for y in iter_bits(p.min_of(f)))
        assert list(lat.up_covers[x]) == want
    # Each height is read off its filter, as n - |F|, and not stored.
    assert not hasattr(lat, "heights")
    assert sorted(lat.covering_graph()) == sorted(oracles.naive_covers(lat))


def test_birkhoff_suite_checks_the_kernel_against_the_scan(monkeypatch):
    real = Poset.filters_with_minima

    def duplicate_bottom(self, cap):
        yield from real(self, cap)
        if self.n == 3:
            yield self.full_mask, self.min_of(self.full_mask)

    monkeypatch.setattr(Poset, "filters_with_minima", duplicate_bottom)
    res = verify_birkhoff(trials=0)
    assert not res.ok
    # Some 3-element posets fail the round trip first, so the scan does not
    # run on them; the scan must still catch the others.
    assert any("differs from the subset scan" in text
               for _, text in res.failures)


def test_birkhoff_suite_checks_the_covers_against_their_definition(
        capsys, monkeypatch):
    # The cover walk with its test for an element in between deleted: it
    # keeps every pair it visits, which is wrong once an element between i
    # and j has a larger index than j, first on 3 elements.
    def every_visited_pair(self):
        covers = []
        for i in range(self.n):
            rest = self.up[i]
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest &= ~(self.up[j] | low)
                covers.append((i, j))
        return tuple(covers)

    monkeypatch.setattr(Poset, "cover_masks", every_visited_pair)
    assert cli_run(["verify", "birkhoff"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("suite birkhoff: 1243 checks, ")
    assert ("smallest failing instance:\nFAIL birkhoff: round trip, covers, "
            "filters (labeled n=3)\ncover_masks() differs from its "
            "definition\n") in out


def _composite_18():
    return ordinal_sum(disjoint_union(fence(7), crown(6)),
                       disjoint_union(chain(2), antichain(3)))


def _composite_20():
    return disjoint_union(ordinal_sum(fence(8), crown(6)),
                          disjoint_union(chain(3), antichain(3)))


@pytest.mark.parametrize("make,n,count", [
    (lambda: fence(18), 18, fib(20)),
    (lambda: fence(19), 19, fib(21)),
    (_composite_18, 18, fib(9) * lucas(6) + 3 * 8 - 1),
    (_composite_20, 20, (fib(10) + lucas(6) - 1) * 4 * 8),
])
def test_kernel_on_both_sides_of_the_old_scan_switch(make, n, count):
    """Above a few elements the naive oracle is too slow, so these compare
    with the 2^n subset scan and test every filter against the relation."""
    p = make()
    assert p.n == n
    emitted = check_pairs(p)
    filters = p.filters()
    assert len(filters) == count
    assert sorted(emitted) == filters_by_scan(p)
    rel = oracles.relation(p)
    for f in filters:
        s = labelset(p, f)
        assert all(b in s for a, b in rel if a in s)


def test_fence_filters_are_fibonacci_at_scale():
    for n in range(27):
        census = antichain_census(fence(n))
        assert sum(census) == fib(n + 2)
        assert poly_eval(binomial_transform(census), -1) == 1


def test_crown_filters_are_lucas_at_scale():
    for two_n in range(4, 25, 2):
        census = antichain_census(crown(two_n))
        assert sum(census) == lucas(two_n)
        assert poly_eval(binomial_transform(census), -1) == 1


def test_alternating_q_sum_on_large_lattices():
    for p, size in ((fence(20), fib(22)), (crown(20), lucas(20))):
        lat = filter_lattice(p)
        assert lat.size == size
        assert poly_eval(q_vector(lat), -1) == 1


# -- the cap ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [fence(6), fence(19), crown(20), chain(30)])
def test_cap_is_exact(p):
    size = len(p.filters())
    assert filter_lattice(p, cap=size).size == size
    with pytest.raises(CapacityExceeded):
        p.filters(cap=size - 1)
    with pytest.raises(CapacityExceeded):
        filter_lattice(p, cap=size - 1)


def test_wide_posets_are_refused_before_enumerating():
    with pytest.raises(CapacityExceeded):
        filter_lattice(antichain(1200))
    with pytest.raises(CapacityExceeded):
        list(antichain(1200).filters_with_minima())
    # Wide only at the top: one element below a 1200-element antichain.
    with pytest.raises(CapacityExceeded):
        filter_lattice(ordinal_sum(chain(1), antichain(1200)))
    assert len(antichain(5).filters(cap=32)) == 32
    with pytest.raises(CapacityExceeded):
        antichain(5).filters(cap=31)


def test_cli_stats_refuses_a_wide_poset(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(write_poset_file(antichain(1200))))
    assert cli_run(["stats"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "filters" in err


# -- stats computes q once -----------------------------------------------------------


def test_stats_dict_computes_q_once(monkeypatch):
    import latcut.invariants as inv

    calls = []
    real = inv.q_vector

    def counting(lat):
        calls.append(lat)
        return real(lat)

    lat = filter_lattice(fence(7))
    want = stats_dict(lat)
    monkeypatch.setattr(inv, "q_vector", counting)
    assert stats_dict(lat) == want
    assert calls == [lat]


# -- stats in poset space ------------------------------------------------------------


def test_poset_stats_on_every_labeled_poset_up_to_4():
    for n in range(5):
        for p in all_labeled_posets(n):
            assert poset_stats(p) == stats_dict(filter_lattice(p))


def test_poset_stats_on_every_labeled_poset_of_5_elements():
    for p in all_labeled_posets(5):
        assert poset_stats(p) == stats_dict(filter_lattice(p))


def test_poset_stats_on_the_empty_poset():
    p = poset_from_covers([], [])
    got = poset_stats(p)
    assert got == stats_dict(filter_lattice(p))
    assert got["size"] == 1 and got["mi_count"] == 0
    assert got["d_minus"] == got["d_plus"] == got["d_total"] == [1]


@settings(max_examples=80, deadline=None)
@given(posets(max_n=7))
def test_poset_stats_on_random_posets(p):
    assert poset_stats(p) == stats_dict(filter_lattice(p))


def _cross_check_calls(monkeypatch, run):
    """run() and the number of q cross-checks it ran by the recurrence."""
    import latcut.invariants as inv

    calls = []
    real = inv._q_recurrence
    with monkeypatch.context() as m:
        m.setattr(inv, "_q_recurrence", lambda p: calls.append(p) or real(p))
        result = run()
    return result, len(calls)


@pytest.mark.parametrize("make,inside_old_gates", [
    (lambda: fence(19), False),
    (lambda: fence(20), False),
    (lambda: crown(20), False),
    (lambda: antichain(14), False),
    (lambda: antichain(15), False),
    (lambda: disjoint_union(fence(8), crown(6)), True),
    (lambda: fence(16), True),
    # n <= 20, but 4183^2 pairs of filters
    (lambda: disjoint_union(fence(9), crown(8)), False),
    # 499 filters but 22 elements
    (lambda: ordinal_sum(fence(12), crown(10)), False),
    (_composite_18, True),
    (_composite_20, True),
])
def test_poset_stats_at_scale_and_the_scan_switch(make, inside_old_gates,
                                                  monkeypatch):
    """The streamed report equals the lattice's.  The streamed one never
    cross-checks q; the lattice's side checks it once by the recurrence,
    inside the interval scan's old gates (n <= 20 and |L|^2 <= 2^23) and
    past them alike."""
    p = make()
    got, streamed_checks = _cross_check_calls(monkeypatch,
                                              lambda: poset_stats(p))
    want, lattice_checks = _cross_check_calls(
        monkeypatch, lambda: stats_dict(filter_lattice(p)))
    assert got == want
    assert (p.n <= 20 and got["size"] ** 2 <= 1 << 23) == inside_old_gates
    assert (streamed_checks, lattice_checks) == (0, 1)


# -- the split by the sum laws -------------------------------------------------------


_LEAVES = st.one_of(posets(max_n=3),
                    st.builds(disjoint_union, posets(max_n=2), posets(max_n=2)))
_SUM_TREES = st.recursive(
    _LEAVES,
    lambda parts: st.one_of(st.builds(disjoint_union, parts, parts),
                            st.builds(ordinal_sum, parts, parts)),
    max_leaves=4).filter(lambda p: p.n <= 11)


@settings(max_examples=150, deadline=None)
@given(_SUM_TREES)
def test_poset_stats_on_nested_sums(p):
    """Leaves of 0 to 3 elements and unions of two, under any nesting of
    disjoint unions and ordinal sums."""
    assert poset_stats(p) == stats_dict(filter_lattice(p))


def _trimmed(hists):
    return [poly_trim(h) for h in hists]


# Composites of 21 to 30 elements, past the scan bound.
_UNSPLIT_COMPOSITES = [
    lambda: ordinal_sum(fence(12), crown(10)),
    lambda: disjoint_union(ordinal_sum(fence(9), antichain(4)),
                           ordinal_sum(crown(8), chain(3))),
    lambda: ordinal_sum(chain(2), ordinal_sum(
        disjoint_union(fence(7), disjoint_union(crown(6), chain(4))),
        ordinal_sum(antichain(3), fence(6)))),
    lambda: disjoint_union(antichain(6), ordinal_sum(
        disjoint_union(chain(3), antichain(2)), crown(12))),
]


@pytest.mark.parametrize("make", _UNSPLIT_COMPOSITES)
def test_split_histograms_equal_one_walk_over_all_of_p(make):
    """Beyond the scan bound the lattice is too costly to compare with, so
    the split is checked against one walk over the unsplit P."""
    p = make()
    assert p.n > 20
    assert p.split(p.full_mask)[0] != "prime"
    assert (_trimmed(_split_histograms(p, FILTER_CAP))
            == _trimmed(_walked_histograms(p, FILTER_CAP)))


def _count_walked_filters(monkeypatch):
    real = Poset.filters_with_minima
    walked = []

    def counting(self, cap=FILTER_CAP):
        for pair in real(self, cap):
            walked.append(self.n)
            yield pair

    monkeypatch.setattr(Poset, "filters_with_minima", counting)
    return walked


def _count_transfers(monkeypatch):
    import latcut.invariants as inv

    real = inv._transfer_histograms
    counted = []

    def counting(q, steps):
        counted.append(q.n)
        return real(q, steps)

    monkeypatch.setattr(inv, "_transfer_histograms", counting)
    return counted


def _count_masks(monkeypatch, name):
    real = getattr(Poset, name)
    masks = []

    def counting(self, mask):
        masks.append(mask)
        return real(self, mask)

    monkeypatch.setattr(Poset, name, counting)
    return masks


# Splits: one per node of the split tree with 2 or more elements, since a
# single point is a leaf.  Restricts: one per prime block other than P, and
# a prime block has 4 or more elements, as every poset on 2 or 3 splits.
@pytest.mark.parametrize("p,walked,counted,splits,restricts", [
    # A single point is a leaf with the closed form of F({x}), so the root's
    # split is all the work: no walk, no DP, no restrict.
    (antichain(15), 0, [], 1, 0),
    (chain(300), 0, [], 1, 0),
    # fence(9): S = 33 < 89 filters, so 33 are walked and the DP counts it.
    # crown(8): 47 filters within S = 101, walked in full, once.
    # Splits: the root and its two prime parts; restricts: those parts.
    (disjoint_union(fence(9), crown(8)), 33 + lucas(8), [9], 3, 2),
], ids=["antichain15", "chain300", "fence9+crown8"])
def test_poset_stats_walks_prime_blocks_up_to_their_state_bound(
        p, walked, counted, splits, restricts, monkeypatch):
    walks = _count_walked_filters(monkeypatch)
    transfers = _count_transfers(monkeypatch)
    split_masks = _count_masks(monkeypatch, "split")
    restrict_masks = _count_masks(monkeypatch, "restrict")
    # The walk counts each down-degree off the minima, and walks no dual.
    monkeypatch.setattr(Poset, "dual", lambda self: pytest.fail(
        "poset_stats walked a dual"))
    got = poset_stats(p)
    assert len(walks) == walked and transfers == counted
    assert len(split_masks) == splits
    assert all(m.bit_count() >= 2 for m in split_masks)
    assert len(restrict_masks) == restricts
    assert all(m.bit_count() >= 4 for m in restrict_masks)
    monkeypatch.undo()
    assert got == stats_dict(filter_lattice(p))


def test_the_rank_is_counted_once_where_it_is_read(monkeypatch):
    import latcut.invariants as inv

    # fence(9) goes to the DP after a cut walk, crown(8) and crown(6) are
    # walked in full (47 and 18 filters, within S = 101 and 69), and the
    # point is a leaf: two walked prime blocks, two rank counts.
    p = disjoint_union(disjoint_union(fence(9), crown(8)),
                       disjoint_union(crown(6), chain(1)))
    lat, fresh = filter_lattice(p), filter_lattice(p)
    ranks = _count_calls(monkeypatch, inv, "_rank_histogram")
    degrees = _count_calls(monkeypatch, inv, "_histograms")
    d_vectors(lat)
    assert ranks == [] and degrees == [p.n]
    del degrees[:]
    rank_gen(lat)
    assert ranks == [p.n] and degrees == []
    del ranks[:]
    stats_dict(fresh)
    assert ranks == [p.n] and degrees == [p.n]
    del ranks[:], degrees[:]
    poset_stats(p)
    assert sorted(ranks) == [6, 8] and sorted(degrees) == [6, 8]


def test_transfer_state_bounds_of_fences_and_crowns():
    """A BFS from an end of a fence keeps one vertex on the frontier, and
    one round a crown keeps two: S = sum of 4^frontier over the steps."""
    for n in range(1, 40):
        assert _transfer_order(fence(n))[1] == 4 * (n - 1) + 1
    for two_n in range(4, 40, 2):
        assert _transfer_order(crown(two_n))[1] == 4 + 16 * (two_n - 2) + 1


@pytest.mark.parametrize("cap,transfers", [
    (fib(21) + 2, 1),
    (fib(21) + 1, 1),      # the DP's exact size is over the cap
    (74, 1),
    (73, 0),               # S = 73: the walk refuses at the cap
    (4, 0),
])
def test_the_rule_never_runs_the_dp_past_the_cap(cap, transfers,
                                                  monkeypatch):
    # fence(19) between two one-element blocks, so P has one minimal and
    # one maximal element and passes the pre-check at any of these caps.
    p = ordinal_sum(ordinal_sum(chain(1), fence(19)), chain(1))
    counted = _count_transfers(monkeypatch)
    if cap > fib(21) + 1:
        assert poset_stats(p, cap=cap)["size"] == fib(21) + 2
    else:
        with pytest.raises(CapacityExceeded,
                           match="^more than %d filters$" % cap):
            poset_stats(p, cap=cap)
    assert counted.count(19) == transfers


# -- the transfer-matrix DP and the walk against the two-walk join ------------
#
# The DP and the walk each count a prime block's histograms for poset_stats.
# The walk shares its cover count with d_vectors, so both are held to
# oracles.histograms_by_two_walks, which reads max(P - F) off a walk of the
# dual.


def _check_dp_and_walk(p):
    walked = _walked_histograms(p, FILTER_CAP)
    assert walked == oracles.histograms_by_two_walks(p)
    assert _transfer_histograms(p, _transfer_order(p)[0]) == walked


def test_transfer_histograms_on_every_labeled_poset_up_to_5():
    for n in range(6):
        for p in all_labeled_posets(n):
            _check_dp_and_walk(p)


@settings(max_examples=100, deadline=None)
@given(posets(max_n=14))
def test_transfer_histograms_on_random_posets(p):
    _check_dp_and_walk(p)


@pytest.mark.parametrize("make", _UNSPLIT_COMPOSITES)
def test_transfer_histograms_on_unsplit_composites(make):
    _check_dp_and_walk(make())


# A cap above every size below: |F(P)| <= 2^n.
_BIG_CAP = 1 << 300


def _check_closed_forms(got, n, size, d_minus):
    assert got["n"] == n and got["size"] == size
    # By Birkhoff d_minus is the antichain census of P (criterion 11), and
    # every F(P) has d_plus == d_minus.
    assert got["d_minus"] == got["d_plus"] == d_minus
    assert sum(got["rank_poly"]) == sum(got["d_total"]) == size
    # F(P) has one meet-irreducible per element of P.
    assert got["mi_count"] == n
    assert poly_eval(got["q"], -1) == 1
    assert poly_eval(poly_deriv(got["q"]), -1) == n
    assert got["euler_ok"] and got["euler_derivative_ok"]


def _fence_d(n):
    # The antichains of a fence are the independent sets of a path.
    return [comb(n - k + 1, k) for k in range((n + 1) // 2 + 1)]


def _crown_d(two_n):
    # The antichains of a crown are the independent sets of a cycle.
    return [1] + [two_n * comb(two_n - k, k) // (two_n - k)
                  for k in range(1, two_n // 2 + 1)]


def _fence_rank(n):
    # R_n, the rank polynomial of F(fence(n)) in fence()'s orientation:
    # R_0 = 1, R_1 = 1 + x, then R_n = x R_(n-1) + R_(n-2) for even n and
    # R_n = R_(n-1) + x^2 R_(n-2) for odd n (Munarini and Zagaglia Salvi,
    # Discrete Math. 259 (2002)).
    r = [[1], [1, 1]]
    for m in range(2, n + 1):
        r.append(poly_add(r[m - 1], poly_shift(r[m - 2], 2)) if m % 2
                 else poly_add(poly_shift(r[m - 1], 1), r[m - 2]))
    return r[n]


def _crown_rank(two_n):
    # x^(2n-1) R_(2n-1)(1/x) + x^3 R_(2n-3)(x); R_(2n-1) has degree 2n - 1
    # with leading coefficient 1, so the first term is its reversed list.
    return poly_add(_fence_rank(two_n - 1)[::-1],
                    poly_shift(_fence_rank(two_n - 3), 3))


def test_rank_polynomials_of_fences_and_crowns_match_the_walk():
    for n in range(16):
        assert rank_gen(filter_lattice(fence(n))) == _fence_rank(n), n
    for two_n in range(4, 17, 2):
        assert rank_gen(filter_lattice(crown(two_n))) == _crown_rank(two_n)


@pytest.mark.parametrize("n", [21, 34, 55, 89, 144, 233, 300])
def test_poset_stats_on_fences_is_fibonacci(n):
    got = poset_stats(fence(n), cap=_BIG_CAP)
    _check_closed_forms(got, n, fib(n + 2), _fence_d(n))
    assert got["rank_poly"] == _fence_rank(n)


@pytest.mark.parametrize("two_n", [22, 40, 64, 100, 150, 200])
def test_poset_stats_on_crowns_is_lucas(two_n):
    got = poset_stats(crown(two_n), cap=_BIG_CAP)
    _check_closed_forms(got, two_n, lucas(two_n), _crown_d(two_n))
    assert got["rank_poly"] == _crown_rank(two_n)


def test_poset_stats_on_nesting_deeper_than_the_recursion_limit():
    """P_k = (P_(k-1) + x_k) (+) y_k, one union and one ordinal sum per
    level, so the split tree is 2k + 1 blocks deep and
    |F(P_k)| = 2 |F(P_(k-1))| + 1 = 3 * 2^k - 1."""
    k = sys.getrecursionlimit() // 2 + 1
    labels, covers = ["y0"], []
    for i in range(1, k + 1):
        labels += ["x%d" % i, "y%d" % i]
        covers += [("y%d" % (i - 1), "y%d" % i), ("x%d" % i, "y%d" % i)]
    got = poset_stats(poset_from_covers(labels, covers), cap=1 << 4000)
    assert got["size"] == 3 * 2 ** k - 1
    assert got["euler_ok"] and got["euler_derivative_ok"]
    assert sum(got["rank_poly"]) == sum(got["d_total"]) == got["size"]


def test_poset_stats_on_a_long_chain():
    got = poset_stats(chain(2000))
    assert got["size"] == 2001
    assert got["rank_poly"] == [1] * 2001
    assert got["d_minus"] == got["d_plus"] == [1, 2000]
    assert got["d_total"] == [0, 2, 1999]
    assert got["mi_count"] == 2000 and got["euler_ok"]


@pytest.mark.parametrize("p,size", [
    # small enough for the q scan, which builds the lattice under the cap
    (disjoint_union(fence(5), crown(6)), fib(7) * lucas(6)),
    (ordinal_sum(fence(5), crown(6)), fib(7) + lucas(6) - 1),
    # 22 elements: the lattice is never built
    (disjoint_union(fence(12), crown(10)), fib(14) * lucas(10)),
    (ordinal_sum(fence(12), crown(10)), fib(14) + lucas(10) - 1),
])
def test_cli_stats_cap_on_the_exact_size_of_a_sum(p, size, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_poset_file(p)))
    assert cli_run(["stats", "--cap", str(size)]) == 0
    out, err = capsys.readouterr()
    assert out == _json_line(stats_dict(filter_lattice(p))) and err == ""
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_poset_file(p)))
    assert cli_run(["stats", "--cap", str(size - 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: more than %d filters\n" % (size - 1)


@pytest.mark.parametrize("p,message", [
    (antichain(1200), "an antichain of 1200 elements forces more than "
                      "1048576 filters"),
    (ordinal_sum(chain(1), antichain(1200)), "an antichain of 1200 elements "
                                             "forces more than 1048576 "
                                             "filters"),
    # Wide only inside: P itself passes the pre-check, as it would before a
    # walk over all of P, and the refusal names the cap.
    (ordinal_sum(ordinal_sum(chain(1), antichain(1200)), chain(1)),
     "more than 1048576 filters"),
    (ordinal_sum(ordinal_sum(chain(1), antichain(30)), chain(1)),
     "more than 1048576 filters"),
    # a prime block with 22 minimal elements
    (ordinal_sum(ordinal_sum(chain(1), crown(44)), chain(1)),
     "more than 1048576 filters"),
])
def test_cli_stats_refusal_messages(p, message, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_poset_file(p)))
    assert cli_run(["stats"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


def test_poset_stats_on_fence_28():
    got = poset_stats(fence(28))
    assert got["size"] == fib(30) == 832040
    assert poly_eval(got["q"], -1) == 1 and got["euler_ok"]
    assert got["euler_derivative_ok"]
    assert sum(got["rank_poly"]) == sum(got["d_total"]) == got["size"]


def test_poset_stats_respects_the_cap():
    p = fence(19)
    assert poset_stats(p, cap=fib(21))["size"] == fib(21)
    with pytest.raises(CapacityExceeded):
        poset_stats(p, cap=fib(21) - 1)
    with pytest.raises(CapacityExceeded):
        poset_stats(antichain(1200))


@pytest.mark.parametrize("p", [
    poset_from_covers([], []), fence(9), crown(10), antichain(6),
    disjoint_union(fence(9), crown(8)),
])
def test_cli_stats_prints_the_lattice_report(p, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_poset_file(p)))
    assert cli_run(["stats"]) == 0
    out, err = capsys.readouterr()
    assert out == _json_line(stats_dict(filter_lattice(p)))
    assert err == ""


def test_cli_stats_on_fence_300_under_a_big_cap(capsys, monkeypatch):
    text = write_poset_file(fence(300))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli_run(["stats", "--cap", str(_BIG_CAP)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    _check_closed_forms(json.loads(out), 300, fib(302), _fence_d(300))


def test_cli_stats_refuses_over_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_poset_file(fence(21))))
    assert cli_run(["stats", "--cap", "4096"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: more than 4096 filters\n"


# -- each pooled lattice computes q once ------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its first argument."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_lattice_invariant_checks_compute_q_once(monkeypatch):
    # The binomial and Euler rows both ask for q: the lattice is censused
    # and checked by the recurrence on its base once, and the second row
    # reads the cached vector.
    import latcut.invariants as inv

    p = crown(6)
    lat = filter_lattice(p)
    censused = _count_calls(monkeypatch, inv, "_q_census")
    checked = _count_calls(monkeypatch, inv, "_q_recurrence")
    results = {name: SuiteResult(name) for name in _CUTTING_TOPICS}
    _run_rows(results, _LATTICE_ROWS, p, lambda: "crown(6)", lat)
    assert (censused, checked) == ([lat], [p])
    assert all(r.ok for r in results.values())
    assert [results[topic].checks
            for topic, _, _ in _LATTICE_ROWS] == [1, 1, 1]


def test_cutting_suite_scans_each_distinct_lattice_once(monkeypatch):
    import latcut.invariants as inv

    censused = _count_calls(monkeypatch, inv, "_q_census")
    checked = _count_calls(monkeypatch, inv, "_q_recurrence")
    results = run_cutting_suite(trials=4, max_size=5, seed=3,
                                exhaustive_max=3)
    assert all(r.ok for r in results.values())
    summary = results["cutting-equivalence"].lines[0]
    posets, cuttings = (int(x) for x in re.search(
        r"posets=(\d+) .* cuttings=(\d+)", summary).groups())
    # Each pooled lattice, and for each cutting its interval lattice and
    # its expansion; the second expansion of a cutting never asks for q.
    # Each is checked once, by the recurrence on its own base.
    assert len(censused) == posets + 2 * cuttings
    assert len({id(lat) for lat in censused}) == len(censused)
    assert checked == [lat.base for lat in censused]
    assert results["q-d-recurrences"].checks == cuttings
    assert results["binomial"].checks == posets + cuttings


def test_cutting_pass_refuses_a_wide_poset_before_drawing_the_next(
        monkeypatch):
    # The pool is drawn as the pass goes: the first random poset (seed
    # 1000003, 2114 elements) is refused before the other 39 are drawn.
    import latcut.verify as ver

    drawn = _count_calls(monkeypatch, ver, "random_poset")
    with pytest.raises(CapacityExceeded) as e:
        run_cutting_suite(trials=40, max_size=3000, seed=1, exhaustive_max=0,
                          topics=("euler",))
    assert str(e.value) == ("the cutting pass refuses seed=1000003: 3889 "
                            "lattice elements and at least 7777 cuttings, "
                            "cuttings*|L| past 4000000")
    assert drawn == [1000003]


def test_random_layer_computes_q_once_per_poset(monkeypatch):
    # The binomial and Euler checks both ask for q; the second reads the
    # vector cached on the lattice.
    import latcut.invariants as inv

    censused = _count_calls(monkeypatch, inv, "_q_census")
    checked = _count_calls(monkeypatch, inv, "_q_recurrence")
    res = verify_random(trials=6, max_size=5, seed=3)
    assert res.ok
    assert len(censused) == len(checked) == 6
    assert checked == [lat.base for lat in censused]


# -- each cutting topic runs only its own rows -------------------------------------

# run_suite walks every poset up to min(5, max_size) elements, so these
# match run_cutting_suite with exhaustive_max=4.
_SMALL_PASS = dict(trials=3, max_size=4, seed=3)


@pytest.fixture(scope="module")
def whole_pass():
    return run_cutting_suite(exhaustive_max=4, **_SMALL_PASS)


@pytest.mark.parametrize("topic", _CUTTING_TOPICS)
def test_a_cutting_topic_alone_reports_what_the_whole_pass_reports(
        topic, whole_pass):
    alone = run_suite(topic, **_SMALL_PASS)
    assert alone.ok and alone.checks > 0
    assert alone.report() == whole_pass[topic].report()


@pytest.mark.parametrize("topic", _CUTTING_TOPICS)
def test_only_the_equivalence_topic_votes_and_only_counts_decompose(
        topic, monkeypatch):
    import latcut.expansion as ex
    import latcut.verify as ver

    # Counted under both names: the pass's own and the one inside
    # latcut.expansion, in case a production route reaches it there.  The
    # decomposition round trip is checked by _round_trip, which the pass
    # calls on the expansion it holds and decompose on the one it builds.
    votes = [_count_calls(monkeypatch, m, "is_cutting") for m in (ver, ex)]
    splits = [_count_calls(monkeypatch, m, "_round_trip") for m in (ver, ex)]
    assert run_suite(topic, trials=2, max_size=4, seed=3).ok
    assert any(votes) == (topic == "cutting-equivalence")
    assert any(splits) == (topic == "expansion-counts")


def test_a_planted_rank_recurrence_failure_fails_only_its_topic(monkeypatch):
    import latcut.verify as ver

    monkeypatch.setattr(ver, "check_rank_recurrence",
                        lambda *args: "planted detail")
    results = run_cutting_suite(trials=2, max_size=4, seed=3,
                                exhaustive_max=3)
    rank = results.pop("rank-recurrence")
    assert rank.checks > 0 and len(rank.failures) == rank.checks
    assert "FAIL rank-recurrence: rank recurrence (iso n=" in rank.report()
    assert "\nplanted detail\n" in rank.report()
    assert all(r.ok for r in results.values())


def test_a_q_d_failure_reports_the_details_of_both_checks(monkeypatch):
    import latcut.verify as ver

    monkeypatch.setattr(ver, "check_d_recurrences", lambda *a, **kw: "d=bad")
    qd = run_cutting_suite(trials=1, max_size=3, seed=3,
                           exhaustive_max=2)["q-d-recurrences"]
    assert qd.checks > 0 and len(qd.failures) == qd.checks
    assert "\nd=bad\n" in qd.report()
    # A failing q recurrence does not hide the d detail.
    monkeypatch.setattr(ver, "check_q_recurrence", lambda *a, **kw: "q=bad")
    qd = run_cutting_suite(trials=1, max_size=3, seed=3,
                           exhaustive_max=2)["q-d-recurrences"]
    assert "\nq=bad d=bad\n" in qd.report()
