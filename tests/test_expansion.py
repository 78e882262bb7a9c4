"""Cutting intervals, convex expansion, decomposition, sum laws."""

import io
import re
import sys
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

import oracles
from conftest import posets
from latcut import (DistLattice, DuplicateLabel, IntervalRef, NotACutting,
                    Poset, all_labeled_posets, antichain, boundary, chain,
                    crown, cuttings, decompose, disjoint_union, expand_poset,
                    fence, filter_lattice, is_cutting, mask_of, ordinal_sum,
                    parse_poset_file, poset_from_covers, poset_isomorphic,
                    posets_up_to_iso, random_poset, run_cutting_suite,
                    singleton, trial_seed, write_poset_file)
from latcut.cli import cli_run
from latcut.expansion import CUTTING_METHODS, _CRITERIA
from latcut.poset import FILTER_CAP
from latcut.verify import _CUTTING_TOPICS


def z3():
    return poset_from_covers(["a", "b", "c"], [("b", "a"), ("b", "c")])


def z3_lattice():
    return filter_lattice(z3())


# -- boundaries --------------------------------------------------------------------


def test_boundary_of_worked_interval():
    lat = z3_lattice()
    k = lat.interval_by_strings("101", "000")
    b = boundary(lat, k)
    s, s0, s1 = b.labels(lat.base)
    assert set(s) == {"a", "c"} and set(s0) == {"b"} and set(s1) == set()


def test_boundary_of_singleton_interval():
    lat = z3_lattice()
    k = lat.interval_by_strings("101", "101")
    s, s0, s1 = boundary(lat, k).labels(lat.base)
    assert set(s) == set() and set(s0) == {"b"} and set(s1) == {"a", "c"}


def test_boundary_partitions_base():
    lat = z3_lattice()
    for a in range(lat.size):
        for b in range(lat.size):
            if lat.le(a, b):
                bd = boundary(lat, IntervalRef(a, b))
                below = lat.base.down_closure(bd.s0)
                above = lat.base.up_closure(bd.s1)
                assert bd.s | below | above == lat.base.full_mask
                assert bd.s & below == 0 and bd.s & above == 0 and below & above == 0


# -- cutting criteria ----------------------------------------------------------------


def test_four_methods_match_chain_oracle_on_z3():
    lat = z3_lattice()
    for a in range(lat.size):
        for b in range(lat.size):
            if lat.le(a, b):
                assert is_cutting(lat, (a, b)) == \
                    oracles.naive_is_cutting(lat, a, b), (a, b)


def test_worked_examples():
    lat = z3_lattice()
    assert is_cutting(lat, lat.interval_by_strings("101", "000"))
    assert not is_cutting(lat, lat.interval_by_strings("100", "100"))
    # the interval spanning everything is trivially cutting
    assert is_cutting(lat, (lat.bottom, lat.top))


def test_atom_of_square_is_not_cutting():
    # B_2: two incomparable elements; either atom interval misses a chain
    lat = filter_lattice(poset_from_covers(["a", "b"], []))
    atom = lat.element_by_string("10")
    assert not is_cutting(lat, (atom, atom))
    assert oracles.naive_cut_elements(lat) == []


def test_is_cutting_raises_with_every_vote_when_the_criteria_disagree(
        negated_star):
    lat = z3_lattice()
    with pytest.raises(AssertionError) as err:
        is_cutting(lat, lat.interval_by_strings("101", "000"))
    assert str(err.value) == "chains=True union=True order=True star=False"


def test_is_cutting_runs_each_criterion_once_and_the_routes_none(
        monkeypatch, capsys):
    # is_cutting runs each of the four criteria once; the listing of
    # `latcut cutting` and expand_poset run none of them.
    import latcut.expansion as ex

    calls = []

    def counted(name, criterion):
        def run(lat, k):
            calls.append(name)
            return criterion(lat, k)
        return run

    monkeypatch.setattr(ex, "_CRITERIA", tuple(
        (name, counted(name, c)) for name, c in _CRITERIA))
    lat = filter_lattice(fence(5))
    assert is_cutting(lat, (lat.bottom, lat.top))
    assert calls == ["chains", "union", "order", "star"]
    calls.clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_poset_file(fence(5))))
    assert cli_run(["cutting"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == len(cuttings(lat)) > 0
    for k in cuttings(lat):
        expand_poset(lat, k)
    assert calls == []


def test_the_star_criterion_is_the_candidate_test_and_runs_no_search(
        monkeypatch):
    # Whenever the candidate poset exists, its new element's star and the
    # interval's subposet are equal, both S in index order with P's labels,
    # so the star vote is the test that the candidate exists.  It agrees
    # with the vote, and no search runs.  The pool is drawn before
    # counting: posets_up_to_iso itself searches.
    from latcut import expansion as ex, poset

    pool = [filter_lattice(p) for n in range(6) for p in posets_up_to_iso(n)]
    calls = []
    real = poset._backtrack
    monkeypatch.setattr(poset, "_backtrack",
                        lambda *args: calls.append(args) or real(*args))
    intervals = 0
    for lat in pool:
        for a in range(lat.size):
            for b in range(lat.size):
                if lat.le(a, b):
                    k = lat.interval(a, b)
                    cand = ex._candidate_expansion(lat, k, "x")
                    if cand is not None:
                        assert cand.star("x") == lat.base.restrict(
                            lat.filters[a] & ~lat.filters[b])
                    assert is_cutting(lat, k) == (cand is not None)
                    intervals += 1
    assert intervals == 4671 and calls == []


# -- listing cuttings ---------------------------------------------------------------


def scan_cuttings(lat):
    """Every comparable pair, in index order, tested by the four criteria."""
    return [(a, b) for a in range(lat.size) for b in range(lat.size)
            if lat.le(a, b) and is_cutting(lat, (a, b))]


def test_cuttings_match_every_criterion_on_labeled_posets():
    for n in range(5):
        for p in all_labeled_posets(n):
            lat = filter_lattice(p)
            got = cuttings(lat)
            assert got == scan_cuttings(lat), n
            assert len(got) == oracles.naive_cutting_count(p)


@settings(max_examples=50, deadline=None)
@given(posets(max_n=7))
def test_cuttings_match_every_criterion_on_random_posets(p):
    lat = filter_lattice(p)
    assert cuttings(lat) == scan_cuttings(lat)


@settings(max_examples=60, deadline=None)
@given(posets(max_n=7))
def test_cutting_count_matches_the_order_oracle(p):
    assert len(cuttings(filter_lattice(p))) == oracles.naive_cutting_count(p)


_NAMED_POSETS = {
    "fence12": lambda: fence(12), "fence16": lambda: fence(16),
    "crown12": lambda: crown(12), "antichain8": lambda: antichain(8),
    "chain60": lambda: chain(60),
    # Where a group of tops keeps far fewer bottoms than its parent has:
    # the chain-prefix bounds of a chain beside an antichain, the ordinal
    # sums both ways up, and three chains side by side.
    "chain200+antichain6": lambda: disjoint_union(chain(200), antichain(6)),
    "chain60<antichain6": lambda: ordinal_sum(chain(60), antichain(6)),
    "antichain6<chain60": lambda: ordinal_sum(antichain(6), chain(60)),
    "chain30^3": lambda: disjoint_union(disjoint_union(chain(30), chain(30)),
                                        chain(30)),
    "crown16": lambda: crown(16),
}


@pytest.mark.parametrize("name", _NAMED_POSETS)
def test_cuttings_equal_the_per_top_oracle(name):
    lat = filter_lattice(_NAMED_POSETS[name]())
    assert cuttings(lat) == oracles.per_top_cuttings(lat)


def test_cuttings_equal_the_per_top_oracle_on_every_labeled_poset_up_to_5():
    for n in range(6):
        for p in all_labeled_posets(n):
            for q in (p, p.dual()):
                lat = filter_lattice(q)
                assert cuttings(lat) == oracles.per_top_cuttings(lat), (
                    write_poset_file(q))


@settings(max_examples=200, deadline=None)
@given(posets(max_n=10))
def test_cuttings_equal_the_per_top_oracle_on_random_posets(p):
    lat = filter_lattice(p)
    assert cuttings(lat) == oracles.per_top_cuttings(lat)


class _CountingRows(tuple):
    """A tuple that counts the rows read from it by index."""

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def _count_containment_tests(lat):
    """Make ``lat``'s filters count the ANDs taken against their
    complements P - F, which are ``cuttings``' containment tests."""
    count = Counter()

    class Complement(int):
        def __and__(self, other):
            count["tests"] += 1
            return int(self) & other

    class Filter(int):
        def __rxor__(self, other):
            return Complement(other ^ int(self))

    lat.filters = tuple(map(Filter, lat.filters))
    return count


@pytest.mark.parametrize("name", _NAMED_POSETS)
def test_cuttings_reads_each_row_a_bounded_number_of_times(name):
    p = _NAMED_POSETS[name]()
    lat = filter_lattice(p)
    lat.base.down = down = _CountingRows(lat.base.down)
    down.reads = 0
    count = _count_containment_tests(lat)
    listed = cuttings(lat)
    # One down row for each top but the empty filter, the step from the
    # lower bound of T - y to that of T.
    assert down.reads <= lat.size - 1
    # Each group of tops with one lower bound tests its parent group's
    # bottoms.  Only the groups of the singleton tops {y}, y maximal, have
    # the empty top's group, all of L, as parent: at most |max P| * |L|
    # tests.  Any other group was first met at a top T with T - y among its
    # parent's tops, so its tests charge to (bottom, T - y, y), a cutting of
    # the parent's and one of n elements: at most n * #cuttings.
    # And some maximal y's group tests all of L, so the count is not empty.
    maximal = p.max_of(p.full_mask).bit_count()
    assert lat.size <= count["tests"] <= maximal * lat.size + p.n * len(listed)
    if name == "chain200+antichain6":
        # The empty top's two child groups, {top of the chain} and the
        # antichain's singletons, test all of L each.  Every chain-prefix
        # group tests its parent's bottoms, one more than its own.  A flat
        # scan of every index up to u per group makes 1,248,240 tests here.
        assert count["tests"] <= 2 * lat.size + len(listed)


def _most_bottom_lists_held(lat):
    """``cuttings(lat)`` and the most entries its ``bottoms`` dict held at
    once, read at each line it runs."""
    most = [0]

    def line(frame, event, arg):
        held = frame.f_locals.get("bottoms")
        if held is not None:
            most[0] = max(most[0], len(held))
        return line

    def call(frame, event, arg):
        return line if frame.f_code is cuttings.__code__ else None

    old = sys.gettrace()
    sys.settrace(call)
    try:
        listed = cuttings(lat)
    finally:
        sys.settrace(old)
    return listed, most[0]


@pytest.mark.parametrize("name, want", [
    # A chain's groups form one path, each the only child of the one
    # before, so a parent's list goes as soon as its child has filtered it:
    # one list at a time.  Keeping every list until the listing ends held
    # one per group, in this order 61, 201, 62, 62, 89, 2, 12, 16, 14, 18.
    ("chain60", 1), ("chain200+antichain6", 1), ("chain60<antichain6", 1),
    ("antichain6<chain60", 1), ("chain30^3", 4), ("antichain8", 1),
    ("fence12", 5), ("fence16", 7), ("crown12", 6), ("crown16", 8),
])
def test_cuttings_drops_a_bottom_list_after_its_last_child(name, want):
    lat = filter_lattice(_NAMED_POSETS[name]())
    listed, most = _most_bottom_lists_held(lat)
    assert listed == oracles.per_top_cuttings(lat)
    assert most == want


def listing_by_interval_test(lat):
    """What `latcut cutting` printed before it listed cuttings in poset
    space: every pair a <= b by the containment masks, in index order,
    kept when the chain criterion holds."""
    above = lat.above_masks()
    return "".join("%s %s\n" % (lat.bitstring(a), lat.bitstring(b))
                   for a in range(lat.size) for b in range(lat.size)
                   if above[a] >> b & 1 and is_cutting(lat, (a, b)))


@pytest.mark.parametrize("p", [crown(6), fence(5), antichain(3)],
                         ids=["crown6", "fence5", "antichain3"])
def test_cli_cutting_listing_matches_the_interval_test(p, capsys, monkeypatch):
    text = write_poset_file(p)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli_run(["cutting"]) == 0
    out = capsys.readouterr().out
    assert out == listing_by_interval_test(filter_lattice(parse_poset_file(text)))


# -- expansion ----------------------------------------------------------------------


def test_expand_worked_example():
    lat = z3_lattice()
    k = lat.interval_by_strings("101", "000")
    exp = expand_poset(lat, k)
    assert exp.lattice.size == 9 == lat.size + 4
    assert exp.new_element in exp.poset.labels
    big = exp.lattice
    assert sorted(big.bitstring(a) for a in big.interval_elements(
        exp.source_interval)) == ["0000", "0010", "1000", "1010"]
    assert sorted(big.bitstring(a) for a in big.interval_elements(
        exp.copy_interval)) == ["0001", "0011", "1001", "1011"]
    # the new element sits above b, the lone element outside the old bottom
    assert oracles.relation(exp.poset) >= {("b", exp.new_element)}


def test_expand_rejects_non_cutting():
    lat = z3_lattice()
    with pytest.raises(NotACutting):
        expand_poset(lat, lat.interval_by_strings("100", "100"))


def test_expand_refuses_a_label_the_poset_has():
    lat = filter_lattice(fence(3))
    k = lat.interval_by_strings("101", "000")
    with pytest.raises(DuplicateLabel, match="^label '2' declared twice$"):
        expand_poset(lat, k, label="2")
    assert expand_poset(lat, k, label="4").poset.labels[-1] == "4"


def test_copy_interval_is_always_cutting():
    lat = z3_lattice()
    for a in range(lat.size):
        for b in range(lat.size):
            if lat.le(a, b) and is_cutting(lat, (a, b)):
                exp = expand_poset(lat, (a, b))
                assert is_cutting(exp.lattice, exp.copy_interval)


def test_singleton_interval_expansion_inserts_mid_element():
    # expanding a 2-chain lattice at its middle element gives the 3-chain
    lat = filter_lattice(singleton("a"))
    assert lat.size == 2
    exp = expand_poset(lat, (1, 1))
    assert exp.lattice.size == 3
    assert len(oracles.naive_maximal_chains(exp.lattice)) == 1


def test_expand_cap_refusal_is_exact(capsys, monkeypatch):
    # F(z3) has 5 elements and the cutting [101, 000] has 4, so the
    # expansion has exactly 9; antichain(3) expanded at the whole lattice is
    # antichain(4), whose 4 minimal elements alone force 16 filters.  The
    # messages are those of a walk over the enlarged poset.
    for text, bottom, top, size, refusal in [
            (write_poset_file(z3()), "101", "000", 9,
             "error: more than 8 filters\n"),
            (write_poset_file(antichain(3)), "111", "000", 16,
             "error: an antichain of 4 elements forces more than 15 "
             "filters\n")]:
        argv = ["expand", "--bottom", bottom, "--top", top, "--cap"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli_run(argv + [str(size)]) == 0
        assert capsys.readouterr().out.startswith("element ")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli_run(argv + [str(size - 1)]) == 2
        assert capsys.readouterr() == ("", refusal)


# -- expansion against the from-scratch build ----------------------------------------


# The parts of a lattice that the rebuild compares, in order.
_PARTS = {
    "filters": lambda lat: lat.filters,
    "minima": lambda lat: lat.minima,
    "heights": lambda lat: [lat.base.n - f.bit_count() for f in lat.filters],
    "up_covers": lambda lat: lat.up_covers,
    "down_covers": oracles.down_covers,
}


def rebuild_mismatch(exp):
    """The first part of the expanded lattice that differs from
    filter_lattice(exp.poset), a walk over the enlarged poset; None when
    they agree."""
    want = filter_lattice(exp.poset)
    for name, part in _PARTS.items():
        if part(exp.lattice) != part(want):
            return name
    return None


def test_expansion_matches_the_rebuild_on_every_labeled_poset_up_to_5():
    expansions = 0
    for n in range(6):
        for p in all_labeled_posets(n):
            lat = filter_lattice(p)
            xbit = 1 << n
            for k in cuttings(lat):
                exp = expand_poset(lat, k)
                assert rebuild_mismatch(exp) is None, (write_poset_file(p), k)
                big = exp.lattice.filters
                src, copy = exp.source_interval, exp.copy_interval
                assert (big[src.bottom], big[src.top]) == (
                    lat.filters[k[0]], lat.filters[k[1]])
                assert (big[copy.bottom], big[copy.top]) == (
                    lat.filters[k[0]] | xbit, lat.filters[k[1]] | xbit)
                expansions += 1
    # Each labeled poset on m + 1 <= 6 elements is exactly one expansion of
    # one on m, with the new element last: all 1 + 3 + 19 + 219 + 4231 +
    # 130023 of them are checked.
    assert expansions == 134496


def plant_dropped_new_element(monkeypatch):
    """A builder bug: expansion leaves the new element, the last of the
    enlarged poset, out of every set of minima it derives."""
    import latcut.expansion as ex

    real = ex.DistLattice

    def build(base, pairs):
        xbit = 1 << base.n - 1
        return real(base, [(f, a & ~xbit) for f, a in pairs])

    monkeypatch.setattr(ex, "DistLattice", build)


def test_planted_builder_bug_is_caught(capsys, monkeypatch):
    plant_dropped_new_element(monkeypatch)
    lat = z3_lattice()
    exp = expand_poset(lat, lat.interval_by_strings("101", "000"))
    assert rebuild_mismatch(exp) == "minima"
    assert not decompose(exp.poset, exp.new_element).counts_ok
    # decompose at each element of the zigzag, the last one and the others.
    assert not any(decompose(z3(), x).counts_ok for x in z3().labels)
    assert cli_run(["verify", "expansion-counts", "--trials", "0",
                    "--max-size", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("suite expansion-counts: 17 checks, 17 FAILURES")
    assert "FAIL expansion-counts: expansion size or decomposition round " \
           "trip" in out
    # The q census of each wrong lattice disagrees with the recurrence on
    # its base, which fails the q checks without stopping the pass.
    assert cli_run(["verify", "q-d-recurrences", "--trials", "0",
                    "--max-size", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("suite q-d-recurrences: 17 checks, 17 FAILURES")
    assert "recurrence [2, 1] disagrees with census [2]" in out



def plant_dropped_last_pair(monkeypatch):
    """A builder bug that raises: expansion builds its lattice from every
    (F, min F) pair but the last, so a filter it then looks up is missing."""
    import latcut.expansion as ex

    real = ex.DistLattice
    monkeypatch.setattr(ex, "DistLattice",
                        lambda base, pairs: real(base, pairs[:-1]))


def plant_compress_off_by_one(monkeypatch):
    """x's interval in P - x, with bit i kept where it should move down, so
    the derived interval need not be a cutting, nor even two filters."""
    import latcut.expansion as ex

    def compress(p, i):
        low = (1 << i + 1) - 1
        return tuple(m & low | m >> 1 & ~low
                     for m in (p.full_mask & ~(1 << i) & ~p.down[i], p.up[i]))

    monkeypatch.setattr(ex, "_x_interval", compress)


def plant_raising_cuttings(monkeypatch):
    """The cutting pass's ``cuttings`` looks up a set that is no filter of
    the lattice, as under a closure that misses part of an up-set."""
    import latcut.verify as ver

    monkeypatch.setattr(ver, "cuttings", lambda lat: [lat.index_of[-1]])


def plant_raising_d_vectors(monkeypatch):
    """The random suite's own ``d_vectors`` call looks up a set that is no
    filter; the binomial row's call is left alone."""
    import latcut.verify as ver

    monkeypatch.setattr(ver, "d_vectors", lambda lat: lat.index_of[-1])


@pytest.mark.parametrize("plant,argv,head,raised", [
    (plant_dropped_last_pair,
     ["verify", "expansion-counts", "--trials", "0", "--max-size", "2"],
     "suite expansion-counts: 17 checks, 17 FAILURES",
     "raised KeyError: "),
    (plant_compress_off_by_one, ["verify", "fibonacci"],
     "suite fibonacci: 120 checks, ", "raised NotACutting: "),
    (plant_raising_cuttings,
     ["verify", "cutting-equivalence", "--trials", "0", "--max-size", "2"],
     "suite cutting-equivalence: 4 checks, 4 FAILURES",
     "raised KeyError: -1"),
    (plant_raising_d_vectors, ["verify", "random", "--trials", "3"],
     "suite random: 3 checks, 3 FAILURES", "raised KeyError: -1"),
], ids=["dropped-pair", "compress", "cuttings", "d-vectors"])
def test_a_check_that_raises_is_a_failing_instance(plant, argv, head, raised,
                                                   capsys, monkeypatch):
    """A fault that makes a check raise fails that poset with ``raised
    <type>: <message>``, the suite goes on, and the run exits 1 with
    nothing on stderr."""
    plant(monkeypatch)
    assert cli_run(argv) == 1
    out, err = capsys.readouterr()
    assert out.startswith(head) and "FAILURES" in out.splitlines()[0]
    assert "\nFAIL %s: " % argv[1] in out and raised in out
    assert err == ""


@pytest.mark.parametrize("topic", _CUTTING_TOPICS)
def test_a_cuttings_that_raises_fails_each_poset_in_every_topic(
        topic, capsys, monkeypatch):
    # The iso classes of at most 2 elements and 3 random posets: 7 posets,
    # each failed once, and the pass goes on to the end.
    plant_raising_cuttings(monkeypatch)
    assert cli_run(["verify", topic, "--trials", "3", "--max-size", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("suite %s: 7 checks, 7 FAILURES (seed=1)\n" % topic)
    assert ("FAIL %s: cuttings() failed (iso n=0)\nraised KeyError: -1\n"
            % topic) in out
    assert err == ""

# -- decomposition ------------------------------------------------------------------


def test_decompose_fence5_worked():
    p = poset_from_covers([str(i) for i in range(1, 6)],
                          [("2", "1"), ("2", "3"), ("4", "3"), ("4", "5")])
    dec = decompose(p, "4")
    assert dec.size == 13
    host = dec.expansion.host
    assert host.size == 10
    assert len(host.interval_elements(dec.expansion.interval)) == 3
    assert dec.counts_ok and dec.expansion_iso_ok


def test_decompose_every_element_of_z3():
    p = z3()
    for x in p.labels:
        dec = decompose(p, x)
        assert dec.counts_ok and dec.expansion_iso_ok
        assert poset_isomorphic(dec.expansion.host.base, p.minus(x))
        assert poset_isomorphic(dec.star, p.star(x))


@settings(max_examples=60, deadline=None)
@given(posets(max_n=6))
def test_the_round_trip_relabels_the_expansion_at_every_element(p):
    # decompose puts x last in the expansion; the round trip moves it back
    # to P's index i, which is the identity only when i is P's last index.
    walked = dict(p.filters_with_minima())
    for x in p.labels:
        dec = decompose(p, x)
        assert dec.counts_ok and dec.expansion_iso_ok, x
        assert dec.size == len(walked)


@settings(max_examples=60, deadline=None)
@given(posets(max_n=6))
def test_the_exact_round_trip_checks_agree_with_the_searches(p):
    # The round trip compares through its known map; a search for any map
    # must give the same two answers, and product_form must put P beside x.
    for x in p.labels:
        dec = decompose(p, x)
        minus = p.minus(x)
        assert (dec.expansion_iso_ok, dec.product_form) == (
            poset_isomorphic(dec.expansion.poset, p),
            poset_isomorphic(minus, p.star(x))), x
        assert not dec.product_form or poset_isomorphic(
            p, disjoint_union(minus, singleton(x))), x


def test_decompose_product_form():
    p = poset_from_covers(["a", "b", "c"], [])
    dec = decompose(p, "b")
    assert dec.product_form
    q = z3()
    assert not decompose(q, "b").product_form


def test_the_round_trip_reads_equal_inputs_off_the_expansion():
    # The cutting pass checks the round trip on the expansion it holds,
    # reading F(P' - x) and F(P' * x) as its L and K.  That is lossless
    # because P' - x is L's base and P' * x is K's, labels and up masks
    # alike, and decompose derives the cutting the pass expanded at.
    pool = [p for n in range(6) for p in posets_up_to_iso(n)]
    pool += [random_poset(trial_seed(1, t), 7) for t in range(10)]
    seen = 0
    for p in pool:
        lat = filter_lattice(p)
        for k in cuttings(lat):
            exp = expand_poset(lat, k)
            x = exp.new_element
            assert exp.poset.minus(x) == lat.base
            assert exp.poset.star(x) == exp.interval_lattice.base
            dec = decompose(exp.poset, x)
            assert dec.expansion.host.filters == lat.filters
            assert dec.expansion.interval == exp.interval
            assert dec.counts_ok and dec.expansion_iso_ok
            seen += 1
    assert seen > 1000


def test_expand_poset_validates_its_interval_once(monkeypatch):
    lat = z3_lattice()
    k = lat.interval_by_strings("101", "000")
    real = DistLattice.interval
    calls = []

    def counting(self, bottom, top):
        calls.append((self, bottom, top))
        return real(self, bottom, top)

    monkeypatch.setattr(DistLattice, "interval", counting)
    exp = expand_poset(lat, k)
    assert calls == [(lat, k.bottom, k.top)]
    # The two intervals it derives are built directly, and they are valid.
    big = exp.lattice
    for ref in (exp.source_interval, exp.copy_interval):
        assert isinstance(ref, IntervalRef) and real(big, *ref) == ref
    assert big.between(*exp.source_interval) == [2, 5, 6, 8]
    assert big.between(*exp.copy_interval) == [1, 3, 4, 7]


@pytest.mark.parametrize("method", CUTTING_METHODS)
def test_is_cutting_validates_its_interval_once(method, monkeypatch):
    # Each criterion takes the interval is_cutting has validated and does
    # not validate it again (the order criterion's boundary included).
    import latcut.expansion as ex

    lat = z3_lattice()
    k = lat.interval_by_strings("101", "000")
    real = DistLattice.interval
    calls = []
    seen = []

    def counting(self, bottom, top):
        calls.append((bottom, top))
        return real(self, bottom, top)

    def watched(name, criterion):
        if name != method:
            return name, criterion

        def run(lat_, k_):
            before = len(calls)
            vote = criterion(lat_, k_)
            seen.append((k_, len(calls) - before))
            return vote
        return name, run

    monkeypatch.setattr(ex, "_CRITERIA",
                        tuple(watched(*row) for row in _CRITERIA))
    monkeypatch.setattr(DistLattice, "interval", counting)
    assert is_cutting(lat, k)
    assert calls == [(k.bottom, k.top)]
    assert seen == [(k, 0)]


def test_the_cutting_pass_validates_each_interval_a_bounded_number_of_times(
        monkeypatch):
    # The vote's is_cutting validates each interval once.
    # Each cutting is validated by expand_poset, by interval_lattice and by
    # the d check's second expansion; the round trip and the recurrence
    # checks take the expansion and validate nothing.
    real = DistLattice.interval
    calls = []

    def counting(self, bottom, top):
        calls.append((bottom, top))
        return real(self, bottom, top)

    monkeypatch.setattr(DistLattice, "interval", counting)
    results = run_cutting_suite(trials=2, max_size=5, seed=3,
                                exhaustive_max=3)
    assert all(r.ok for r in results.values())
    intervals, cuttings_ = (int(x) for x in re.search(
        r"intervals=(\d+), cuttings=(\d+)",
        results["cutting-equivalence"].lines[0]).groups())
    assert cuttings_ > 0
    assert len(calls) <= intervals + 3 * cuttings_


@pytest.mark.parametrize("topics,per_cutting", [
    (_CUTTING_TOPICS, 1), (("expansion-counts",), 1), (("q-d-recurrences",), 1),
    (("rank-recurrence",), 0), (("cutting-equivalence",), 0),
    (("binomial",), 0), (("euler",), 0), (("degree-symmetry",), 0),
], ids=["all", "expansion-counts", "q-d-recurrences", "rank-recurrence",
        "cutting-equivalence", "binomial", "euler", "degree-symmetry"])
def test_the_cutting_pass_builds_each_cuttings_lattice_once_if_read(
        topics, per_cutting, monkeypatch):
    # K's lattice is built on the expansion's first read of it, by the
    # expansion-counts or the q-d-recurrences row, and kept for the other.
    real = DistLattice.interval_lattice
    calls = []

    def counting(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(DistLattice, "interval_lattice", counting)
    results = run_cutting_suite(trials=2, max_size=7, seed=1,
                                exhaustive_max=4, topics=topics)
    assert all(r.ok for r in results.values())
    cuttings_ = int(re.search(r"cuttings=(\d+)",
                              results[topics[0]].lines[0]).group(1))
    assert cuttings_ > 0
    assert len(calls) == per_cutting * cuttings_


# -- growing chains of expansions ----------------------------------------------------


def expand_chain_steps(base, additions, cap=FILTER_CAP):
    """Grow a poset one element at a time, yielding the lattice after each
    step.  ``additions`` is a sequence of (label, lower_labels, upper_labels):
    the new element covers each of ``lower_labels`` and is covered by each of
    ``upper_labels``.  Each step is performed as a convex expansion of the
    previous lattice and cross-checked against the rebuilt poset."""
    p = base
    lat = filter_lattice(p, cap=cap)
    yield p, lat
    for label, lowers, uppers in additions:
        labels = list(p.labels) + [label]
        covers = p.cover_pairs()
        covers += [(lo, label) for lo in lowers]
        covers += [(label, hi) for hi in uppers]
        grown = poset_from_covers(labels, covers)
        i = grown.idx(label)
        bf = p.full_mask & ~grown.down[i]
        tf = grown.up[i]
        exp = expand_poset(lat, IntervalRef(lat.index_of[bf], lat.index_of[tf]),
                           label=label, cap=cap)
        if exp.poset != grown:
            raise AssertionError("expansion step does not match the rebuilt poset")
        p, lat = grown, exp.lattice
        yield p, lat


def test_expand_chain_rebuilds_z3():
    steps = [("b", [], []),
             ("a", ["b"], []),
             ("c", ["b"], [])]
    sizes = []
    final = final_lat = None
    for p, lat in expand_chain_steps(poset_from_covers([], []), steps):
        sizes.append(lat.size)
        final, final_lat = p, lat
    assert sizes == [1, 2, 3, 5]
    assert poset_isomorphic(final, z3())
    assert final_lat.size == 5


# -- sum laws -----------------------------------------------------------------------


def _pair_product_poset(l1, l2):
    """The componentwise-order product of two lattices, as a poset on
    index pairs."""
    labels = []
    up = []
    n2 = l2.size
    for a in range(l1.size):
        for b in range(l2.size):
            labels.append("%d,%d" % (a, b))
            m = 0
            for c in range(l1.size):
                if not l1.le(a, c):
                    continue
                for d in range(l2.size):
                    if l2.le(b, d) and (a != c or b != d):
                        m |= 1 << (c * n2 + d)
            up.append(m)
    return Poset(labels, up, _trusted=True)


def _vertical_sum_poset(l1, l2):
    """Stack l2 on top of l1, identifying top(l1) with bottom(l2)."""
    items = [("p", a) for a in range(l1.size)]
    items += [("q", b) for b in range(1, l2.size)]
    pos = {it: t for t, it in enumerate(items)}
    up = []
    for side, a in items:
        m = 0
        for side2, b in items:
            if (side, a) == (side2, b):
                continue
            if side == side2:
                le = l1.le(a, b) if side == "p" else l2.le(a, b)
            else:
                le = side == "p"
            if le:
                m |= 1 << pos[(side2, b)]
        up.append(m)
    return Poset(["%s%d" % it for it in items], up, _trusted=True)


def lattice_as_poset(lat):
    """The lattice order as a plain poset, labelled by filter bitstrings."""
    up = [mask_of(lat.between(a, lat.top)) & ~(1 << a) for a in range(lat.size)]
    return Poset([lat.bitstring(a) for a in range(lat.size)], up, _trusted=True)


@dataclass(frozen=True)
class SumLawsReport:
    disjoint_product_ok: bool   # F(P + Q side by side) is the direct product
    vertical_sum_ok: bool       # F(P over Q stacked) is the vertical sum
    top_adjoined_ok: bool       # F(P + new global top) adds a new lattice top
    bottom_adjoined_ok: bool    # F(new global bottom + P) adds a new lattice bottom

    @property
    def ok(self):
        return (self.disjoint_product_ok and self.vertical_sum_ok
                and self.top_adjoined_ok and self.bottom_adjoined_ok)


def sum_laws(p, q, cap=FILTER_CAP):
    """Check the four sum laws for a pair of posets by explicit construction
    on both sides of each isomorphism (desk scale)."""
    lp = filter_lattice(p, cap=cap)
    lq = filter_lattice(q, cap=cap)

    du = filter_lattice(disjoint_union(p, q), cap=cap)
    product = _pair_product_poset(lp, lq)
    disjoint_ok = (du.size == lp.size * lq.size
                   and poset_isomorphic(lattice_as_poset(du), product))

    vs = filter_lattice(ordinal_sum(p, q), cap=cap)
    stacked = _vertical_sum_poset(lp, lq)
    vertical_ok = (vs.size == lp.size + lq.size - 1
                   and poset_isomorphic(lattice_as_poset(vs), stacked))

    one = singleton("adjoined")
    ptop = filter_lattice(ordinal_sum(p, one), cap=cap)
    top_ok = poset_isomorphic(
        lattice_as_poset(ptop),
        _vertical_sum_poset(lp, filter_lattice(one)))
    pbot = filter_lattice(ordinal_sum(one, p), cap=cap)
    bottom_ok = poset_isomorphic(
        lattice_as_poset(pbot),
        _vertical_sum_poset(filter_lattice(one), lp))

    return SumLawsReport(disjoint_product_ok=disjoint_ok,
                         vertical_sum_ok=vertical_ok,
                         top_adjoined_ok=top_ok,
                         bottom_adjoined_ok=bottom_ok)


@pytest.mark.parametrize("covers_p,covers_q", [
    ([("b", "a"), ("b", "c")], [("x", "y")]),
    ([], [("x", "y"), ("y", "z")]),
    ([("a", "b")], []),
])
def test_sum_laws(covers_p, covers_q):
    labs_p = sorted({l for c in covers_p for l in c}) or ["a"]
    labs_q = sorted({l for c in covers_q for l in c}) or ["x"]
    p = poset_from_covers(labs_p, covers_p)
    q = poset_from_covers(labs_q, covers_q)
    rep = sum_laws(p, q)
    assert rep.ok, rep


def test_lattice_as_poset_roundtrip():
    lat = z3_lattice()
    p = lattice_as_poset(lat)
    assert p.n == lat.size
    assert len(p.cover_pairs()) == len(lat.covering_graph())


# -- properties ---------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(posets(max_n=4))
def test_methods_agree_everywhere(p):
    lat = filter_lattice(p)
    for a in range(lat.size):
        for b in range(lat.size):
            if lat.le(a, b):
                # Raises AssertionError when the four criteria disagree.
                is_cutting(lat, (a, b))


@settings(max_examples=30, deadline=None)
@given(posets(max_n=4))
def test_expansion_size_law(p):
    lat = filter_lattice(p)
    for a in range(lat.size):
        for b in range(lat.size):
            if lat.le(a, b) and is_cutting(lat, (a, b)):
                exp = expand_poset(lat, (a, b))
                assert exp.lattice.size == \
                    lat.size + len(lat.interval_elements((a, b)))
