"""Exhaustive poset catalogs and the seeded random poset stream."""

import hashlib

import oracles
import pytest
from latcut import (CapacityExceeded, Poset, all_labeled_posets,
                    posets_up_to_iso, random_poset, trial_seed)


def test_natural_poset_counts():
    """The oracle scan itself: the naturally labelled orders."""
    assert [len(oracles.natural_posets(n)) for n in range(7)] == [
        1, 1, 2, 7, 40, 357, 4824]


def test_labeled_poset_counts():
    """That many distinct orders, none repeated."""
    for n, count in enumerate([1, 1, 3, 19, 219, 4231, 130023]):
        ups = [p.up for p in all_labeled_posets(n)]
        assert len(set(ups)) == len(ups) == count


def test_labeled_posets_match_the_relabelling_oracle():
    for n in range(6):
        assert ({p.up for p in all_labeled_posets(n)}
                == oracles.labeled_posets(n))


def test_isomorphism_class_counts():
    assert [len(posets_up_to_iso(n)) for n in range(8)] == [1, 1, 2, 5, 16, 63,
                                                            318, 2045]


def test_class_representatives_match_the_canonical_key_oracle():
    """One representative per class: pairwise distinct canonical keys that
    cover every class of the natural oracle scan."""
    for n in range(6):
        labels = [str(i) for i in range(1, n + 1)]
        keys = [oracles.canonical_key(p) for p in posets_up_to_iso(n)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {oracles.canonical_key(Poset(labels, up,
                                                         _trusted=True))
                             for up in oracles.natural_posets(n)}


#: SHA-256 of repr([(labels, up) for each representative]) per level, as
#: the catalog first kept them.  The cutting suites' exhaustive pools and
#: any "smallest failing instance" read these posets, so which poset each
#: class keeps, and in what order, is pinned, not only the class counts.
REPRESENTATIVE_DIGESTS = [
    "d71d7ab5b3c79b4c5463420c402ac353ef626ae527c688d3ed88796c8b810ba2",
    "e9dfc3de7acd56bcf9884f8f533cc309f467f07cbe88051dc0957043ca55d19d",
    "77698a2e1c8f9dedb26dfd812928776e08c164be594c9187f976172201f11ad8",
    "57848f77078cfebb95c6474b970a6cb870877f67bdc465fdebbf02214dd91511",
    "c860f6913222b2cff42be47b2ad71bf2929a81c802a10b13fbd4da7913de2432",
    "30742c9c4b26e9e83766b59e11b2a11ef27c3b2509427f23b5f44ed407746394",
    "174d41d9361bcf21ebc4c69ef4d2b7b27d7b775d64fbe05ef393a2c4f8c2512e",
]


def test_class_representatives_are_pinned():
    for n, digest in enumerate(REPRESENTATIVE_DIGESTS):
        text = repr([(tuple(p.labels), tuple(p.up))
                     for p in posets_up_to_iso(n)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_class_representatives_meet_non_natural_index_orders():
    """The new point of an extension goes last, so the exhaustive layer
    holds posets whose index order is not a linear extension."""
    for n in range(2, 7):
        assert any(p.up[i] & ((2 << i) - 1)
                   for p in posets_up_to_iso(n) for i in range(p.n))


@pytest.mark.parametrize("n", [-1, 8])
def test_exhaustive_layers_refuse_a_size_out_of_range(n):
    for enumerate_ in (all_labeled_posets, posets_up_to_iso):
        with pytest.raises(ValueError):
            enumerate_(n)


def test_labeled_posets_are_distinct_orders():
    batch = all_labeled_posets(3)
    assert len({p.up for p in batch}) == len(batch)
    for p in batch:
        rel = oracles.relation(p)
        for a, b in rel:
            for c, d in rel:
                if b == c:
                    assert (a, d) in rel


def test_random_poset_is_deterministic_and_bounded():
    for seed in range(30):
        p = random_poset(seed, 6)
        q = random_poset(seed, 6)
        assert 1 <= p.n <= 6
        assert p.labels == q.labels and p.up == q.up
        rel = oracles.relation(p)
        assert all((a, d) in rel
                   for a, b in rel for c, d in rel if b == c)
        assert not any((a, a) in rel for a in p.labels)


def test_random_posets_vary_with_the_seed():
    shapes = {random_poset(seed, 6).up for seed in range(40)}
    assert len(shapes) > 10


def test_trial_seed_spreads_trials():
    seeds = {trial_seed(s, t) for s in range(3) for t in range(100)}
    assert len(seeds) == 300


def test_random_poset_matches_the_full_closure_oracle():
    """The skipping closure and the down masks built with the draw give
    the masks that ORing in every relation and transposing give."""
    for n_max in (1, 2, 7, 30, 200):
        for seed in range(300):
            p = random_poset(seed, n_max)
            assert (p.up, p.down) == oracles.random_poset_masks(seed, n_max)


def test_random_poset_refuses_a_draw_past_the_work_bound():
    """n(n - 1)/2 relation draws are allowed up to 2^23, so up to 4096
    elements; the refusal comes after the size is drawn and names it."""
    with pytest.raises(CapacityExceeded, match=r"seed=2000006 draws 14031 "
                       r"elements: 98427465 relation draws, more than 8388608"):
        random_poset(2000006, 16384)


def test_a_cutting_with_no_expansion_fails_the_run_in_one_line(capsys,
                                                               monkeypatch):
    # A candidate that is not a poset, past the transitivity test, means
    # that the growth went wrong: the run exits 1 on one line naming the
    # poset and the interval, and ends in no traceback.
    import latcut.catalog as catalog
    from latcut.cli import cli_run

    real = catalog._candidate_expansion
    monkeypatch.setattr(catalog, "_candidate_expansion", lambda lat, k, label: (
        None if lat.base.n == 2 else real(lat, k, label)))
    assert cli_run(["verify", "binomial"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: verified property failed: cuttings listed "
                   "[11,11] of F(P), which has no expansion, for P with "
                   "elements 1 2 and covers 2<1\n")
