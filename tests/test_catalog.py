"""Exhaustive poset catalogs and the seeded random poset stream."""

import oracles
from latcut import (Poset, all_labeled_posets, natural_posets,
                    posets_up_to_iso, random_poset, trial_seed)


def test_natural_poset_counts():
    assert [len(natural_posets(n)) for n in range(7)] == [1, 1, 2, 7, 40, 357,
                                                          4824]


def test_labeled_poset_counts():
    assert [len(all_labeled_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219,
                                                              4231]


def test_isomorphism_class_counts():
    assert [len(posets_up_to_iso(n)) for n in range(7)] == [1, 1, 2, 5, 16, 63,
                                                            318]


def test_class_representatives_match_the_canonical_key_oracle():
    """The same representatives, poset for poset: the first natural poset
    of each class."""
    for n in range(6):
        labels = [str(i) for i in range(1, n + 1)]
        natural = [Poset(labels, up, _trusted=True) for up in natural_posets(n)]
        assert ([p.up for p in posets_up_to_iso(n)]
                == [p.up for p in oracles.classes_by_key(natural)])


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
