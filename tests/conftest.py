import random

import pytest
from hypothesis import strategies as st

import latcut.expansion
import latcut.poset
from latcut import Poset

_ACCEPTANCE_LINES = []


def record_criterion(line):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@st.composite
def posets(draw, max_n=6):
    """Random poset via upper-triangle relation bits plus transitive closure,
    then a drawn permutation of the element indices.

    Keeping the relation upper-triangular guarantees acyclicity; closure is
    done here so the strategy never depends on the package's own closure.
    The permutation lets every test fed by this strategy also see index
    orders that are not bottom-up.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    up = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                up[i] |= 1 << j
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    perm = draw(st.permutations(range(n)))
    moved = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                moved[perm[i]] |= 1 << perm[j]
    return Poset([str(i + 1) for i in range(n)], tuple(moved), _trusted=True)


def shuffled_relabeling(p, seed):
    """The same abstract poset with permuted element indices and fresh labels."""
    rng = random.Random(seed)
    perm = list(range(p.n))
    rng.shuffle(perm)
    up = [0] * p.n
    labels = [None] * p.n
    for i in range(p.n):
        labels[perm[i]] = "r%d" % i
        for j in range(p.n):
            if p.up[i] >> j & 1:
                up[perm[i]] |= 1 << perm[j]
    return Poset(labels, tuple(up), _trusted=True), perm


@pytest.fixture
def negated_star(monkeypatch):
    """Plant a cutting-criterion disagreement: the star criterion, negated,
    in the table of criteria that ``is_cutting`` runs."""
    monkeypatch.setattr(latcut.expansion, "_CRITERIA", tuple(
        (name, (lambda lat, k, c=c: not c(lat, k)) if name == "star" else c)
        for name, c in latcut.expansion._CRITERIA))


@pytest.fixture
def placement_passes(monkeypatch):
    """A one-element list counting the passes of the isomorphism
    backtrack's loop.  Each pass reads the placement order once and places
    one vertex, but the pass that ends a search with no map places none."""
    reads, order = [0], latcut.poset._placement_order

    class Counted(list):
        def __getitem__(self, d):
            reads[0] += 1
            return list.__getitem__(self, d)

    monkeypatch.setattr(latcut.poset, "_placement_order",
                        lambda *args: Counted(order(*args)))
    return reads
