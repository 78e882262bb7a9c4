"""The four workloads: seeded inputs, how each item runs, and its oracle.

An item is one request.  A workload is a list of items (one pass); a run
repeats the pass.  Inputs depend only on the workload seed, and latcut only
ever receives generated poset text or plain arguments.  Every item carries
its census: n (elements), size (|F|, or the sum over a suite's pool) and the
exit code a correct ``latcut`` would give.

Why these four (each stresses different layers):

stats-large   ``latcut stats`` on lattices of 10^4 to 3.3*10^4 filters:
              filter enumeration on both sides of the n = 18 switch between
              the 2^n scan and the antichain DFS, DistLattice construction
              and the q census.  The q interval scan is always skipped at
              this size and expansion never runs.  Two items in sixteen are
              over the cap and must end in exit 2.
cutting-pass  the verify cutting suite on many lattices of under 100
              elements: per-call overhead, the four cutting criteria,
              expansion by rebuild, decompose, the recurrence checks and
              poset isomorphism.
families      Fibonacci and Lucas decompositions and cube-graph checks on
              lattices of up to 2.2*10^3 elements, where the q interval scan
              does run, decompose rebuilds F(P) three times and networkx
              checks isomorphism.
cli-cutting   ``latcut cutting`` listing every cutting of a lattice of 150 to
              377 elements: above_masks and the per-interval chain test over
              all comparable pairs, and the largest text output.

Sizes are bounded by construction so that one pass stays within a few
seconds (posets drawn at random without a bound took from 0.8 to 29 s per
stats query), and seeded composites are drawn to a fixed cost so that the
figures do not depend on the seed.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import oracles as O

# Whole passes over the item list per 20 s of --seconds.  Every run of a
# workload times the same items the same number of times, whatever the
# speed of the machine; on the 2-vCPU VM the benchmark was built on, one run
# measures 15 to 30 s.  Four passes put the tail of stats-large and
# cli-cutting on a fixed item rather than on the edge of a block.
PASSES_PER_20_S = {
    "stats-large": 4,
    "cutting-pass": 3,
    "families": 7,
    "cli-cutting": 4,
}

WORKLOADS = tuple(PASSES_PER_20_S)

# The one documented defect the benchmark expects: a poset wider than the
# recursion limit makes the recursive antichain DFS raise RecursionError
# where CapacityExceeded (exit 2) is due.  It counts as failed, never as
# incorrect.
KNOWN_DEFECT = "RecursionError"

# The CLI's default --cap on the number of filters.
DEFAULT_CAP = 1 << 20


@dataclass
class Item:
    label: str
    n: int
    size: int
    rc: int
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    known_defect: str | None = None
    detail: dict = field(default_factory=dict)

    def census(self):
        row = {"item": self.label, "n": self.n, "size": self.size,
               "rc": self.rc}
        if self.known_defect:
            row["known_defect"] = self.known_defect
        row.update(self.detail)
        return row


@dataclass
class Workload:
    items: list      # one pass
    warmup: Item     # run once in set-up, never timed


def _mod(name):
    """A latcut submodule, looked up at call time so that wrappers the
    traced run installs are the ones called."""
    return sys.modules["latcut." + name]


# -- poset text ---------------------------------------------------------------


def poset_text(order, rng):
    """The poset file for ``order`` with its elements declared in a random
    order under random labels."""
    perm = list(range(order.n))
    rng.shuffle(perm)
    p = order.permuted(perm)
    labels = ["v%d" % x for x in rng.sample(range(10 * max(p.n, 1)), p.n)]
    lines = ["element " + " ".join(labels)] if p.n else []
    covers = ["cover %s %s" % (labels[i], labels[j]) for i, j in p.covers()]
    rng.shuffle(covers)
    return "".join(line + "\n" for line in lines + covers)


def _cli(argv, text):
    """One in-process ``latcut`` call: (exit code, stdout)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
    try:
        rc = _mod("cli").cli_run(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue()


# -- composites ---------------------------------------------------------------


@dataclass
class Piece:
    order: O.Order
    count: int       # |F|, from a closed form, a sum rule or a subset scan
    intervals: int   # intervals of F, the same way (0 when not asked for)
    recipe: str


def _piece(rng, k_max, intervals):
    def _leaf(order, count, recipe):
        iv = O.interval_and_cutting_counts(order)[0] if intervals else 0
        return Piece(order, count, iv, recipe)

    kind = rng.choice(("fence", "crown", "chain", "antichain", "random"))
    if kind == "fence":
        k = rng.randint(2, k_max)
        return _leaf(O.fence(k), O.fib(k + 2), "fence%d" % k)
    if kind == "crown":
        k = 2 * rng.randint(2, k_max // 2)
        return _leaf(O.crown(k), O.lucas(k), "crown%d" % k)
    if kind == "chain":
        k = rng.randint(1, k_max - 2)
        return _leaf(O.chain(k), k + 1, "chain%d" % k)
    if kind == "antichain":
        k = rng.randint(1, k_max - 2)
        return _leaf(O.antichain(k), 1 << k, "antichain%d" % k)
    seed = rng.randrange(1 << 30)
    order = O.Order(_mod("catalog").random_poset(seed, k_max).up)
    return _leaf(order, len(O.filters_by_scan(order)), "random%d" % seed)


def composite(rng, lo, hi, n_lo, n_hi, k_max, accept=None, intervals=False):
    """Disjoint unions and ordinal sums of small pieces until |F| lies in
    [lo, hi], n in [n_lo, n_hi] and ``accept`` (if given) holds.  Interval
    counts are tracked only when ``intervals`` is set.

    F of a disjoint union is the product lattice, so sizes and interval
    counts multiply.  F of an ordinal sum stacks the two lattices with one
    element shared: sizes add less one, and intervals add less one plus the
    pairs that run from one part to the other.
    """
    while True:
        acc = _piece(rng, k_max, intervals)
        while acc.count < lo and acc.order.n < n_hi:
            b = _piece(rng, k_max, intervals)
            if rng.random() < 0.7:
                acc = Piece(O.union(acc.order, b.order), acc.count * b.count,
                            acc.intervals * b.intervals,
                            "(%s | %s)" % (acc.recipe, b.recipe))
            else:
                if rng.random() < 0.5:
                    acc, b = b, acc
                acc = Piece(O.ordinal_sum(acc.order, b.order),
                            acc.count + b.count - 1,
                            acc.intervals + b.intervals - 1
                            + (acc.count - 1) * (b.count - 1),
                            "(%s / %s)" % (acc.recipe, b.recipe))
        if lo <= acc.count <= hi and n_lo <= acc.order.n <= n_hi \
                and (accept is None or accept(acc)):
            return acc


# -- stats-large --------------------------------------------------------------


def _stats_item(label, order, size, rng, cap=None, known=None):
    text = poset_text(order, rng)
    argv = ["stats"] + (["--cap", str(cap)] if cap is not None else [])
    rc = 2 if size > (DEFAULT_CAP if cap is None else cap) else 0

    def check(outcome):
        got_rc, out = outcome
        if got_rc != rc:
            return "exit %r, want %d" % (got_rc, rc)
        if rc:
            return None if out == "" else "output on a refused query"
        return O.check_stats(json.loads(out), order.n, size)

    detail = {"cap": cap} if cap is not None else {}
    return Item(label, order.n, size, rc, lambda: _cli(argv, text), check,
                known_defect=known, detail=detail)


def stats_large(seed):
    rng = random.Random("stats-large:%d" % seed)
    items = []
    for k in (19, 20):
        items.append(_stats_item("fence(%d)" % k, O.fence(k), O.fib(k + 2), rng))
    items.append(_stats_item("crown(20)", O.crown(20), O.lucas(20), rng))
    for k in (14, 15):
        items.append(_stats_item("antichain(%d)" % k, O.antichain(k), 1 << k, rng))
    # Nine composites of about 1.5*10^4 filters, alternating between the 2^n
    # scan (n <= 18) and the antichain DFS.  Their cost is about 30 us per
    # filter either way, so with equal sizes the median and the tail fall in
    # one block of items of equal cost and do not depend on the seed.
    for j in range(9):
        n_lo, n_hi = (12, 18) if j % 2 == 0 else (19, 28)
        c = composite(rng, 14_500, 15_500, n_lo, n_hi, 8)
        item = _stats_item("composite#%d" % j, c.order, c.count, rng)
        item.detail["recipe"] = c.recipe
        items.append(item)
    # Over the cap: the refusal on the DFS route, and a poset wider than the
    # recursion limit (the known defect).
    items.append(_stats_item("fence(21) --cap 4096", O.fence(21), O.fib(23),
                             rng, cap=4096))
    items.append(_stats_item("antichain(1200)", O.antichain(1200), 1 << 1200,
                             rng, known=KNOWN_DEFECT))
    rng.shuffle(items)
    warm = _stats_item("fence(6)", O.fence(6), O.fib(8), random.Random(0))
    return Workload(items, warm)


# -- cli-cutting --------------------------------------------------------------


def _cutting_item(label, order, rng):
    text = poset_text(order, rng)
    size = len(O.filters_by_scan(order))
    _, want = O.interval_and_cutting_counts(order)

    def check(outcome):
        rc, out = outcome
        if rc != 0:
            return "exit %r, want 0" % (rc,)
        return O.check_cutting_listing(out, order.n, want)

    return Item(label, order.n, size, 0, lambda: _cli(["cutting"], text),
                check, detail={"cuttings": want})


def cli_cutting(seed):
    """Fences 11 and 12, crown 12, antichain 8 and eight composites of 10 to
    14 elements and 150 to 300 filters whose listing costs three quarters of
    antichain 8's (within 6%).  With four passes the tail is then the third copy of fence 11 and
    the median falls among the equal-cost composites, whatever the seed."""
    rng = random.Random("cli-cutting:%d" % seed)
    items = [_cutting_item("fence(11)", O.fence(11), rng),
             _cutting_item("fence(12)", O.fence(12), rng),
             _cutting_item("crown(12)", O.crown(12), rng),
             _cutting_item("antichain(8)", O.antichain(8), rng)]
    target = 0.75 * 256 * 3 ** 8   # antichain(8): 256 filters, 3^8 intervals
    for j in range(8):
        # The listing tests every interval against a flag vector over all
        # of F, so it costs about |F| times the number of intervals.
        c = composite(rng, 150, 300, 10, 14, 6, lambda p: abs(
            p.count * p.intervals - target) <= 0.06 * target, intervals=True)
        item = _cutting_item("composite#%d" % j, c.order, rng)
        item.detail["recipe"] = c.recipe
        items.append(item)
    rng.shuffle(items)
    return Workload(items, _cutting_item("fence(4)", O.fence(4),
                                         random.Random(0)))


# -- cutting-pass -------------------------------------------------------------

_SUITE_TRIALS = 2
_SUITE_MAX_SIZE = 7
_SUITE_ISO_MAX = 4
_SUMMARY = re.compile(r"posets=(\d+) .* intervals=(\d+), cuttings=(\d+)")


def _suite_item(label, seed, iso_pool, batch):
    """One ``run_cutting_suite`` call; ``batch`` is the random posets it
    will draw from ``seed``."""
    pool = iso_pool + batch
    counts = [O.interval_and_cutting_counts(p) for p in pool]
    want = (len(pool), sum(c[0] for c in counts), sum(c[1] for c in counts))

    def run():
        return _mod("verify").run_cutting_suite(
            trials=len(batch), max_size=_SUITE_MAX_SIZE, seed=seed,
            exhaustive_max=_SUITE_ISO_MAX)

    def check(results):
        bad = [name for name, r in results.items() if not r.ok]
        if bad:
            return "suite topics failed: %s" % ",".join(bad)
        m = _SUMMARY.search(results["cutting-equivalence"].lines[0])
        got = tuple(int(x) for x in m.groups()) if m else None
        if got != want:
            return "posets, intervals, cuttings = %r, want %r" % (got, want)
        return None

    return Item(label, sum(p.n for p in pool),
                sum(len(O.filters_by_scan(p)) for p in pool), 0, run, check,
                detail={"suite_seed": seed, "intervals": want[1],
                        "cuttings": want[2]})


def _iso_pool():
    catalog = _mod("catalog")
    return [O.Order(p.up) for n in range(_SUITE_ISO_MAX + 1)
            for p in catalog.posets_up_to_iso(n)]


def cutting_pass(seed):
    """Nine suite calls.  Each runs the 25 posets of the exhaustive layer
    (every isomorphism class on up to four elements) and its own batch of
    two random posets.  A batch costs about as much as the sum over its
    posets of |F|^2, so a batch is redrawn until that sum lies in a fixed
    band; unbanded, one batch can cost 30 times another."""
    rng = random.Random("cutting-pass:%d" % seed)
    catalog = _mod("catalog")
    iso = _iso_pool()
    items = []
    while len(items) < 9:
        s = rng.randrange(1 << 30)
        batch = [O.Order(catalog.random_poset(catalog.trial_seed(s, t),
                                              _SUITE_MAX_SIZE).up)
                 for t in range(_SUITE_TRIALS)]
        weight = sum(len(O.filters_by_scan(p)) ** 2 for p in batch)
        if 600 <= weight <= 900:
            items.append(_suite_item("suite#%d" % len(items), s, iso, batch))
    warm = Item("suite warm-up", 0, 0, 0, lambda: _mod("verify").run_cutting_suite(
        trials=1, max_size=3, seed=0, exhaustive_max=2), lambda r: None)
    return Workload(items, warm)


# -- families -----------------------------------------------------------------


def _fib_item(m, n):
    def check(r):
        if not r.ok:
            return "fibonacci report not ok for m=%d n=%d" % (m, n)
        if r.lattice_size != O.fib(m + n):
            return "|F|=%d, want F(%d)=%d" % (r.lattice_size, m + n,
                                              O.fib(m + n))
        return None

    return Item("fibonacci(m=%d,n=%d)" % (m, n), m + n - 2, O.fib(m + n), 0,
                lambda: _mod("families").verify_fibonacci_decomposition(m, n),
                check)


def _lucas_item(n):
    def check(r):
        if not r.ok:
            return "lucas report not ok for n=%d" % n
        if r.lattice_size != O.lucas(2 * n):
            return "|F|=%d, want L(%d)=%d" % (r.lattice_size, 2 * n,
                                              O.lucas(2 * n))
        return None

    return Item("lucas(n=%d)" % n, 2 * n, O.lucas(2 * n), 0,
                lambda: _mod("families").verify_lucas_decomposition(n), check)


def _cube_item(kind, k):
    size = O.fib(k + 2) if kind == "fence" else O.lucas(k)

    def run():
        fam = _mod("families")
        poset = fam.fence(k) if kind == "fence" else fam.crown(k)
        g = fam.cover_cube(_mod("lattice").filter_lattice(poset))
        model = fam.fibonacci_cube(k) if kind == "fence" else fam.lucas_cube(k)
        return fam.graph_isomorphic(g, model), g.vertex_count, model.vertex_count

    def check(outcome):
        iso, got, model = outcome
        if not iso:
            return "cover graph of %s(%d) not isomorphic to its cube" % (kind, k)
        if got != size or model != size:
            return "vertex counts %d and %d, want %d" % (got, model, size)
        return None

    return Item("cube %s(%d)" % (kind, k), k, size, 0, run, check)


def families(seed):
    """Every Fibonacci split of the fences on up to 13 elements (the pairs
    m, n >= 2 with m + n - 2 <= 13), the Lucas splits of crowns 4..16 and
    the cover-graph checks of fences 1..12 and crowns 4..12, in seed-shuffled
    order.  The items are the same for every seed, so the seed moves no
    figure but the order."""
    rng = random.Random("families:%d" % seed)
    items = [_fib_item(m, s + 2 - m) for s in range(2, 14)
             for m in range(2, s + 1)]
    items += [_lucas_item(n) for n in range(2, 9)]
    items += [_cube_item("fence", k) for k in range(1, 13)]
    items += [_cube_item("crown", k) for k in range(4, 13, 2)]
    rng.shuffle(items)
    return Workload(items, _fib_item(2, 3))


_MAKE = {"stats-large": stats_large, "cutting-pass": cutting_pass,
         "families": families, "cli-cutting": cli_cutting}


def build(name, seed):
    import latcut.cli  # noqa: F401  (with the package, every submodule)
    return _MAKE[name](seed)
