"""Seeded verification suites: every structural theorem the package relies on,
re-checked by brute force over exhaustive small posets plus a random layer.

Each suite returns a SuiteResult whose report is line-oriented and
deterministic for a fixed seed; on failure the smallest failing instance is
inlined as a poset file so it can be replayed directly.

One table, _SUITES, holds the 12 suites by name: the flags each takes and
the function that runs it.  ``run_suite`` and SUITE_NAMES read it.  The
family suites take ``--max`` alone, and the others ``--trials``,
``--max-size`` and ``--seed``; ``run_suite`` refuses the rest, and
``--max-size 0`` unless ``--trials`` is 0.  Every suite but the cutting
topics hands its pool of cases, its per-case check and its line format to
one runner, _run.  The runner alone keeps the clock and the check count,
refuses a suite whose largest lattice passes the cap before any work, runs
each check through _attempt and files its failures.  A check returns the
fields of its case's line, if it prints one, and None when its identity
holds or the failure detail, printed under the case's title; a check that
raises fails its case, not the suite, with the message of an
AssertionError, else with ``raised <type>: <message>``.
  birkhoff    every labelled poset up to four elements, then random ones:
              x -> up(x) by ``birkhoff_roundtrip``, without a search,
              ``cover_masks`` against the definition of a cover, and F(P)
              against the subset scan;
  fibonacci   the deletion identity on every fence up to ``--max`` (m+n-2);
  lucas       the deletion identity on every crown up to ``--max`` (2n);
              the size on each line is the decomposition report's;
  cubes       the covering graphs of F(fence) and F(crown) against the
              string-model cubes, certified by the zigzag translation;
  random      the round trip, the binomial and Euler rows and d- = d+ on
              random posets.
A pooled poset past the filter cap, in birkhoff, random or the cutting
pass, is refused by its tag.

The seven cutting topics share one pass over the pooled lattices, driven by
a table of (topic, failure text, check) rows.  binomial, euler and
degree-symmetry check each pooled lattice and each of its expansions;
expansion-counts, rank-recurrence and q-d-recurrences check each cutting
that ``cuttings`` lists, through its one expansion, which carries the host,
the cutting and the cutting's lattice, built when a row first reads it
(rank-recurrence never does); expansion-counts runs decompose's round trip
on it, with no second walk.  cutting-equivalence asks ``is_cutting``, which
votes four criteria, on every interval.  The rows of binomial, euler,
rank-recurrence and q-d-recurrences are the public checks of
latcut.invariants.  The q they read is q_vector's census, checked once per
lattice against the q recurrence on its base poset.  A topic runs only its
own rows, so only cutting-equivalence votes.  A row or vote that raises
fails like a check of the runner, an expansion that raises fails every row
that would read it, a ``cuttings`` that raises fails its poset in every
topic, and the pass goes on; only CapacityExceeded stops it, as a refusal.
A pooled lattice too large for the vote or its expansions is refused before
either, and before its cuttings are listed when the 2|L| - 1 that hold its
bottom or top already make it too large.  A listed cutting with no
expansion, or an isomorphism backtrack past its cap of placements, met
while the exhaustive pool grows, stops the run with AssertionError, which
the CLI reports on one line with exit 1.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .bits import iter_bits
from .catalog import _extend_each, _levels, _new_classes, random_poset, trial_seed
from .errors import CapacityExceeded, LatcutError
from .expansion import _round_trip, cuttings, expand_poset, is_cutting
from .families import (_zigzag_translate, cover_cube, crown, fence, fib,
                       fibonacci_cube, lucas, lucas_cube,
                       verify_fibonacci_decomposition,
                       verify_lucas_decomposition)
from .fileio import ELEMENT_MAX, write_poset_file
from .invariants import (antichain_census, binomial_relations,
                         check_d_recurrences, check_q_recurrence,
                         check_rank_recurrence, d_vectors, euler_checks,
                         poly_eq)
from .lattice import birkhoff_roundtrip, filter_lattice
from .poset import FILTER_CAP


@dataclass
class SuiteResult:
    name: str
    seed: int | None = None
    checks: int = 0
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self):
        return not self.failures

    def add_failure(self, poset, what, extra=""):
        text = "FAIL %s: %s\n" % (self.name, what)
        if extra:
            text += extra.rstrip("\n") + "\n"
        text += "poset (%d elements):\n%s" % (poset.n, write_poset_file(poset))
        self.failures.append((poset.n, text))

    def report(self):
        head = "suite %s: %d checks, %s" % (
            self.name, self.checks, "ok" if self.ok else
            "%d FAILURES" % len(self.failures))
        if self.seed is not None:
            head += " (seed=%d)" % self.seed
        out = [head] + list(self.lines)
        if self.failures:
            smallest = min(self.failures, key=lambda f: f[0])
            out.append("smallest failing instance:")
            out.append(smallest[1].rstrip("\n"))
        return "".join(line + "\n" for line in out)


def _pool_iso(n_max):
    for n, level in enumerate(_levels(n_max, _new_classes)):
        for p in level:
            yield "iso n=%d" % n, p


def _pool_random(trials, max_size, seed):
    for t in range(trials):
        s = trial_seed(seed, t)
        yield "seed=%d" % s, random_poset(s, max_size)


def _pooled(pool):
    """Each (tag, poset) of ``pool`` with its filter lattice; a poset past
    the filter cap is refused with its tag and size named."""
    for tag, p in pool:
        try:
            lat = filter_lattice(p)
        except CapacityExceeded as e:
            raise CapacityExceeded("%s (%d elements): %s" % (tag, p.n, e))
        yield tag, p, lat


# -- the runner ---------------------------------------------------------------------


def _attempt(check, *args):
    """(check(*args), None), or (None, the detail of its failure) when the
    check raises: the message of an AssertionError (a q census that
    disagrees with the recurrence on P, four cutting criteria that
    disagree), else ``raised <type>: <message>``.  CapacityExceeded
    refuses the input rather than failing a check, and goes through."""
    try:
        return check(*args), None
    except CapacityExceeded:
        raise
    except AssertionError as e:
        return None, str(e) or "raised AssertionError"
    except Exception as e:
        return None, "raised %s: %s" % (type(e).__name__, e)


def _refuse_over_cap(*sizes):
    """Refuse, before any work, a suite whose largest lattice passes the cap."""
    if max(sizes, default=0) > FILTER_CAP:
        raise CapacityExceeded("more than %d filters" % FILTER_CAP)


def _run(name, cases, check, seed=None, lines=(), sizes=()):
    """The one loop of every suite but the cutting topics.

    ``sizes`` are the suite's largest lattices, refused past the cap
    before any work.  ``lines`` open the report.  ``cases`` yields
    (poset, title, label, args), one check each: check(*args) returns
    (fields, detail), where detail is None when its identity holds and
    otherwise is filed under ``title`` with the poset inlined.  A check
    that raises fails its case with _attempt's detail, and the suite goes
    on.  A case with a ``label`` prints it, its %s slots filled with the
    fields, each one "?" when the check raised, then ``ok`` or ``FAIL``."""
    _refuse_over_cap(*sizes)
    res = SuiteResult(name, seed=seed, lines=list(lines))
    t0 = time.perf_counter()
    for p, title, label, args in cases:
        res.checks += 1
        got, fault = _attempt(check, *args)
        fields, detail = got or (None, fault)
        if label is not None:
            res.lines.append("%s,%s" % (
                label.replace("%s", "?") if fields is None else label % fields,
                "ok" if detail is None else "FAIL"))
        if detail is not None:
            res.add_failure(p, title, detail)
    res.elapsed = time.perf_counter() - t0
    return res


# -- Birkhoff round trip ------------------------------------------------------------

# The subset scan keeps a table of 2^n closure requirements.
_FILTER_SCAN_LIMIT = 18
# Every labeled poset up to this size is checked before the random layer.
_BIRKHOFF_EXHAUSTIVE_MAX = 4


def filters_by_scan(p):
    """Every filter of ``p``, in increasing mask order, by a scan over all
    2^n subsets: an incremental table holds the union of the up-sets of
    each subset's members, and the subset is a filter when that union lies
    inside it.  It shares nothing with the antichain DFS that builds F(P),
    which makes it that DFS's oracle.  Small n only."""
    up = p.up
    req = [0] * (1 << p.n)
    out = [0]
    for m in range(1, 1 << p.n):
        low = m & -m
        r = req[m ^ low] | up[low.bit_length() - 1]
        req[m] = r
        if r & ~m == 0:
            out.append(m)
    return out


def _covers_by_definition(p):
    """Every pair i < j with nothing strictly between, in (i, j) order:
    the cover relation read off the order itself, with no walk."""
    return [(i, j) for i in range(p.n) for j in iter_bits(p.up[i])
            if p.up[i] & p.down[j] == 0]


def _birkhoff_check(p, lat):
    """None, or the first of three comparisons that fails."""
    if not birkhoff_roundtrip(lat):
        return "Mi(F(P)) not isomorphic to P"
    if sorted(p.cover_masks()) != _covers_by_definition(p):
        return "cover_masks() differs from its definition"
    if p.n <= _FILTER_SCAN_LIMIT:
        scanned = filters_by_scan(p)
        if sorted(lat.filters) != scanned:
            return ("F(P) differs from the subset scan: %d filters against %d"
                    % (lat.size, len(scanned)))


def verify_birkhoff(trials=1000, max_size=8, seed=0):
    labeled = [("labeled n=%d" % n, p) for n, level in
               enumerate(_levels(_BIRKHOFF_EXHAUSTIVE_MAX, _extend_each))
               for p in level]
    pool = itertools.chain(labeled, _pool_random(trials, max_size, seed))
    return _run("birkhoff", ((p, "round trip, covers, filters (%s)" % tag,
                              None, (p, lat)) for tag, p, lat in _pooled(pool)),
                lambda p, lat: ((), _birkhoff_check(p, lat)), seed=seed,
                lines=("exhaustive labeled posets on <=%d elements: %d"
                       % (_BIRKHOFF_EXHAUSTIVE_MAX, len(labeled)),
                       "random posets: trials=%d max_size=%d seed=%d"
                       % (trials, max_size, seed)))


# -- the cutting pass: one table of checks ------------------------------------------


def _degree_row(lat):
    # The antichain census of the meet-irreducibles is the oracle.
    d, census = d_vectors(lat), antichain_census(lat.mi_poset())
    if not (d.minus == d.plus and poly_eq(d.minus, census)):
        return "d_minus=%r d_plus=%r census=%r" % (d.minus, d.plus, census)


def _counts_row(exp):
    # The round trip's walk over P' is the count independent of the
    # expansion.  It reads F(P' - x) and F(P' * x) off this L and K, whose
    # bases counts_ok requires to be P' - x and P' * x, and walks neither.
    # At P''s last index, expansion_iso_ok would compare P' with itself.
    if not _round_trip(exp.poset, exp.new_element, exp).counts_ok:
        return "counts=False"


# (topic, failure text, check), where a check returns None when its identity
# holds and the failure detail otherwise.  Lattice rows check(lat) run on each
# pooled lattice and each expansion; cutting rows check(expansion at k) on
# each cutting k, and K's lattice is built only when a row reads it.  A
# q-d-recurrences row runs both checks and joins the details of those that
# fail, q first.  Lattice rows hold their check functions from import;
# cutting rows look theirs up by name when called.
_LATTICE_ROWS = (("binomial", "binomial transform mismatch",
                  binomial_relations),
                 ("euler", "Euler check failed", euler_checks),
                 ("degree-symmetry", "degree vectors disagree", _degree_row))
_CUTTING_ROWS = (
    ("expansion-counts", "expansion size or decomposition round trip",
     _counts_row),
    ("rank-recurrence", "rank recurrence",
     lambda exp: check_rank_recurrence(exp)),
    ("q-d-recurrences", "q/d recurrences",
     lambda exp: " ".join(filter(None, (
         check_q_recurrence(exp), check_d_recurrences(exp)))) or None))
_CUTTING_TOPICS = ("cutting-equivalence",) + tuple(
    topic for topic, _, _ in _CUTTING_ROWS + _LATTICE_ROWS)


def _detail(check, *args):
    """check(*args): None, or the detail of a failure, a raise included
    (_attempt)."""
    detail, fault = _attempt(check, *args)
    return fault or detail


def _run_rows(results, rows, p, where, *args, fault=None):
    """Each row's check(*args), or the detail ``fault`` of a failure that
    kept every row from running; ``where()`` names the place of a
    failure."""
    for topic, what, check in rows:
        res = results[topic]
        res.checks += 1
        detail = fault or _detail(check, *args)
        if detail is not None:
            res.add_failure(p, "%s (%s)" % (what, where()), detail)


# Bounds cuttings * |L|, the expansions' least work, and with it |L|^2, the
# vote's: every interval holding L's bottom or top is a cutting, so there
# are at least 2|L| - 1 of them, a bound checked before ``cuttings`` lists
# them.  The defaults reach 32,640 and 16,384, more than 100x below.
_PASS_WORK_MAX = 4_000_000


def _refuse_pass_work(tag, size, n_cuttings, at_least=""):
    if n_cuttings * size > _PASS_WORK_MAX:
        raise CapacityExceeded(
            "the cutting pass refuses %s: %d lattice elements and %s%d "
            "cuttings, cuttings*|L| past %d"
            % (tag, size, at_least, n_cuttings, _PASS_WORK_MAX))


def _vote(res, p, lat, tag, listed):
    """The four cutting criteria must agree on every interval, and accept
    exactly the cuttings ``listed`` by ``cuttings(lat)``."""
    found = []
    above = lat.above_masks()
    for a in range(lat.size):
        for b in iter_bits(above[a]):
            res.checks += 1
            cut, fault = _attempt(is_cutting, lat, (a, b))
            if fault is not None:
                res.add_failure(p, "methods disagree on [%s,%s] (%s)"
                                % (lat.bitstring(a), lat.bitstring(b), tag),
                                fault)
            elif cut:
                found.append((a, b))
    if listed != found:
        missing, extra = (
            [(lat.bitstring(a), lat.bitstring(b)) for a, b in sorted(s)]
            for s in (set(found) - set(listed), set(listed) - set(found)))
        res.add_failure(p, "cuttings() differs from the four-vote scan (%s)"
                        % tag, "missing=%s extra=%s" % (missing, extra))


def run_cutting_suite(trials=200, max_size=7, seed=1, exhaustive_max=5,
                      topics=_CUTTING_TOPICS):
    """One pass over exhaustive-iso plus random posets, running only the
    checks of ``topics``, all seven by default; returns their SuiteResults
    keyed by topic."""
    results = {name: SuiteResult(name, seed=seed) for name in topics}
    lattice_rows = [row for row in _LATTICE_ROWS if row[0] in results]
    cutting_rows = [row for row in _CUTTING_ROWS if row[0] in results]
    eq = results.get("cutting-equivalence")
    t0 = time.perf_counter()
    # Drawn lazily: a poset the pass refuses is refused before the next
    # one is drawn.
    pool = itertools.chain(_pool_iso(exhaustive_max),
                           _pool_random(trials, max_size, seed))
    n_posets = n_intervals = n_cuttings = vote_time = 0
    for tag, p, lat in _pooled(pool):
        n_posets += 1
        te = time.perf_counter()
        _refuse_pass_work(tag, lat.size, 2 * lat.size - 1, "at least ")
        listed, fault = _attempt(cuttings, lat)
        if fault is not None:
            # Every topic reads the cuttings: the vote, the cutting rows,
            # and the lattice rows on each expansion.
            _run_rows(results, [(topic, "cuttings() failed", None)
                                for topic in results], p, lambda: tag,
                      fault=fault)
            continue
        _refuse_pass_work(tag, lat.size, len(listed))
        n_intervals += sum(m.bit_count() for m in lat.above_masks())
        n_cuttings += len(listed)
        if eq is not None:
            _vote(eq, p, lat, tag, listed)
            vote_time += time.perf_counter() - te
        if lattice_rows or cutting_rows:
            _run_rows(results, lattice_rows, p, lambda: tag, lat)
            for a, b in listed:
                def where():
                    return "%s interval %s,%s" % (
                        tag, lat.bitstring(a), lat.bitstring(b))
                exp, fault = _attempt(expand_poset, lat, (a, b))
                if fault is not None:
                    # No expansion: every row that would read it fails.
                    _run_rows(results, cutting_rows + lattice_rows, p, where,
                              fault=fault)
                    continue
                _run_rows(results, cutting_rows, p, where, exp)
                _run_rows(results, lattice_rows, exp.poset,
                          lambda: tag + " expanded", exp.lattice)
    elapsed = time.perf_counter() - t0
    summary = ("posets=%d (iso classes <=%d plus %d random <=%d), "
               "intervals=%d, cuttings=%d"
               % (n_posets, exhaustive_max, trials, max_size,
                  n_intervals, n_cuttings))
    for res in results.values():
        res.lines.append(summary)
        res.elapsed = vote_time if res is eq else elapsed
    return results


# -- family suites ------------------------------------------------------------------


def verify_fibonacci(max_s=16):
    """All m, n >= 2 with m+n-2 <= max_s: sizes, the F identity, and the
    q recurrence, via the realized decomposition."""
    pairs = ((m, s + 2 - m) for s in range(2, max_s + 1)
             for m in range(2, s + 1))
    return _run("fibonacci", (
        (fence(m + n - 2), "fibonacci decomposition m=%d n=%d" % (m, n),
         "m=%d,n=%d" % (m, n), (m, n)) for m, n in pairs),
        lambda m, n: ((), verify_fibonacci_decomposition(m, n).detail),
        sizes=(fib(max_s + 2, FILTER_CAP),))


def _lucas_check(n):
    report = verify_lucas_decomposition(n)
    return (report.lattice_size,), report.detail


def verify_lucas(max_two_n=10):
    """Crown sizes, the Lucas identity and the q recurrence, via the
    realized decomposition; each line's size is the report's.  The
    decomposition reads q of F(crown) off its expansion, and its round
    trip walks the crown, as the enumeration independent of the expansion.
    The covering graphs of these lattices are the cubes suite's."""
    return _run("lucas", (
        (crown(2 * n), "lucas decomposition n=%d" % n, "n=%d,size=%%s" % n,
         (n,)) for n in range(2, max_two_n // 2 + 1)),
        _lucas_check, sizes=(lucas(max_two_n // 2 * 2, FILTER_CAP),))


def _cube_check(p, model, k, count):
    """The vertex count of p's covering graph, and "cube=False" unless it
    has ``count`` vertices and the zigzag translation makes it the cube
    model(k)."""
    g = cover_cube(filter_lattice(p))
    ok = g.vertex_count == count and _zigzag_translate(g) == model(k)
    return (g.vertex_count,), None if ok else "cube=False"


def verify_cubes(max_fence=9):
    """Covering graphs of fence/crown filter lattices against the binary
    string models, certified by the zigzag translation: fences up to
    ``max_fence`` elements, crowns up to one more."""
    max_crown = (max_fence + 1) // 2 * 2
    cases = itertools.chain(
        ((fence(n), fibonacci_cube, n, fib(n + 2), "fence n=%d",
          "fibonacci cube mismatch at n=%d") for n in range(max_fence + 1)),
        ((crown(k), lucas_cube, k, lucas(k), "crown 2n=%d",
          "lucas cube mismatch at 2n=%d")
         for k in range(4, max_crown + 1, 2)))
    return _run("cubes", (
        (p, mismatch % k, name % k + ",vertices=%s", (p, model, k, count))
        for p, model, k, count, name, mismatch in cases), _cube_check,
        sizes=(fib(max_fence + 2, FILTER_CAP), lucas(max_crown, FILTER_CAP)))


# -- random fuzzing -----------------------------------------------------------------


def _random_check(lat):
    ok = birkhoff_roundtrip(lat)
    detail = binomial_relations(lat) or euler_checks(lat)
    if detail:
        return detail
    d = d_vectors(lat)
    if not (ok and d.minus == d.plus):
        return "roundtrip=%r d_minus=%r d_plus=%r" % (ok, d.minus, d.plus)


def verify_random(trials=200, max_size=7, seed=2):
    """Random-only layer: Birkhoff round trip, the binomial and Euler rows
    of the cutting pass and d- = d+, as one check on every sampled poset."""
    return _run("random", ((p, "random-layer invariants (%s)" % tag, None,
                            (lat,)) for tag, p, lat in
                           _pooled(_pool_random(trials, max_size, seed))),
                lambda lat: ((), _random_check(lat)), seed=seed, lines=(
                    "trials=%d max_size=%d seed=%d" % (trials, max_size, seed),))


# -- the suite table ----------------------------------------------------------------


def _cutting_topic(topic, **given):
    """One topic of the cutting pass.  Its exhaustive layer walks every
    poset up to five elements, fewer when the largest random poset is
    smaller."""
    if "max_size" in given:
        given["exhaustive_max"] = min(5, given["max_size"])
    return run_cutting_suite(topics=(topic,), **given)[topic]


class _Suite(NamedTuple):
    flags: tuple        # the flags of run_suite that it takes
    run: Callable       # their values in, its own defaults for the rest


_SEEDED = ("--trials", "--max-size", "--seed")
_SUITES = {"birkhoff": _Suite(_SEEDED, verify_birkhoff),
           **{topic: _Suite(_SEEDED, functools.partial(_cutting_topic, topic))
              for topic in _CUTTING_TOPICS},
           "fibonacci": _Suite(("--max",), verify_fibonacci),
           "lucas": _Suite(("--max",), verify_lucas),
           "cubes": _Suite(("--max",), verify_cubes),
           "random": _Suite(_SEEDED, verify_random)}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name, trials=None, max_size=None, seed=None, max_param=None):
    """Run a named suite of _SUITES with CLI-style optional overrides; a
    suite takes its own defaults for those not given.  Raises LatcutError,
    before any suite runs, on a flag the suite does not take, on a
    negative count or size, on a --max-size past fileio.ELEMENT_MAX and on
    --max-size 0 with a --trials, given or default, that is not 0."""
    if name not in _SUITES:
        raise ValueError("unknown suite %r" % name)
    takes, run = _SUITES[name]
    for flag, value in (("--trials", trials), ("--max-size", max_size),
                        ("--seed", seed), ("--max", max_param)):
        if value is None:
            continue
        if flag not in takes:
            raise LatcutError("verify %s takes no %s" % (name, flag))
        if value < 0 and flag != "--seed":
            raise LatcutError("%s must not be negative, got %d"
                              % (flag, value))
        if flag == "--max-size" and value > ELEMENT_MAX:
            raise LatcutError("--max-size must be at most %d, got %d"
                              % (ELEMENT_MAX, value))
    if max_size == 0 and trials != 0:
        raise LatcutError("--max-size must be at least 1 unless --trials "
                          "is 0")
    if max_param is not None:
        return run(max_param)
    return run(**{key: value for key, value in (
        ("trials", trials), ("max_size", max_size), ("seed", seed))
        if value is not None})
