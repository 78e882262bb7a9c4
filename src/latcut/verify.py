"""Seeded verification suites: every structural theorem the package relies on,
re-checked by brute force over exhaustive small posets plus a random layer.

Each suite returns a SuiteResult whose report is line-oriented and
deterministic for a fixed seed; on failure the smallest failing instance is
inlined as a poset file so it can be replayed directly.  birkhoff and
random check x -> up(x) with ``birkhoff_roundtrip``, without a search;
birkhoff also compares each poset's ``cover_masks`` with the definition of
a cover.

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
latcut.invariants, which return None when their identity holds and the
failure detail otherwise.  The q they read is q_vector's census, checked
once per lattice against the q recurrence on its base poset.  A topic
runs only its own rows, so only
cutting-equivalence votes.  A row or vote that raises AssertionError fails
with the message, one that raises anything else fails with ``raised
<type>: <message>``, an expansion that raises fails every row that would
read it, a ``cuttings`` that raises fails its poset in every topic, and
the pass goes on; only CapacityExceeded stops it, as a refusal.  A pooled
lattice too large for the vote or its expansions is refused before either,
and before its cuttings are listed when the 2|L| - 1 that hold its bottom
or top already make it too large; a pooled poset past the filter cap, here
or in birkhoff and random, is refused by its tag.  A listed cutting with no
expansion, met while the exhaustive pool grows, stops the run with
AssertionError, which the CLI reports on one line with exit 1.

The fibonacci and lucas suites print the detail of each failing
FamilyReport, or that of a case that raises, and go on; lucas adds
``cube=False`` when a covering graph is not its Lucas cube, and cubes
fails a case whose graph is not its model or whose check raises.
These three family suites take ``--max`` alone, and the others
``--trials``, ``--max-size`` and ``--seed``; ``run_suite`` refuses the rest,
and ``--max-size 0`` unless ``--trials`` is 0.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

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


def verify_birkhoff(trials=1000, max_size=8, seed=0):
    res = SuiteResult("birkhoff", seed=seed)
    t0 = time.perf_counter()
    labeled = [("labeled n=%d" % n, p) for n, level in
               enumerate(_levels(_BIRKHOFF_EXHAUSTIVE_MAX, _extend_each))
               for p in level]
    res.lines.append("exhaustive labeled posets on <=%d elements: %d"
                     % (_BIRKHOFF_EXHAUSTIVE_MAX, len(labeled)))
    pool = itertools.chain(labeled, _pool_random(trials, max_size, seed))
    for tag, p, lat in _pooled(pool):
        res.checks += 1
        if not birkhoff_roundtrip(lat):
            res.add_failure(p, "Mi(F(P)) not isomorphic to P (%s)" % tag)
        elif sorted(p.cover_masks()) != _covers_by_definition(p):
            res.add_failure(p, "cover_masks() differs from its definition "
                            "(%s)" % tag)
        elif p.n <= _FILTER_SCAN_LIMIT:
            scanned = filters_by_scan(p)
            if sorted(lat.filters) != scanned:
                res.add_failure(p, "F(P) differs from the subset scan: %d "
                                "filters against %d (%s)"
                                % (lat.size, len(scanned), tag))
    res.lines.append("random posets: trials=%d max_size=%d seed=%d"
                     % (trials, max_size, seed))
    res.elapsed = time.perf_counter() - t0
    return res


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


def _refuse_over_cap(*sizes):
    """Refuse, before any work, a suite whose largest lattice passes the cap."""
    if max(sizes) > FILTER_CAP:
        raise CapacityExceeded("more than %d filters" % FILTER_CAP)


def verify_fibonacci(max_s=16):
    """All m, n >= 2 with m+n-2 <= max_s: sizes, the F identity, and the
    q recurrence, via the realized decomposition."""
    _refuse_over_cap(fib(max_s + 2, FILTER_CAP))
    res = SuiteResult("fibonacci")
    t0 = time.perf_counter()
    for s in range(2, max_s + 1):
        for m in range(2, s + 1):
            n = s + 2 - m
            detail = _detail(
                lambda: verify_fibonacci_decomposition(m, n).detail)
            res.checks += 1
            res.lines.append("m=%d,n=%d,%s"
                             % (m, n, "FAIL" if detail else "ok"))
            if detail:
                res.add_failure(fence(s), "fibonacci decomposition m=%d n=%d"
                                % (m, n), detail)
    res.elapsed = time.perf_counter() - t0
    return res


def verify_lucas(max_two_n=10):
    """Crown sizes, the Lucas identity, the q recurrence, and the covering
    graph against the string-model Lucas cube.  Each crown's lattice is
    built here for the cube check only; the decomposition reads q of
    F(crown) off its expansion, and its round trip walks the crown, as the
    enumeration independent of the expansion."""
    _refuse_over_cap(lucas(max_two_n // 2 * 2, FILTER_CAP))
    res = SuiteResult("lucas")
    t0 = time.perf_counter()
    for n in range(2, max_two_n // 2 + 1):
        lat = filter_lattice(crown(2 * n))
        res.checks += 1
        detail = " ".join(filter(None, (
            _detail(lambda: verify_lucas_decomposition(n).detail),
            _detail(lambda: None if _zigzag_translate(cover_cube(lat))
                    == lucas_cube(2 * n) else "cube=False"))))
        res.lines.append("n=%d,size=%d,%s" % (
            n, lat.size, "FAIL" if detail else "ok"))
        if detail:
            res.add_failure(crown(2 * n), "lucas decomposition n=%d" % n,
                            detail)
    res.elapsed = time.perf_counter() - t0
    return res


def _cube_check(p, model, k, count):
    """The vertex count of p's covering graph, and whether it has ``count``
    vertices and the zigzag translation makes it the cube model(k)."""
    g = cover_cube(filter_lattice(p))
    return g.vertex_count, (g.vertex_count == count
                            and _zigzag_translate(g) == model(k))


def verify_cubes(max_fence=9):
    """Covering graphs of fence/crown filter lattices against the binary
    string models, certified by the zigzag translation: fences up to
    ``max_fence`` elements, crowns up to one more."""
    max_crown = (max_fence + 1) // 2 * 2
    _refuse_over_cap(fib(max_fence + 2, FILTER_CAP),
                     lucas(max_crown, FILTER_CAP))
    res = SuiteResult("cubes")
    t0 = time.perf_counter()
    cases = ([(fence(n), fibonacci_cube, n, fib(n + 2), "fence n=%d",
               "fibonacci cube mismatch at n=%d") for n in range(max_fence + 1)]
             + [(crown(k), lucas_cube, k, lucas(k), "crown 2n=%d",
                 "lucas cube mismatch at 2n=%d")
                for k in range(4, max_crown + 1, 2)])
    for p, model, k, count, name, mismatch in cases:
        res.checks += 1
        got, fault = _attempt(_cube_check, p, model, k, count)
        vertices, ok = got or ("?", False)
        res.lines.append("%s,vertices=%s,%s"
                         % (name % k, vertices, "ok" if ok else "FAIL"))
        if not ok:
            res.add_failure(p, mismatch % k, fault or "")
    res.elapsed = time.perf_counter() - t0
    return res


# -- random fuzzing -----------------------------------------------------------------


def verify_random(trials=200, max_size=7, seed=2):
    """Random-only layer: Birkhoff round trip, the binomial and Euler rows
    of the cutting pass and d- = d+, as one check on every sampled poset."""
    res = SuiteResult("random", seed=seed)
    t0 = time.perf_counter()
    for tag, p, lat in _pooled(_pool_random(trials, max_size, seed)):
        res.checks += 1
        ok = birkhoff_roundtrip(lat)
        detail = _detail(lambda: binomial_relations(lat) or euler_checks(lat))
        d, fault = _attempt(d_vectors, lat)
        detail = detail or fault
        if detail or not (ok and d.minus == d.plus):
            res.add_failure(p, "random-layer invariants (%s)" % tag, detail
                            or "roundtrip=%r d_minus=%r d_plus=%r"
                            % (ok, d.minus, d.plus))
    res.lines.append("trials=%d max_size=%d seed=%d" % (trials, max_size, seed))
    res.elapsed = time.perf_counter() - t0
    return res


# -- orchestration ------------------------------------------------------------------


# Each family suite takes --max as its one bound.
_FAMILY_SUITES = {"fibonacci": verify_fibonacci, "lucas": verify_lucas,
                  "cubes": verify_cubes}
SUITE_NAMES = (("birkhoff",) + _CUTTING_TOPICS + tuple(_FAMILY_SUITES)
               + ("random",))


def run_suite(name, trials=None, max_size=None, seed=None, max_param=None):
    """Dispatch a named suite with CLI-style optional overrides; a suite
    takes its own defaults for those not given.  The family suites take
    --max, the others --trials, --max-size and --seed.  Raises LatcutError,
    before any suite runs, on a flag the suite does not take, on a
    negative count or size, on a --max-size past fileio.ELEMENT_MAX and on
    --max-size 0 with a --trials, given or default, that is not 0."""
    takes = (("--max",) if name in _FAMILY_SUITES
             else ("--trials", "--max-size", "--seed"))
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
    given = {key: value for key, value in (("trials", trials),
                                           ("max_size", max_size),
                                           ("seed", seed))
             if value is not None}
    bound = () if max_param is None else (max_param,)

    if name == "birkhoff":
        return verify_birkhoff(**given)
    if name in _CUTTING_TOPICS:
        # The exhaustive layer walks every poset up to five elements, fewer
        # when the largest random poset is smaller.
        if max_size is not None:
            given["exhaustive_max"] = min(5, max_size)
        return run_cutting_suite(topics=(name,), **given)[name]
    if name in _FAMILY_SUITES:
        return _FAMILY_SUITES[name](*bound)
    if name == "random":
        return verify_random(**given)
    raise ValueError("unknown suite %r" % name)
