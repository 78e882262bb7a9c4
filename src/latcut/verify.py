"""Seeded verification suites: every structural theorem the package relies on,
re-checked by brute force over exhaustive small posets plus a random layer.

Each suite returns a SuiteResult whose report is line-oriented and
deterministic for a fixed seed; on failure the smallest failing instance is
inlined as a poset file so it can be replayed directly.

The cutting suite is one shared pass: it enumerates every interval of every
pooled lattice, requires the four cutting criteria to agree and
``cuttings`` to list exactly the cuttings they found, and then runs the
counting, rank, q/d, binomial, Euler and degree checks off the cuttings and
lattices it collected.  A q census that disagrees with its interval scan
fails the checks that use q, and the pass goes on.  run_cutting_suite
returns the per-topic slices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .catalog import all_labeled_posets, posets_up_to_iso, random_poset, trial_seed
from .errors import LatcutError
from .expansion import cuttings, decompose, expand_poset, is_cutting
from .families import (_zigzag_translate, cover_cube, crown, fence, fib,
                       fibonacci_cube, lucas, lucas_cube,
                       verify_fibonacci_decomposition,
                       verify_lucas_decomposition)
from .fileio import write_poset_file
from .invariants import (antichain_census, binomial_relations,
                         check_d_recurrences, check_q_recurrence,
                         check_rank_recurrence, d_vectors, euler_checks,
                         poly_eq)
from .lattice import IntervalRef, birkhoff_roundtrip, filter_lattice
from .poset import poset_isomorphic


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
    for n in range(n_max + 1):
        for p in posets_up_to_iso(n):
            yield "iso n=%d" % n, p


def _pool_random(trials, max_size, seed):
    for t in range(trials):
        s = trial_seed(seed, t)
        yield "seed=%d" % s, random_poset(s, max_size)


# -- Birkhoff round trip ------------------------------------------------------------

# The subset scan keeps a table of 2^n closure requirements.
_FILTER_SCAN_LIMIT = 18


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


def verify_birkhoff(trials=1000, max_size=8, seed=0, exhaustive_max=4):
    res = SuiteResult("birkhoff", seed=seed)
    t0 = time.perf_counter()

    def check(tag, p):
        res.checks += 1
        lat = filter_lattice(p)
        if not poset_isomorphic(lat.mi_poset(), p):
            res.add_failure(p, "Mi(F(P)) not isomorphic to P (%s)" % tag)
            return
        if p.n <= _FILTER_SCAN_LIMIT:
            scanned = filters_by_scan(p)
            if sorted(lat.filters) != scanned:
                res.add_failure(p, "F(P) differs from the subset scan: %d "
                                "filters against %d (%s)"
                                % (lat.size, len(scanned), tag))

    total = 0
    for n in range(exhaustive_max + 1):
        batch = all_labeled_posets(n)
        total += len(batch)
        for p in batch:
            check("labeled n=%d" % n, p)
    res.lines.append("exhaustive labeled posets on <=%d elements: %d"
                     % (exhaustive_max, total))
    for tag, p in _pool_random(trials, max_size, seed):
        check(tag, p)
    res.lines.append("random posets: trials=%d max_size=%d seed=%d"
                     % (trials, max_size, seed))
    res.elapsed = time.perf_counter() - t0
    return res


# -- the shared cutting pass ----------------------------------------------------------


_CUTTING_TOPICS = ("cutting-equivalence", "expansion-counts", "rank-recurrence",
                   "q-d-recurrences", "binomial", "euler", "degree-symmetry")


def _check_lattice_invariants(results, p, lat, tag):
    """Per-lattice checks: binomial transform, Euler, and degree symmetry
    with the antichain census of the meet-irreducibles as the oracle."""
    try:
        br = binomial_relations(lat)
        eu = euler_checks(lat, q=br.q)
        broken = None
    except AssertionError as e:
        # The q census and the interval scan disagree: both checks on q fail.
        broken = str(e)
    results["binomial"].checks += 1
    if broken or not br.ok:
        results["binomial"].add_failure(
            p, "binomial transform mismatch (%s)" % tag,
            broken or "q=%r d_minus=%r" % (br.q, br.d_minus))

    results["euler"].checks += 1
    if broken or not (eu.ok and eu.derivative_ok):
        results["euler"].add_failure(
            p, "Euler check failed (%s)" % tag,
            broken or "Q(-1)=%d Q'(-1)=%d |Mi|=%d"
            % (eu.alternating_sum, eu.derivative_at_minus_one, eu.mi_count))

    d = d_vectors(lat)
    census = antichain_census(lat.mi_poset())
    results["degree-symmetry"].checks += 1
    if not (d.minus == d.plus and poly_eq(d.minus, census)):
        results["degree-symmetry"].add_failure(
            p, "degree vectors disagree (%s)" % tag,
            "d_minus=%r d_plus=%r census=%r" % (d.minus, d.plus, census))


def _check_cutting(results, p, lat, k, tag):
    """Per-cutting checks: counting + decomposition round trip, rank
    recurrence, q and d recurrences.  Returns the expansion for reuse."""
    exp = expand_poset(lat, k)
    klat = lat.interval_lattice(k)

    # The expansion has |L| + |K| elements by construction; decompose's walk
    # over the enlarged poset is the independent count, and it compares
    # the filters themselves.
    ok = exp.lattice.size == lat.size + len(lat.between(*k))
    dec = decompose(exp.poset, exp.new_element)
    ok = (ok and dec.counts_ok and dec.expansion_iso_ok
          and poset_isomorphic(dec.minus, lat.base)
          and poset_isomorphic(dec.star, klat.base))
    results["expansion-counts"].checks += 1
    if not ok:
        results["expansion-counts"].add_failure(
            p, "expansion size or decomposition round trip (%s interval %s,%s)"
            % (tag, lat.bitstring(k.bottom), lat.bitstring(k.top)))

    rr = check_rank_recurrence(lat, k, exp)
    results["rank-recurrence"].checks += 1
    if not rr.ok:
        results["rank-recurrence"].add_failure(
            p, "rank recurrence (%s interval %s,%s)"
            % (tag, lat.bitstring(k.bottom), lat.bitstring(k.top)),
            "lhs=%r host=%r self=%r" % (rr.lhs, rr.rhs_host_graded,
                                        rr.rhs_self_graded))

    try:
        qr = check_q_recurrence(lat, k, exp, klat=klat)
        dr = check_d_recurrences(lat, k, exp, klat=klat)
        broken = None
    except AssertionError as e:
        # A q census disagrees with its interval scan.
        broken = str(e)
    results["q-d-recurrences"].checks += 1
    if broken or not (qr.ok and dr.ok):
        results["q-d-recurrences"].add_failure(
            p, "q/d recurrences (%s interval %s,%s)"
            % (tag, lat.bitstring(k.bottom), lat.bitstring(k.top)),
            broken or "q=%r size_ok=%r d_minus_ok=%r d_total_ok=%r"
            % (qr.q_expanded, qr.size_ok, dr.d_minus_ok, dr.d_total_ok))
    return exp


def run_cutting_suite(trials=200, max_size=7, seed=1, exhaustive_max=5):
    """One pass over exhaustive-iso plus random posets; returns a dict of
    SuiteResults keyed by topic (see _CUTTING_TOPICS)."""
    results = {name: SuiteResult(name, seed=seed) for name in _CUTTING_TOPICS}
    t0 = time.perf_counter()
    eq = results["cutting-equivalence"]

    pool = list(_pool_iso(exhaustive_max)) + list(
        _pool_random(trials, max_size, seed))
    n_posets = 0
    n_intervals = 0
    n_cuttings = 0
    equivalence_time = 0.0

    for tag, p in pool:
        n_posets += 1
        lat = filter_lattice(p)

        te = time.perf_counter()
        found = []
        above = lat.above_masks()
        for a in range(lat.size):
            mask = above[a]
            b = 0
            while mask:
                if mask & 1:
                    k = IntervalRef(a, b)
                    votes = (is_cutting(lat, k, "chains"),
                             is_cutting(lat, k, "union"),
                             is_cutting(lat, k, "order"),
                             is_cutting(lat, k, "star"))
                    n_intervals += 1
                    eq.checks += 1
                    if votes[0] != votes[1] or votes[0] != votes[2] \
                            or votes[0] != votes[3]:
                        eq.add_failure(
                            p, "methods disagree on [%s,%s] (%s)"
                            % (lat.bitstring(a), lat.bitstring(b), tag),
                            "chains=%r union=%r order=%r star=%r" % votes)
                    elif votes[0]:
                        found.append(k)
                mask >>= 1
                b += 1
        listed = cuttings(lat)
        if listed != found:
            missing = sorted(set(found) - set(listed))
            extra = sorted(set(listed) - set(found))
            eq.add_failure(
                p, "cuttings() differs from the four-vote scan (%s)" % tag,
                "missing=%s extra=%s" % (
                    [(lat.bitstring(a), lat.bitstring(b)) for a, b in missing],
                    [(lat.bitstring(a), lat.bitstring(b)) for a, b in extra]))
        equivalence_time += time.perf_counter() - te

        _check_lattice_invariants(results, p, lat, tag)
        for k in found:
            n_cuttings += 1
            exp = _check_cutting(results, p, lat, k, tag)
            _check_lattice_invariants(results, exp.poset, exp.lattice,
                                      tag + " expanded")

    summary = ("posets=%d (iso classes <=%d plus %d random <=%d), "
               "intervals=%d, cuttings=%d"
               % (n_posets, exhaustive_max, trials, max_size,
                  n_intervals, n_cuttings))
    elapsed = time.perf_counter() - t0
    for name in _CUTTING_TOPICS:
        results[name].lines.append(summary)
        results[name].elapsed = elapsed
    eq.elapsed = equivalence_time
    return results


def verify_cutting_topic(name, trials=200, max_size=7, seed=1, exhaustive_max=5):
    return run_cutting_suite(trials=trials, max_size=max_size, seed=seed,
                             exhaustive_max=exhaustive_max)[name]


# -- family suites ------------------------------------------------------------------


def verify_fibonacci(max_s=16):
    """All m, n >= 2 with m+n-2 <= max_s: sizes, the F identity, and the
    q recurrence, via the realized decomposition."""
    res = SuiteResult("fibonacci")
    t0 = time.perf_counter()
    for s in range(2, max_s + 1):
        # Built, and its q computed, once for every split of fence(s).
        direct = filter_lattice(fence(s))
        for m in range(2, s + 1):
            n = s + 2 - m
            r = verify_fibonacci_decomposition(m, n, direct=direct)
            res.checks += 1
            res.lines.append("m=%d,n=%d,%s" % (m, n, "ok" if r.ok else "FAIL"))
            if not r.ok:
                res.add_failure(
                    fence(s), "fibonacci decomposition m=%d n=%d" % (m, n),
                    "count=%r identity=%r minus=%r star=%r expansion=%r q=%r"
                    % (r.count_ok, r.identity_ok, r.minus_iso_ok,
                       r.star_iso_ok, r.expansion_ok, r.q_identity_ok))
    res.elapsed = time.perf_counter() - t0
    return res


def verify_lucas(max_two_n=10):
    """Crown sizes, the Lucas identity, the q recurrence, and the covering
    graph against the string-model Lucas cube."""
    res = SuiteResult("lucas")
    t0 = time.perf_counter()
    for n in range(2, max_two_n // 2 + 1):
        r = verify_lucas_decomposition(n)
        res.checks += 1
        cube_ok = (_zigzag_translate(cover_cube(filter_lattice(crown(2 * n))))
                   == lucas_cube(2 * n))
        res.lines.append("n=%d,size=%d,%s" % (
            n, r.lattice_size, "ok" if r.ok and cube_ok else "FAIL"))
        if not (r.ok and cube_ok):
            res.add_failure(
                crown(2 * n), "lucas decomposition n=%d" % n,
                "count=%r minus=%r star=%r dual_q=%r expansion=%r q=%r cube=%r"
                % (r.count_ok, r.minus_iso_ok, r.star_iso_ok, r.dual_q_ok,
                   r.expansion_ok, r.q_identity_ok, cube_ok))
    res.elapsed = time.perf_counter() - t0
    return res


def verify_cubes(max_fence=9, max_crown=10):
    """Covering graphs of fence/crown filter lattices against the binary
    string models, certified by the zigzag translation."""
    res = SuiteResult("cubes")
    t0 = time.perf_counter()
    cases = ([(fence(n), fibonacci_cube, n, fib(n + 2), "fence n=%d",
               "fibonacci cube mismatch at n=%d") for n in range(max_fence + 1)]
             + [(crown(k), lucas_cube, k, lucas(k), "crown 2n=%d",
                 "lucas cube mismatch at 2n=%d")
                for k in range(4, max_crown + 1, 2)])
    for p, model, k, count, name, mismatch in cases:
        g = cover_cube(filter_lattice(p))
        res.checks += 1
        ok = g.vertex_count == count and _zigzag_translate(g) == model(k)
        res.lines.append("%s,vertices=%d,%s"
                         % (name % k, g.vertex_count, "ok" if ok else "FAIL"))
        if not ok:
            res.add_failure(p, mismatch % k)
    res.elapsed = time.perf_counter() - t0
    return res


# -- random fuzzing -----------------------------------------------------------------


def verify_random(trials=200, max_size=7, seed=2):
    """Random-only layer: Birkhoff round trip plus the per-lattice invariant
    bundle on every sampled poset."""
    res = SuiteResult("random", seed=seed)
    t0 = time.perf_counter()
    for tag, p in _pool_random(trials, max_size, seed):
        res.checks += 1
        lat = filter_lattice(p)
        ok = birkhoff_roundtrip(p)
        try:
            br = binomial_relations(lat)
            eu = euler_checks(lat, q=br.q)
            broken = None
        except AssertionError as e:
            # The q census and the interval scan disagree on this poset.
            broken = str(e)
        d = d_vectors(lat)
        if broken or not (ok and br.ok and eu.ok and eu.derivative_ok
                          and d.minus == d.plus):
            res.add_failure(p, "random-layer invariants (%s)" % tag,
                            broken or "roundtrip=%r binomial=%r euler=%r"
                            % (ok, br.ok, eu.ok))
    res.lines.append("trials=%d max_size=%d seed=%d" % (trials, max_size, seed))
    res.elapsed = time.perf_counter() - t0
    return res


# -- orchestration ------------------------------------------------------------------


SUITE_NAMES = (("birkhoff",) + _CUTTING_TOPICS
               + ("fibonacci", "lucas", "cubes", "random"))


def run_suite(name, trials=None, max_size=None, seed=None, max_param=None):
    """Dispatch a named suite with CLI-style optional overrides.  Raises
    LatcutError on a negative count or size, before any suite runs."""
    def pick(value, default):
        return default if value is None else value

    for flag, value in (("--trials", trials), ("--max-size", max_size),
                        ("--max", max_param)):
        if value is not None and value < 0:
            raise LatcutError("%s must not be negative, got %d"
                              % (flag, value))

    if name == "birkhoff":
        return verify_birkhoff(trials=pick(trials, 1000),
                               max_size=pick(max_size, 8),
                               seed=pick(seed, 0))
    if name in _CUTTING_TOPICS:
        # The exhaustive layer walks every poset up to five elements, fewer
        # when the largest random poset is smaller.
        return verify_cutting_topic(name, trials=pick(trials, 200),
                                    max_size=pick(max_size, 7),
                                    seed=pick(seed, 1),
                                    exhaustive_max=min(5, pick(max_size, 5)))
    if name == "fibonacci":
        return verify_fibonacci(max_s=pick(max_param, 16))
    if name == "lucas":
        return verify_lucas(max_two_n=pick(max_param, 10))
    if name == "cubes":
        return verify_cubes(max_fence=pick(max_param, 9))
    if name == "random":
        return verify_random(trials=pick(trials, 200),
                             max_size=pick(max_size, 7),
                             seed=pick(seed, 2))
    raise ValueError("unknown suite %r" % name)
