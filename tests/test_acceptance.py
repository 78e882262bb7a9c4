"""Acceptance gate: one test per stated criterion.

Each test records a "criterion NN PASS/FAIL ..." line for the terminal
summary before asserting, so a red run still reports every line.  Criteria
2 through 7 and 11 share a single pass over the pooled lattices.
"""

import io
import sys
from pathlib import Path

import pytest

from conftest import record_criterion
from latcut import (all_labeled_posets, check_rank_recurrence, expand_poset,
                    fib, fibonacci_cube, filter_lattice, fence, lucas,
                    lucas_cube, poset_from_covers, rank_gen, write_poset_file)
from latcut.cli import cli_run
from latcut.verify import (run_cutting_suite, verify_birkhoff, verify_cubes,
                           verify_fibonacci, verify_lucas)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def cutting():
    return run_cutting_suite(trials=200, max_size=7, seed=1, exhaustive_max=5)


def _record(num, ok, detail):
    line = "criterion %02d %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    record_criterion(line)
    assert ok, line


def test_criterion_01_birkhoff_round_trip():
    res = verify_birkhoff(trials=1000, max_size=8, seed=0)
    ok = res.ok and len(all_labeled_posets(4)) == 219 and res.elapsed < 10.0
    _record(1, ok, "Birkhoff round trip, %d posets in %.2fs (budget 10s)"
            % (res.checks, res.elapsed))


def test_criterion_02_cutting_methods_agree(cutting):
    res = cutting["cutting-equivalence"]
    ok = res.ok and res.elapsed < 60.0
    _record(2, ok, "chains/union/order/star agree on %d intervals, votes took "
            "%.2fs (budget 60s)" % (res.checks, res.elapsed))


def test_criterion_03_expansion_counts(cutting):
    res = cutting["expansion-counts"]
    _record(3, res.ok, "size law and decomposition round trip on %d cuttings"
            % res.checks)


def test_criterion_04_rank_recurrence(cutting):
    res = cutting["rank-recurrence"]
    lat = filter_lattice(poset_from_covers(["a", "b", "c"],
                                           [("b", "a"), ("b", "c")]))
    exp = expand_poset(lat, lat.interval_by_strings("101", "000"))
    worked = (check_rank_recurrence(exp) is None
              and rank_gen(exp.lattice) == [1, 1, 3, 3, 1])
    _record(4, res.ok and worked,
            "rank recurrence on %d cuttings; zigzag worked case %s"
            % (res.checks, "reproduced" if worked else "WRONG"))


def test_criterion_05_q_d_recurrences(cutting):
    res = cutting["q-d-recurrences"]
    _record(5, res.ok, "q and both d recurrences on %d cuttings, q census "
            "cross-checked by the recurrence on P" % res.checks)


def test_criterion_06_binomial_transform(cutting):
    res = cutting["binomial"]
    _record(6, res.ok, "binomial transform both directions plus substitution "
            "on %d lattices" % res.checks)


def test_criterion_07_euler_relations(cutting):
    res = cutting["euler"]
    _record(7, res.ok, "Q(-1)=1 and Q'(-1)=|Mi| on %d lattices" % res.checks)


def test_criterion_08_fibonacci_suite():
    res = verify_fibonacci(max_s=16)
    spot = filter_lattice(fence(16)).size == fib(18) == 2584
    ok = res.ok and spot and res.elapsed < 30.0
    _record(8, ok, "fence deletions for m+n-2<=16 (%d pairs) in %.2fs "
            "(budget 30s); |F(fence(16))|=2584 %s"
            % (res.checks, res.elapsed, "confirmed" if spot else "WRONG"))


def test_criterion_09_lucas_suite():
    res = verify_lucas(max_two_n=10)
    spot = lucas_cube(10).vertex_count == lucas(10) == 123
    ok = res.ok and spot and res.elapsed < 30.0
    _record(9, ok, "crown deletions for 2n<=10 (%d cases) in %.2fs (budget "
            "30s); |Lucas cube(10)|=123 %s"
            % (res.checks, res.elapsed, "confirmed" if spot else "WRONG"))


def test_criterion_10_cube_graphs():
    res = verify_cubes(max_fence=9)
    spot = fibonacci_cube(9).vertex_count == fib(11) == 89
    ok = res.ok and spot and res.elapsed < 10.0
    _record(10, ok, "covering graphs match string cubes, fences 0..9 and "
            "crowns 4..10 in %.2fs (budget 10s)" % res.elapsed)


def test_criterion_11_degree_symmetry(cutting):
    res = cutting["degree-symmetry"]
    _record(11, res.ok, "d-=d+=antichain census of Mi on %d lattices"
            % res.checks)


def test_criterion_12_determinism(capsys, monkeypatch):
    runs = []
    for _ in range(2):
        assert cli_run(["family", "fence", "3"]) == 0
        fam = capsys.readouterr()[0]
        monkeypatch.setattr(sys, "stdin", io.StringIO(fam))
        assert cli_run(["stats"]) == 0
        runs.append((fam, capsys.readouterr()[0]))
    z3_text = write_poset_file(poset_from_covers(["a", "b", "c"],
                                                 [("b", "a"), ("b", "c")]))
    dots = []
    for _ in range(2):
        monkeypatch.setattr(sys, "stdin", io.StringIO(z3_text))
        assert cli_run(["export-dot"]) == 0
        dots.append(capsys.readouterr()[0])
    golden = (DATA / "z3_lattice.dot").read_text()
    stats = runs[0][1]
    ok = (runs[0] == runs[1] and dots[0] == dots[1] == golden
          and '"q": [5, 5, 1]' in stats and '"size": 5' in stats
          and '"euler_ok": true' in stats)
    _record(12, ok, "family|stats and export-dot byte-identical across runs, "
            "DOT matches the golden file")
