"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import latcut.cli  # noqa: E402,F401
import oracles as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from worker import REF_S, classify, reference  # noqa: E402

RNG = random.Random(0)


def spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# -- every metric is declared with its unit -----------------------------------


def test_end_to_end_metrics_match_the_spec():
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    fake = {"latencies": [0.01 * (i + 1) for i in range(30)],
            "factors": [0.5] * 30, "rss_kib": 2048}
    got = run.end_to_end(fake, [0.5, 0.4, 0.6])
    assert {k: v["unit"] for k, v in got.items()} == declared
    assert all(v["value"] > 0 for v in got.values())
    assert got["latency_tail_ms"]["value"] == pytest.approx(100.0)
    assert got["items_per_s"]["value"] == pytest.approx(30 / (0.5 * 4.65))


def test_layer_metrics_match_the_spec():
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    got = spans.layer_metrics([], 1, 1.0, 1.0, 1.0,
                              {"cli.stdout_bytes": 0, "failed_frac": 0.0})
    assert {k: v["unit"] for k, v in got.items()} == declared


def test_workload_names_match_the_spec():
    assert [w["name"] for w in spec()["workloads"]] == list(W.WORKLOADS)


def test_tail_has_ten_items_beyond_it():
    lat = list(range(100))
    value, pct, n = run.tail(lat)
    assert sum(x > value for x in lat) == 10 and pct == 90.0 and n == 100


# -- closed forms and sum rules against subset scans --------------------------


@pytest.mark.parametrize("k", range(0, 9))
def test_closed_forms(k):
    assert len(O.filters_by_scan(O.fence(k))) == O.fib(k + 2)
    assert len(O.filters_by_scan(O.antichain(k))) == 1 << k
    assert len(O.filters_by_scan(O.chain(k))) == k + 1
    if k >= 2:
        assert len(O.filters_by_scan(O.crown(2 * k))) == O.lucas(2 * k)


def test_sum_rules():
    a, b = O.fence(4), O.crown(4)
    fa, fb = len(O.filters_by_scan(a)), len(O.filters_by_scan(b))
    assert len(O.filters_by_scan(O.union(a, b))) == fa * fb
    assert len(O.filters_by_scan(O.ordinal_sum(a, b))) == fa + fb - 1


@pytest.mark.parametrize("order, want", [
    (O.fence(12), 774), (O.fence(13), 1242), (O.crown(12), 667),
    (O.antichain(8), 511), (O.antichain(3), 15)])
def test_cutting_count_matches_known_listings(order, want):
    assert O.interval_and_cutting_counts(order)[1] == want


def test_cutting_count_matches_the_cli_on_a_composite():
    c = W.composite(random.Random(5), 20, 40, 5, 7, 4)
    item = W._cutting_item("c", c.order, RNG)
    assert classify(item, item.run(), None) == "ok"


# -- each oracle catches a planted wrong answer -------------------------------


def _stats_outcome(item):
    rc, out = item.run()
    assert rc == 0
    return json.loads(out)


@pytest.mark.parametrize("plant", [
    lambda r: r.update(size=r["size"] + 1),
    lambda r: r.update(n=r["n"] - 1),
    lambda r: r["q"].__setitem__(1, r["q"][1] + 1),
    lambda r: r["d_plus"].__setitem__(0, r["d_plus"][0] + 1),
    lambda r: r["rank_poly"].__setitem__(0, r["rank_poly"][0] + 1),
])
def test_stats_oracle_catches_planted_errors(plant):
    item = W._stats_item("fence(6)", O.fence(6), O.fib(8), RNG)
    report = _stats_outcome(item)
    assert item.check((0, json.dumps(report))) is None
    plant(report)
    assert item.check((0, json.dumps(report))) is not None


def test_stats_oracle_checks_exit_codes():
    item = W._stats_item("fence(8) --cap 5", O.fence(8), O.fib(10), RNG, cap=5)
    assert item.rc == 2
    assert classify(item, item.run(), None) == "ok"
    assert item.check((0, "")) is not None
    assert item.check((2, "{}\n")) is not None


def test_cutting_oracle_catches_planted_errors():
    item = W._cutting_item("fence(4)", O.fence(4), RNG)
    rc, out = item.run()
    assert item.check((rc, out)) is None
    lines = out.splitlines(keepends=True)
    assert item.check((rc, "".join(lines[1:]))) is not None
    assert item.check((rc, "".join(lines[:-1] + lines[:1]))) is not None
    assert item.check((1, out)) is not None


def test_suite_oracle_catches_planted_errors():
    catalog = sys.modules["latcut.catalog"]
    batch = [O.Order(catalog.random_poset(catalog.trial_seed(9, 0), 7).up)]
    item = W._suite_item("s", 9, W._iso_pool(), batch)
    results = item.run()
    assert item.check(results) is None
    eq = results["cutting-equivalence"]
    line = eq.lines[0]
    cut = int(line.rsplit("=", 1)[1])
    eq.lines[0] = line.rsplit("=", 1)[0] + "=%d" % (cut + 1)
    assert item.check(results) is not None
    eq.lines[0] = line
    results["euler"].failures.append((1, "planted"))
    assert item.check(results) is not None


def test_family_oracles_catch_planted_errors():
    fib_item, lucas_item = W._fib_item(3, 4), W._lucas_item(3)
    for item in (fib_item, lucas_item):
        r = item.run()
        assert item.check(r) is None
        assert item.check(dataclasses.replace(
            r, lattice_size=r.lattice_size + 1)) is not None
        assert item.check(dataclasses.replace(r, count_ok=False)) is not None
    cube = W._cube_item("fence", 5)
    iso, got, model = cube.run()
    assert cube.check((iso, got, model)) is None
    assert cube.check((iso, got + 1, model)) is not None
    assert cube.check((False, got, model)) is not None


def test_known_defect_is_failed_but_not_wrong():
    item = W._stats_item("antichain(1200)", O.antichain(1200), 1 << 1200,
                         RNG, known=W.KNOWN_DEFECT)
    assert classify(item, None, RecursionError("deep")) == "known"
    assert classify(item, None, ValueError("x")).startswith("raised")
    other = W._stats_item("fence(3)", O.fence(3), O.fib(5), RNG)
    assert classify(other, None, RecursionError("deep")).startswith("raised")


def test_same_seed_same_inputs():
    for name in W.WORKLOADS:
        a = [it.census() for it in W.build(name, 3).items]
        b = [it.census() for it in W.build(name, 3).items]
        assert a == b and len(a) >= 9
    assert ([it.census() for it in W.build("families", 3).items]
            != [it.census() for it in W.build("families", 4).items])


# -- spans --------------------------------------------------------------------


def test_spans_nest_and_self_times_fit_in_the_wall():
    items = [W._stats_item("fence(6)", O.fence(6), O.fib(8), RNG),
             W._stats_item("fence(8) --cap 5", O.fence(8), O.fib(10), RNG, cap=5),
             W._cutting_item("fence(4)", O.fence(4), RNG),
             W._fib_item(3, 4), W._lucas_item(3), W._cube_item("crown", 6)]
    original = sys.modules["latcut.poset"].Poset.filters
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, item in enumerate(items):
            assert item.check(tracer.run_item(i, item.run)) is None
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert sys.modules["latcut.poset"].Poset.filters is original

    rows = tracer.spans
    names = {r[0] for r in rows}
    assert {"cli", "fileio.parse", "poset.filters", "lattice.build",
            "invariants.q_census", "invariants.q_scan", "expansion.is_cutting",
            "expansion.decompose", "families.graph_iso"} <= names
    for r in rows:
        assert r[1] <= r[2]
        if r[3] >= 0:
            parent = rows[r[3]]
            assert parent[1] <= r[1] and r[2] <= parent[2] and parent[4] == r[4]
        else:
            assert r[0] == spans.ROOT
    children = {}
    for r in rows:
        children.setdefault(r[3], []).append(r)
    for kids in children.values():
        for a, b in zip(kids, kids[1:]):
            assert a[2] <= b[1]
    own = spans.self_times(rows)
    assert min(own) >= 0 and sum(own) <= wall

    layers = spans.layer_metrics(rows, 1, 1.0, wall, wall,
                                 {"cli.stdout_bytes": 1, "failed_frac": 0.0})
    assert layers["poset.refusals"]["value"] == 1
    assert layers["invariants.q_scan.skipped"]["value"] == 0
    assert (layers["invariants.q_vector.auto_calls"]["value"]
            == layers["invariants.q_scan.calls"]["value"])


def test_composite_counts_follow_the_sum_rules():
    rng = random.Random(2)
    for _ in range(5):
        c = W.composite(rng, 30, 300, 4, 10, 5, intervals=True)
        intervals, _ = O.interval_and_cutting_counts(c.order)
        assert (len(O.filters_by_scan(c.order)), intervals) == (c.count,
                                                               c.intervals)


def test_reference_loop_is_near_its_nominal_time():
    # A speed factor far from 1 on an idle machine means REF_S is stale.
    ref = sorted(reference() for _ in range(21))[10]
    assert REF_S / 3 < ref < REF_S * 3
