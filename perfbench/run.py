"""latcut benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload stats-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
Each workload runs in its own fresh single-threaded process (see worker.py)
as a closed loop with one client.  Set-up is measured in that process and in
four more that only set up; ``setup_s`` is their median.  Every item is
checked against the oracles in oracles.py.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of spans.py.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the full result, with the
input census (n, |F| and expected exit code of every item), goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

Times are reported at the reference speed: the worker runs a fixed
pure-Python reference loop between items, and each measured time is
multiplied by worker.REF_S over the loop's time around it.  On the shared
VM the benchmark was built on, the speed drifts by up to 1.8x within
minutes, and raw wall times would differ by that much between runs of the
same code.  The raw times and factors are kept in the out file.

``failed`` counts items that raised, exited wrongly or disagreed with the
oracle.  ``correct`` is false when any item disagreed with its oracle or
failed in any way other than the one documented defect (workloads.py,
KNOWN_DEFECT).  Exit code 1, with no result line, when a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


class WorkerFailed(Exception):
    pass


def _worker(args, extra=(), timeout=170):
    """Start one worker; returns (its JSON result, when it was started)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker timed out after %d s" % timeout) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed("worker exited %d:\n%s"
                           % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def tail(latencies):
    """(value, percentile, count) for the highest percentile with at least
    ten items beyond it; the slowest item when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run, setups):
    """The end-to-end metrics, every time at the reference speed."""
    lat = [t * f for t, f in zip(run["latencies"], run["factors"])]
    value, _, _ = tail(lat)
    out = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * value,
        "peak_rss_mb": run["rss_kib"] / 1024.0,
    }
    return {name: {"value": out[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, started = _worker(args, ("--probe",), timeout=60)
                setups.append((probe["setup_end"] - started)
                              * probe["setup_factor"])
        run, started = _worker(args)
    except WorkerFailed as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    setups.append((run["setup_end"] - started) * run["setup_factor"])

    verdicts = run["verdicts"]
    wrong = sorted({v for v in verdicts if v not in ("ok", "known")})
    failed = sum(v != "ok" for v in verdicts)
    if args.trace:
        metrics = run["layers"]
    else:
        metrics = end_to_end(run, setups)

    for row in run["census"]:
        print("census " + json.dumps(row))
    for v in wrong:
        print("WRONG " + v)
    if failed:
        print("failed %d of %d items (%d the known defect)"
              % (failed, len(verdicts), verdicts.count("known")))
    print("speed factor: median %.3f over %d items"
          % (statistics.median(run["factors"]), len(verdicts)))
    _, pct, n = tail(run["latencies"])
    for name, m in metrics.items():
        note = (" (p%.1f of %d items)" % (pct, n)
                if name == "latency_tail_ms" else "")
        print("%-36s %14.6g %s%s" % (name, m["value"], m["unit"], note))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=setups, metrics=metrics, wrong=wrong,
                  tail_percentile=pct, **run)
    (out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                            args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": not wrong, "attempted": len(verdicts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
