"""One workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--probe]

Set-up (import latcut, make the inputs and their oracles, one warm-up item)
ends with ``setup_end``, a CLOCK_MONOTONIC reading the parent compares with
the moment it started this process.  With --probe the worker stops there.
Otherwise it times a fixed number of whole passes over the item list
(workloads.PASSES_PER_20_S, scaled to SECONDS), one item at a time, and
checks each result after its timer stops.  With TRACE 1 it times half that
many passes untraced and then the same passes traced, for per-layer numbers
and the tracing overhead.  The last line of stdout is one JSON object.

Every timing comes with a speed factor, REF_S over the time the reference
loop took right around it (see ``reference``); run.py reports each time
multiplied by its factor, that is, at the reference speed.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# The reference loop's time at the reference speed.  The shared VM this
# benchmark was built on changes speed by up to 1.8x within minutes, as
# other tenants come and go, and the loop slows down and speeds up with it.
# In a trial over eight seeds, scaling by it cut the spread (interquartile
# range over median) of stats-large's median latency from 0.27 to 0.04.
REF_S = 3.5e-3


def reference():
    """Seconds a fixed piece of pure-Python work takes now.  It never calls
    latcut, so no change to the program moves it."""
    t0 = time.perf_counter()
    d, m = {}, 0
    for i in range(8000):
        m ^= (i * 2654435761) & 0xFFFFF
        d[m & 1023] = (i, m.bit_count())
    return time.perf_counter() - t0


def classify(item, outcome, error):
    """'ok', 'known' (the documented defect) or what went wrong."""
    if error is not None:
        if item.known_defect == type(error).__name__:
            return "known"
        return "raised %s: %s" % (type(error).__name__, str(error)[:200])
    try:
        wrong = item.check(outcome)
    except Exception as e:  # a malformed result is a wrong answer
        wrong = "unreadable result (%s: %s)" % (type(e).__name__, e)
    return "ok" if wrong is None else wrong


def timed_passes(items, passes, tracer=None):
    """Run the passes with the reference loop between items.  Returns the
    latencies in s, their speed factors, the verdicts and the stdout bytes."""
    latencies, factors, verdicts = [], [], []
    stdout_bytes = 0
    before = reference()
    for p in range(passes):
        for i, item in enumerate(items):
            outcome = error = None
            call = item.run
            if tracer is not None:
                call = functools.partial(tracer.run_item, p * len(items) + i,
                                         item.run)
            t0 = time.perf_counter()
            try:
                outcome = call()
            except Exception as e:
                error = e
            latencies.append(time.perf_counter() - t0)
            after = reference()
            factors.append(2 * REF_S / (before + after))
            before = after
            verdicts.append(classify(item, outcome, error))
            # CLI items return (exit code, stdout).
            if isinstance(outcome, tuple) and len(outcome) == 2 \
                    and isinstance(outcome[1], str):
                stdout_bytes += len(outcome[1].encode())
    return latencies, factors, verdicts, stdout_bytes


def main(argv):
    workload_name, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    trace = argv[3] == "1"
    ref_start = reference()
    import workloads
    wl = workloads.build(workload_name, seed)
    src = sys.modules["latcut"].__file__
    if not Path(src).resolve().is_relative_to(HERE.parent / "src"):
        raise SystemExit("latcut was imported from %s, not from src/" % src)
    try:
        wl.warmup.run()
    except Exception:  # a failure shows, and is counted, in the passes
        pass
    setup_end = time.monotonic()
    setup = {"setup_end": setup_end,
             "setup_factor": 2 * REF_S / (ref_start + reference())}
    if "--probe" in argv:
        print(json.dumps(setup))
        return 0

    passes = max(1, round(workloads.PASSES_PER_20_S[workload_name]
                          * seconds / 20))
    result = dict(setup, census=[it.census() for it in wl.items])
    if not trace:
        lat, factors, verdicts, _ = timed_passes(wl.items, passes)
    else:
        import spans
        passes = max(1, passes // 2)
        plain, plain_factors, _, _ = timed_passes(wl.items, passes)
        tracer = spans.Tracer()
        tracer.install()
        try:
            lat, factors, verdicts, out_bytes = timed_passes(
                wl.items, passes, tracer)
        finally:
            tracer.uninstall()
        failed = sum(v != "ok" for v in verdicts)
        result["layers"] = spans.layer_metrics(
            tracer.spans, passes, statistics.median(factors),
            scaled(lat, factors), scaled(plain, plain_factors),
            {"cli.stdout_bytes": out_bytes, "failed_frac": failed / len(verdicts)})
        result["spans_file"] = write_spans(tracer.spans, workload_name, seed)
    result.update(passes=passes, latencies=lat, factors=factors,
                  verdicts=verdicts,
                  rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


def scaled(times, factors):
    """Total time at the reference speed."""
    return sum(t * f for t, f in zip(times, factors))


def write_spans(rows, workload_name, seed):
    """Spans as gzip'd tab-separated lines: name, start, end, parent, item,
    note, error."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("%s-seed%d-spans.tsv.gz" % (workload_name, seed))
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\titem\tnote\terror\n")
        for r in rows:
            fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%d\t%s\n"
                     % (r[0], r[1], r[2], r[3], r[4], r[5], r[6] or ""))
    return os.path.relpath(path, HERE.parent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
