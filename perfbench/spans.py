"""Spans around latcut's layer entry points, recorded from outside the
program, and the per-layer metrics derived from them.

``Tracer.install()`` replaces each listed method on its class and each
listed function under every name any ``latcut`` module binds it to
(``from .x import f`` binds a copy, so patching only the defining module
would miss callers).  A span is (name, start, end, parent, item, note,
error); ``note`` is a small per-call count taken from the arguments or the
result.  Self time is a span's duration minus that of its direct children.

``bits.*``, ``Poset.min_of`` and ``Poset.max_of`` are deliberately not
wrapped: they run about 10^6 times per run and wrapping them would distort
every proportion.  Their cost shows in ``lattice.build.self_s`` and
``invariants.q_census.self_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROOT = "bench.item"

# (span name, module, class or None, attribute, note taken after the call)
_TARGETS = (
    ("poset.filters", "poset", "Poset", "filters", lambda a, k, r: len(r)),
    ("poset.isomorphism", "poset", None, "poset_isomorphism", None),
    ("lattice.build", "lattice", "DistLattice", "__init__",
     lambda a, k, r: len(a[0].filters)),
    ("lattice.above_masks", "lattice", "DistLattice", "above_masks", None),
    ("lattice.mi_poset", "lattice", "DistLattice", "mi_poset", None),
    ("invariants.q_vector", "invariants", None, "q_vector",
     lambda a, k, r: int((a[1] if len(a) > 1 else k.get("method", "auto"))
                         == "auto")),
    ("invariants.q_census", "invariants", None, "_q_census", None),
    ("invariants.q_scan", "invariants", None, "_q_scan", None),
    ("invariants.d_vectors", "invariants", None, "d_vectors", None),
    ("invariants.stats_dict", "invariants", None, "stats_dict", None),
    ("invariants.recurrences", "invariants", None, "check_rank_recurrence", None),
    ("invariants.recurrences", "invariants", None, "check_q_recurrence", None),
    ("invariants.recurrences", "invariants", None, "check_d_recurrences", None),
    ("invariants.antichain_census", "invariants", None, "antichain_census", None),
    ("expansion.is_cutting", "expansion", None, "is_cutting",
     lambda a, k, r: int(bool(r))),
    ("expansion.expand", "expansion", None, "expand_poset", None),
    ("expansion.decompose", "expansion", None, "decompose", None),
    ("families.cube", "families", None, "cover_cube", None),
    ("families.cube", "families", None, "fibonacci_cube", None),
    ("families.cube", "families", None, "lucas_cube", None),
    ("families.graph_iso", "families", None, "graph_isomorphic", None),
    ("families.decomposition", "families", None,
     "verify_fibonacci_decomposition", None),
    ("families.decomposition", "families", None,
     "verify_lucas_decomposition", None),
    ("verify.suite", "verify", None, "run_cutting_suite",
     lambda a, k, r: sum(x.checks for x in r.values())),
    ("catalog", "catalog", None, "random_poset", None),
    ("catalog", "catalog", None, "posets_up_to_iso", None),
    ("fileio.parse", "fileio", None, "parse_poset_file", None),
    ("fileio.write", "fileio", None, "write_poset_file", None),
    ("cli", "cli", None, "cli_run", None),
)

# Per-layer metrics: name -> unit.  Times, calls and counts are per pass of
# the workload's item list.
LAYER_METRICS = {
    "poset.filters.self_s": "s",
    "poset.filters.calls": "count",
    "poset.filters.returned": "count",
    "poset.filters.us_per_filter": "us",
    "poset.refusals": "count",
    "poset.refusal.self_s": "s",
    "poset.isomorphism.self_s": "s",
    "lattice.build.self_s": "s",
    "lattice.build.calls": "count",
    "lattice.build.elements": "count",
    "lattice.build.us_per_element": "us",
    "lattice.above_masks.self_s": "s",
    "lattice.mi_poset.self_s": "s",
    "invariants.q_vector.auto_calls": "count",
    "invariants.q_census.self_s": "s",
    "invariants.q_scan.self_s": "s",
    "invariants.q_scan.calls": "count",
    "invariants.q_scan.skipped": "count",
    "invariants.d_vectors.self_s": "s",
    "invariants.stats_dict.self_s": "s",
    "invariants.recurrences.self_s": "s",
    "invariants.antichain_census.self_s": "s",
    "expansion.is_cutting.self_s": "s",
    "expansion.is_cutting.calls": "count",
    "expansion.cuttings_found": "count",
    "expansion.cutting_yield": "ratio",
    "expansion.expand.self_s": "s",
    "expansion.expand.total_s": "s",
    "expansion.expand.calls": "count",
    "expansion.decompose.self_s": "s",
    "expansion.decompose.total_s": "s",
    "expansion.decompose.calls": "count",
    "families.cube.self_s": "s",
    "families.graph_iso.self_s": "s",
    "families.decomposition.self_s": "s",
    "verify.suite.self_s": "s",
    "verify.checks": "count",
    "verify.checks_per_s": "1/s",
    "catalog.self_s": "s",
    "fileio.parse.self_s": "s",
    "fileio.write.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "bench.self_s": "s",
    "bench.speed_factor": "ratio",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = -1
        self._undo = []

    def span(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.item, 0, None]
            spans.append(row)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                row[6] = type(e).__name__
                raise
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                row[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target; ``uninstall`` puts the originals back."""
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "latcut" or key.startswith("latcut."))]
        for name, modname, cls, attr, note in _TARGETS:
            if cls is not None:
                owner = getattr(sys.modules["latcut." + modname], cls)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self.span(name, orig, note))
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(sys.modules["latcut." + modname], attr)
            wrapped = self.span(name, orig, note)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def run_item(self, item_id, fn):
        """Call ``fn`` under a root span for one item."""
        self.item = item_id
        return self.span(ROOT, fn)()


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, passes, factor, traced_wall, untraced_wall, extra):
    """Per-layer metrics from one traced run, per pass of the item list.

    Span times are multiplied by ``factor``, the run's median speed factor,
    to put them at the reference speed like the end-to-end times; the two
    walls are already at that speed.  ``extra`` carries what the spans
    cannot see: ``cli.stdout_bytes`` and ``failed_frac``.
    """
    own = [t * factor for t in self_times(spans)]
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(int)
    has_scan = set()
    for i, s in enumerate(spans):
        name = s[0]
        self_s[name] += own[i]
        total_s[name] += (s[2] - s[1]) * factor
        calls[name] += 1
        notes[name] += s[5]
        if name == "invariants.q_scan":
            has_scan.add(s[3])
    refused = [i for i, s in enumerate(spans)
               if s[0] == "poset.filters" and s[6] == "CapacityExceeded"]
    auto_q = [i for i, s in enumerate(spans)
              if s[0] == "invariants.q_vector" and s[5]]

    per = 1.0 / passes
    out = {}
    for metric in LAYER_METRICS:
        stem, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s[stem] * per
        elif kind == "total_s":
            out[metric] = total_s[stem] * per
        elif kind == "calls":
            out[metric] = calls[stem] * per
    out["bench.self_s"] = self_s[ROOT] * per
    out["poset.filters.returned"] = notes["poset.filters"] * per
    out["poset.filters.us_per_filter"] = (
        1e6 * self_s["poset.filters"] / notes["poset.filters"]
        if notes["poset.filters"] else 0.0)
    out["poset.refusals"] = len(refused) * per
    out["poset.refusal.self_s"] = sum(own[i] for i in refused) * per
    out["lattice.build.elements"] = notes["lattice.build"] * per
    out["lattice.build.us_per_element"] = (
        1e6 * self_s["lattice.build"] / notes["lattice.build"]
        if notes["lattice.build"] else 0.0)
    out["invariants.q_vector.auto_calls"] = len(auto_q) * per
    out["invariants.q_scan.skipped"] = sum(
        1 for i in auto_q if i not in has_scan) * per
    found, tested = notes["expansion.is_cutting"], calls["expansion.is_cutting"]
    out["expansion.cuttings_found"] = found * per
    out["expansion.cutting_yield"] = found / tested if tested else 0.0
    out["verify.checks"] = notes["verify.suite"] * per
    out["verify.checks_per_s"] = (notes["verify.suite"] / total_s["verify.suite"]
                                  if total_s["verify.suite"] else 0.0)
    out["cli.stdout_bytes"] = extra["cli.stdout_bytes"] * per
    out["failed_frac"] = extra["failed_frac"]
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["bench.speed_factor"] = factor
    return {name: {"value": out[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}
