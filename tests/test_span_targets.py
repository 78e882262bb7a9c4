"""The benchmark's span table names latcut entry points by module and
attribute, and ``perfbench/run.py --trace 1`` looks each one up when it
installs its wrappers.  A rename or a deletion in the package must fail here
rather than break the traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import latcut

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_latcut_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    assert spans._TARGETS
    for name, modname, cls, attr, _note in spans._TARGETS:
        module = importlib.import_module("latcut." + modname)
        if cls is not None:
            # Tracer.install reads a method from its class's own dict.
            assert attr in vars(getattr(module, cls)), (name, cls, attr)
        else:
            assert callable(getattr(module, attr, None)), (name, modname, attr)


def test_tracer_installs_and_restores_every_target():
    spans = _load_spans()
    before = {key: dict(vars(m)) for key, m in sys.modules.items()
              if m is not None and key.split(".")[0] == "latcut"}
    methods = {(modname, cls, attr):
               vars(getattr(sys.modules["latcut." + modname], cls))[attr]
               for _, modname, cls, attr, _ in spans._TARGETS if cls}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer._undo
        lat = latcut.filter_lattice(latcut.fence(3))
        latcut.q_vector(lat)
        assert {s[0] for s in tracer.spans} >= {"lattice.build",
                                                "invariants.q_vector"}
    finally:
        tracer.uninstall()
    after = {key: dict(vars(sys.modules[key])) for key in before}
    for key, names in before.items():
        for attr, value in names.items():
            assert after[key][attr] is value, (key, attr)
    for (modname, cls, attr), value in methods.items():
        owner = getattr(sys.modules["latcut." + modname], cls)
        assert vars(owner)[attr] is value, (cls, attr)
