"""The runtime dependencies declared in pyproject.toml are exactly what the
package imports, and every name the package exports is used outside the
tests."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latcut"


def _imported_packages():
    """Top-level names of every absolute import in src/latcut/*.py, without
    the standard library and latcut itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"latcut"}


def test_declared_runtime_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
             for d in declared}
    assert names == _imported_packages() == set()


def _loaded_after_importing_latcut(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, latcut, latcut.cli; print(%r in sys.modules)" % name],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_cli_leaves_networkx_out():
    assert _loaded_after_importing_latcut("networkx") == "False\n"


def test_no_package_file_names_networkx_or_reads_its_graphs():
    # networkx is a test-only dependency: graph_isomorphic takes CubeGraphs,
    # not objects read through networkx's ``.nodes()``.
    found = [(path.name, lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for lineno, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), start=1)
             if "networkx" in line or ".nodes()" in line]
    assert found == []


def test_importing_the_package_and_cli_leaves_numpy_out():
    # No module of the package imports numpy; the tests below check that
    # no run loads it either.
    assert _loaded_after_importing_latcut("numpy") == "False\n"


_STATS_ON_FENCE_12 = """\
import contextlib, io, json, sys
from latcut import fence, write_poset_file
from latcut.cli import cli_run
sys.stdin = io.StringIO(write_poset_file(fence(12)))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli_run(["stats"])
print(json.dumps([code, json.loads(out.getvalue())["size"],
                  "numpy" in sys.modules]))
"""


def test_stats_leaves_numpy_out_where_the_scan_is_affordable():
    # fence(12) has 377 filters, well inside the recurrence's work bound,
    # but `stats` reports the q census alone: only q_vector cross-checks it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _STATS_ON_FENCE_12],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 377, false]\n"


_NUMPY_AFTER = """\
import contextlib, io, json, sys
from latcut import fence, filter_lattice, q_vector
from latcut.cli import cli_run
out = io.StringIO()
with contextlib.redirect_stdout(out):
    %s
print(json.dumps([result, "numpy" in sys.modules]))
"""


def _numpy_loaded_after(statement):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_AFTER % statement],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_verify_run_on_small_lattices_leaves_numpy_out():
    # Posets of at most 5 elements: lattices of at most 32 elements and
    # expansions of at most 64, each checked by the recurrence on its base.
    assert _numpy_loaded_after(
        "result = cli_run(['verify', 'euler', '--trials', '20', "
        "'--max-size', '5'])") == "[0, false]\n"


def test_a_cross_check_past_the_int_kernel_leaves_numpy_out():
    # F(fence(16)) has 2584 elements: its census is checked by the
    # recurrence on fence(16).
    assert _numpy_loaded_after(
        "result = q_vector(filter_lattice(fence(16)))"
    ) == ("[[2584, 11822, 23109, 25088, 16435, 6588, 1554, 192, 9], "
          "false]\n")


def test_verify_fibonacci_at_its_defaults_leaves_numpy_out():
    # Lattices of up to 2584 elements, F(fence(16)) the largest, each
    # cross-checked.
    assert _numpy_loaded_after(
        "result = cli_run(['verify', 'fibonacci'])") == "[0, false]\n"


def test_family_fence_16_piped_to_lattice_leaves_numpy_out():
    # `latcut family fence 16 | latcut lattice`, both in one process.
    assert _numpy_loaded_after(
        "cli_run(['family', 'fence', '16']); "
        "sys.stdin = io.StringIO(out.getvalue()); "
        "result = cli_run(['lattice'])") == "[0, false]\n"


def _texts_outside_tests():
    """Every file where a public name can earn its place: the package
    modules other than __init__.py, the demos, README.md and the benchmark
    harness without its own tests (read, never written)."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "README.md")
    return [p.read_text(encoding="utf-8") for p in paths]


def test_every_public_name_is_used_outside_the_tests():
    import latcut

    texts = _texts_outside_tests()
    unused = []
    for name in latcut.__all__:
        word = re.compile(r"\b%s\b" % re.escape(name))
        own = re.compile(r"^\s*(?:def|class)\s+%s\b" % re.escape(name))
        if not any(word.search(line) and not own.match(line)
                   for text in texts for line in text.splitlines()):
            unused.append(name)
    assert unused == []
