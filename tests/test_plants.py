"""The planted-fault corpus of tests/tools/plants.py stays well-formed."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "plants", os.path.join(ROOT, "tests", "tools", "plants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()
PLANTS = TOOL.PLANTS


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_each_plant_edits_one_place_in_the_tree(name):
    # A plant whose old text moved, or occurs twice, would plant nothing
    # or the wrong thing.
    rel, old, new = PLANTS[name]
    with open(os.path.join(ROOT, rel)) as f:
        text = f.read()
    assert text.count(old) == 1
    assert new != old


HEADER = """\
============================= test session starts ==============================
platform linux -- Python 3.11.7, pytest-9.0.3, pluggy-1.6.0
rootdir: /tree
collecting ... collected 6 items

"""


def test_a_run_killed_in_a_test_names_it_and_the_failures_before_it():
    """Canned ``pytest -v`` output cut off while a test runs: the failures
    and errors before it are listed, passes and skips are not, and the
    test without an outcome is the hung one."""
    out = HEADER + (
        "tests/test_a.py::test_one PASSED                     [ 16%]\n"
        "tests/test_a.py::test_two FAILED                     [ 33%]\n"
        "tests/test_a.py::test_three ERROR                    [ 50%]\n"
        "tests/test_b.py::test_four[a b] SKIPPED (why)        [ 66%]\n"
        "tests/test_b.py::test_four[2] FAILED                 [ 83%]\n"
        "tests/test_b.py::test_five ")
    assert TOOL.tier1_results(out) == (
        ["tests/test_a.py::test_three", "tests/test_a.py::test_two",
         "tests/test_b.py::test_four[2]"], "tests/test_b.py::test_five")


def test_a_finished_run_has_no_hung_test():
    """The warnings summary repeats test ids without an outcome, and the
    short summary starts with the outcome: neither adds a failure, and the
    closing line leaves no test running."""
    out = HEADER + (
        "tests/test_a.py::test_one PASSED                     [ 50%]\n"
        "tests/test_a.py::test_two FAILED                     [100%]\n"
        "\n=============================== warnings summary ===\n"
        "tests/test_a.py::test_one\n"
        "  DeprecationWarning: old\n"
        "=========================== short test summary info ===\n"
        "FAILED tests/test_a.py::test_two - assert 0\n"
        "=================== 1 failed, 1 passed in 0.10s ===\n")
    assert TOOL.tier1_results(out) == (["tests/test_a.py::test_two"], None)
    assert TOOL.tier1_results("") == ([], None)


def test_the_tool_runs_the_suites_its_tree_names():
    # The tool reads the suite list off the tree it tests, so a suite added
    # to the table joins the corpus with no second list to keep.
    from latcut.verify import SUITE_NAMES

    assert TOOL.suite_names(ROOT) == list(SUITE_NAMES)
