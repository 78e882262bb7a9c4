"""The planted-fault corpus of tests/tools/plants.py stays well-formed."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _plants():
    spec = importlib.util.spec_from_file_location(
        "plants", os.path.join(ROOT, "tests", "tools", "plants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PLANTS


PLANTS = _plants()


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_each_plant_edits_one_place_in_the_tree(name):
    # A plant whose old text moved, or occurs twice, would plant nothing
    # or the wrong thing.
    rel, old, new = PLANTS[name]
    with open(os.path.join(ROOT, rel)) as f:
        text = f.read()
    assert text.count(old) == 1
    assert new != old
