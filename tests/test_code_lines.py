"""tests/tools/code_lines.py counts code lines by one rule: non-blank
lines that are neither comments nor docstrings, def lines counted."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tests", "tools", "code_lines.py"))
TOOL = importlib.util.module_from_spec(spec)
spec.loader.exec_module(TOOL)

SOURCE = '''\
"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line


# a comment alone
def total(xs):
    """A function docstring."""

    pairs = [(x,
              x + 1)   # one expression, three lines

             for x in xs]
    return sum(a + b for a, b in pairs)


class Box:
    """A class docstring."""
    @property
    def size(self):
        return len(os.sep)
'''


def test_the_count_skips_blanks_comments_and_docstrings():
    """Code lines: 4, the import; 8, 11, 12 and 14, the def and the three
    code lines of one expression around a blank one; 15; 18; 20 to 22, the
    decorator, the def and the return."""
    lines, _ = TOOL.code_lines(SOURCE)
    assert sorted(lines) == [4, 8, 11, 12, 14, 15, 18, 20, 21, 22]
    out, count = TOOL.report("box.py", SOURCE)
    assert out == ["box.py 10", "  total 5", "  Box.size 3"]
    assert count == 10
