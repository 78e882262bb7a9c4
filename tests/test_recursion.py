"""No function in latcut calls itself.

Python's recursion limit is about a thousand frames, so a recursion whose
depth grows with the input ends in a RecursionError traceback on a large
enough poset (a 1100-element chain once did so in the isomorphism search).
Every search in the package keeps its own stack instead; this test keeps it
that way."""

import ast
from pathlib import Path

import latcut

SRC = Path(latcut.__file__).parent


def _self_calls(source):
    """(function name, line) of every call ``f(...)`` inside ``def f`` and
    every ``self.f(...)`` inside a method ``f``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                direct = callee.id == fn.name
            else:
                direct = (isinstance(callee, ast.Attribute)
                          and callee.attr == fn.name
                          and isinstance(callee.value, ast.Name)
                          and callee.value.id == "self")
            if direct:
                found.append((fn.name, node.lineno))
    return found


def test_the_check_sees_self_calls():
    source = '''
def walk(node):
    def extend(k):
        return extend(k + 1)
    return walk(node.next)

class Lattice(Base):
    def __init__(self):
        super().__init__()

    def bitstring(self, a):
        return self.base.bitstring(a)

    def size(self):
        return self.size() + 1
'''
    assert sorted(_self_calls(source)) == [("extend", 4), ("size", 15),
                                           ("walk", 5)]


def test_no_function_in_latcut_calls_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [(path.name, name, line) for path in paths
             for name, line in _self_calls(path.read_text())]
    assert found == []
