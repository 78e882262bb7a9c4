"""Count the code lines of Python files.

A code line is a non-blank line that is neither a comment nor part of a
docstring; def and class lines count.  A line counts once, however many
statements or parts of one expression it holds.  A docstring is a string
statement that opens the body of a module, class or function.

    python3 tests/tools/code_lines.py PATH...

Each PATH is a file, or a directory searched for ``*.py`` files.  For each
file the tool prints its path and count, then, indented, the count of each
function and method in it by qualified name, from its first decorator to
its last line; last, the total over all files.
"""

import ast
import io
import os
import sys
import tokenize

# Tokens that put no code on a line.
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """(the set of the code lines' numbers, the parsed module)."""
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NO_CODE:
            lines.update(i for i in range(tok.start[0], tok.end[0] + 1)
                         if text[i - 1].strip())
    return lines - docs, tree


def functions(tree, prefix=""):
    """(qualified name, first line, last line) of every function and method
    under ``tree``, outer ones before those they hold."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, *_FUNCTIONS)):
            name = prefix + node.name
            if isinstance(node, _FUNCTIONS):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                yield name, first, node.end_lineno
            yield from functions(node, name + ".")


def report(path, source):
    """The lines printed for one file, and its count."""
    lines, tree = code_lines(source)
    out = ["%s %d" % (path, len(lines))]
    for name, first, last in functions(tree):
        out.append("  %s %d" % (name, sum(first <= i <= last for i in lines)))
    return out, len(lines)


def python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, name) for name in sorted(names)
                            if name.endswith(".py"))
        else:
            yield path


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        raise SystemExit("usage: code_lines.py PATH...")
    total = 0
    for path in python_files(paths):
        with open(path) as f:
            out, count = report(path, f.read())
        print(*out, sep="\n")
        total += count
    print("total %d" % total)


if __name__ == "__main__":
    main()
