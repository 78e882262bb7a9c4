"""Write the CLI transcript corpus under tests/data/transcripts/.

Each case is one JSON file holding the argv, the stdin, the stdout, the
stderr and the exit code of one in-process ``cli_run`` call.  The Tier-1
test ``tests/test_transcripts.py`` replays every file and compares the
stdout, the stderr and the exit code byte for byte, so regenerate a case
only when its output changes on purpose, and name the case and the reason
in CHANGES.md.

    PYTHONPATH=src python tests/tools/transcripts.py --write
"""

import argparse
import contextlib
import io
import json
import os
import sys

from latcut.cli import cli_run
from latcut.verify import _CUTTING_TOPICS

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "data", "transcripts")


def run(argv, stdin=""):
    """(exit code, stdout, stderr) of ``cli_run(argv)`` fed ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def family(kind, n):
    code, out, err = run(["family", kind, str(n)])
    assert (code, err) == (0, ""), err
    return out


# The poset with covers b < a and b < c; its lattice holds [101, 000].
Z3 = "element a b c\ncover b a\ncover b c\n"

# Each is refused before the input is read; their stdin does not parse.
USAGE_ERRORS = {
    "cutting-bottom-alone": ["cutting", "--bottom", "1"],
    "dot-highlight-one-end": ["export-dot", "--highlight", "101"],
    "dot-expand-one-end": ["export-dot", "--expand", "101"],
    "dot-highlight-and-expand": ["export-dot", "--highlight", "101,000",
                                 "--expand", "101,000"],
    "dot-highlight-empty": ["export-dot", "--highlight", ""],
    "dot-expand-empty": ["export-dot", "--expand", ""],
    "dot-highlight-empty-and-expand": ["export-dot", "--highlight", "",
                                       "--expand", "101,000"],
}


def cases():
    """name -> (argv, stdin) of every case in the corpus."""
    fence12 = family("fence", 12)
    out = {
        "cutting-fence-12": (["cutting"], fence12),
        "cutting-crown-12": (["cutting"], family("crown", 12)),
        "cutting-antichain-8": (["cutting"], family("antichain", 8)),
        "cutting-fence-6-interval": (
            ["cutting", "--bottom", "111011", "--top", "001010"],
            family("fence", 6)),
        "cutting-bottom-without-top": (
            ["cutting", "--bottom", "111011"], family("fence", 6)),
        "decompose-fence-5-at-4": (["decompose", "4"], family("fence", 5)),
        "expand-z3": (["expand", "--bottom", "101", "--top", "000"], Z3),
        "expand-z3-label": (["expand", "--bottom", "101", "--top", "000",
                             "--label", "d"], Z3),
        "expand-fence-3-taken-label": (
            ["expand", "--bottom", "101", "--top", "000", "--label", "1"],
            family("fence", 3)),
        "export-dot-z3": (["export-dot"], Z3),
        "export-dot-z3-highlight": (["export-dot", "--highlight", "101,000"],
                                    Z3),
        "export-dot-z3-expand": (["export-dot", "--expand", "101,000"], Z3),
        "cube-fibonacci-6": (["cube", "fibonacci", "6"], ""),
        "cube-lucas-6": (["cube", "lucas", "6"], ""),
        "cube-cover-fence-6": (["cube", "cover", "-"], family("fence", 6)),
    }
    for command in ("stats", "filters", "lattice", "mi"):
        out["%s-fence-12" % command] = ([command], fence12)
    for suite in _CUTTING_TOPICS + ("birkhoff", "random"):
        out["verify-%s-trials-3-size-4-seed-9" % suite] = (
            ["verify", suite, "--trials", "3", "--max-size", "4",
             "--seed", "9"], "")
    for suite in ("fibonacci", "lucas", "cubes"):
        out["verify-%s-max-8" % suite] = (["verify", suite, "--max", "8"], "")
    for suite in ("lucas", "cubes", "random"):
        out["verify-%s" % suite] = (["verify", suite], "")
    for suite in ("random", "birkhoff", "euler"):
        out["verify-%s-size-0" % suite] = (
            ["verify", suite, "--max-size", "0"], "")
    out["verify-euler-trials-0-size-0"] = (
        ["verify", "euler", "--trials", "0", "--max-size", "0"], "")
    for name, argv in USAGE_ERRORS.items():
        out["usage-" + name] = (argv, "cover a b\n")
    return out


def write():
    os.makedirs(CORPUS, exist_ok=True)
    for name, (argv, stdin) in cases().items():
        code, out, err = run(argv, stdin)
        case = {"argv": argv, "stdin": stdin, "stdout": out, "stderr": err,
                "exit": code}
        with open(os.path.join(CORPUS, name + ".json"), "w") as f:
            json.dump(case, f, indent=1)
            f.write("\n")
        print("%s: exit %d, %d stdout bytes" % (name, code, len(out)))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="regenerate every case of the corpus")
    parser.parse_args()
    write()
