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


def cases():
    """name -> (argv, stdin) of every case in the corpus."""
    return {
        "cutting-fence-12": (["cutting"], family("fence", 12)),
        "cutting-crown-12": (["cutting"], family("crown", 12)),
        "cutting-antichain-8": (["cutting"], family("antichain", 8)),
        "cutting-fence-6-interval": (
            ["cutting", "--bottom", "111011", "--top", "001010"],
            family("fence", 6)),
        "cutting-bottom-without-top": (
            ["cutting", "--bottom", "111011"], family("fence", 6)),
    }


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
