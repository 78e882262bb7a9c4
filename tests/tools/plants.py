"""Run the corpus of planted faults against Tier-1 and the verify suites.

Each plant is one exact source edit: a file, a text that must occur in it
exactly once, and the text that replaces it.  A plant is applied to a
``git archive`` export of a revision in a temporary directory, never to
the working tree.  Per plant, Tier-1 runs with ``--hypothesis-seed=0`` and
each ``latcut verify`` suite that the exported tree names in
``latcut.verify.SUITE_NAMES`` runs at its defaults, every run a process
under a timeout.  Tier-1 loads this directory's ``time_limit`` plugin,
which fails any one test past its limit, so a plant that sends one test
into a very long loop costs that limit and the tests after it still run.
The JSON written holds, per plant, the failing test ids, Tier-1's exit
code, each suite's exit code, and whether any suite ended in a traceback.
Tier-1 prints one result line per test, so a run that hits its timeout
still lists the failures before it, and ``hung_test`` names the test it
was running (None when it finished).

    python tests/tools/plants.py [--rev REV] [--only NAME] [--tests PATH]
                                 [--out FILE]

``--rev`` defaults to HEAD; ``git stash create`` names a commit of the
working tree's tracked changes without touching it.  The Tier-1 test
``tests/test_plants.py`` checks that each old text occurs exactly once in
the tree, so a refactor that moves the code fails there instead of
turning its plant into a no-op.
"""

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(TOOLS))

# name -> (file, old text, new text)
PLANTS = {
    "census-histogram-off-by-one": (
        "src/latcut/invariants.py",
        "        hist[m.bit_count()] += 1\n",
        "        hist[m.bit_count() - 1] += 1\n"),
    "expand-drops-last-pair": (
        "src/latcut/expansion.py",
        "    big = DistLattice(cand, pairs)\n",
        "    big = DistLattice(cand, pairs[:-1])\n"),
    "expand-drops-new-element": (
        "src/latcut/expansion.py",
        "pairs.append((f | xbit, a & ~tf | (xbit if inside else 0)))",
        "pairs.append((f | xbit, a & ~tf))"),
    "x-bit-in-wrong-up-mask": (
        "src/latcut/expansion.py",
        "(xbit if below_x >> i & 1 else 0) for i in range(base.n)]",
        "(xbit if below_x >> (i + 1) & 1 else 0) for i in range(base.n)]"),
    "lattice-sorted-ascending": (
        "src/latcut/lattice.py",
        "pairs.sort(key=lambda pair: pair[0].bit_count(), reverse=True)",
        "pairs.sort(key=lambda pair: pair[0].bit_count())"),
    "walk-yields-a-for-a-or-bit": (
        "src/latcut/poset.py",
        "stack.append((a | bit, f | closed[j], later & incomp[j]))",
        "stack.append((a, f | closed[j], later & incomp[j]))"),
    "recurrence-drops-one-plus-t": (
        "src/latcut/invariants.py",
        "shifted = [0] + star",
        "shifted = [0]"),
    "recurrence-junction-off-by-one": (
        "src/latcut/invariants.py",
        "q[0] -= len(qs) - 1\n",
        "q[0] -= len(qs)\n"),
    "split-union-sweep-reads-up-only": (
        "src/latcut/poset.py",
        "new = ((up[j] | down[j]) ^ flip) & rest\n",
        "new = (up[j] ^ flip) & rest\n"),
    "backtrack-reuses-used-image": (
        "src/latcut/poset.py",
        "fit = alike[sig_g[v]] & ~used\n",
        "fit = alike[sig_g[v]]\n"),
    "backtrack-drops-stack-a-vertex-early": (
        "src/latcut/poset.py",
        "        if not rest:\n            stack.clear()\n",
        "        if not (up_g[v] | down_g[v]) & ~placed:\n"
        "            stack.clear()\n"),
    "placement-order-fewest-neighbours-first": (
        "src/latcut/poset.py",
        "most = in_use.bit_length() - 1\n",
        "most = (in_use & -in_use).bit_length() - 1\n"),
    "histogram-down-count-at-f-or-y": (
        "src/latcut/invariants.py",
        "down[index_of[f ^ y]] += 1\n",
        "down[index_of[f | y]] += 1\n"),
    "point-leaf-total-one-one": (
        "src/latcut/invariants.py",
        "done[mask] = [[1, 1], [1, 1], [1, 1], [0, 2]]\n",
        "done[mask] = [[1, 1], [1, 1], [1, 1], [1, 1]]\n"),
    "lucas-cube-cyclic-test-off-by-one": (
        "src/latcut/families.py",
        "if not (c & 1 and c >> two_n - 1 & 1)])",
        "if not (c & 1 and c >> two_n - 2 & 1)])"),
    "cover-cube-skips-lowest-minimum": (
        "src/latcut/families.py",
        "for f, m in zip(lat.filters, lat.minima):\n",
        "for f, m in zip(lat.filters, [m & m - 1 for m in lat.minima]):\n"),
    "rank-height-off-by-one": (
        "src/latcut/invariants.py",
        "        rank[n - f.bit_count()] += 1\n",
        "        rank[n - f.bit_count() - 1] += 1\n"),
    "move-back-middle-term-drops-bit": (
        "src/latcut/expansion.py",
        "return [m & low | (m & mid) << 1 | (m >> top) << i for m in masks]",
        "return [m & low | (m & mid & ~(1 << i)) << 1 | (m >> top) << i "
        "for m in masks]"),
    "compress-run-one-too-long": (
        "src/latcut/poset.py",
        "length = ((high + 1) & ~high).bit_length() - 1\n",
        "length = ((high + 1) & ~high).bit_length()\n"),
    "closure-ors-successor-bit-only": (
        "src/latcut/poset.py",
        "            m |= reached\n",
        "            m |= low\n"),
    "transpose-shifts-one-too-far": (
        "src/latcut/poset.py",
        'word |= int.from_bytes(flags, "little") << t\n',
        'word |= int.from_bytes(flags, "little") << t + 1\n'),
    "cover-test-deleted": (
        "src/latcut/poset.py",
        "                    if up[i] & down[j] == 0:\n"
        "                        covers.append((i, j))\n",
        "                    covers.append((i, j))\n"),
    "restrict-assumes-prefix": (
        "src/latcut/poset.py",
        "squeeze = _compress(keep_mask)\n",
        "squeeze = keep_mask.__and__\n"),
    "candidate-expansion-skips-transitivity": (
        "src/latcut/expansion.py",
        "    for w in iter_bits(below_x):\n"
        "        if above_x & ~base.up[w]:\n"
        "            return None\n",
        ""),
}

# Seconds per suite run; Tier-1 gets four times this.
TIMEOUT = 300


def apply(tree, name):
    """Apply plant ``name`` to the tree at ``tree``."""
    rel, old, new = PLANTS[name]
    path = os.path.join(tree, rel)
    with open(path) as f:
        text = f.read()
    if text.count(old) != 1:
        raise SystemExit("plant %s: the old text occurs %d times in %s"
                         % (name, text.count(old), rel))
    with open(path, "w") as f:
        f.write(text.replace(old, new))


def export(rev, dest):
    """Unpack ``git archive rev`` into ``dest``."""
    data = subprocess.run(["git", "-C", ROOT, "archive", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def _run(argv, cwd, timeout):
    """(exit code, or "timeout", stdout, stderr) of one process; on a
    timeout, whatever it wrote before it was killed.  This directory is on
    the path for the ``time_limit`` plugin."""
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join([os.path.join(cwd, "src"), TOOLS]))
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        return ("timeout", (e.stdout or b"").decode(errors="replace"),
                (e.stderr or b"").decode(errors="replace"))
    return proc.returncode, proc.stdout, proc.stderr


# A per-test line of ``pytest -v``: the test id, then its outcome once the
# test has one.
RESULT = re.compile(r"(\S+::.*?)(?: (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)"
                    r"\b.*)?$")


def tier1_results(out):
    """(failing test ids, sorted; the test that was running when the output
    ends, or None) from the per-test lines of ``pytest -v``.  A run killed
    in a test ends in that test's id with no outcome after it."""
    lines = out.splitlines()
    failing = set()
    for line in lines:
        m = RESULT.match(line)
        if m and m.group(2) in ("FAILED", "ERROR"):
            failing.add(m.group(1))
    m = RESULT.match(lines[-1]) if lines else None
    hung = m.group(1).rstrip() if m and m.group(2) is None else None
    return sorted(failing), hung


def suite_names(tree):
    """``latcut.verify.SUITE_NAMES`` of the tree at ``tree``."""
    code, out, err = _run([sys.executable, "-c", "from latcut.verify import "
                           "SUITE_NAMES; print(*SUITE_NAMES)"], tree, TIMEOUT)
    if code != 0:
        raise SystemExit("cannot read the suite names of %s:\n%s"
                         % (tree, err))
    return out.split()


def suite_results(tree, names):
    """Per suite of ``names``, run at its defaults in the tree at ``tree``:
    its exit code, and whether it ended in a traceback."""
    suites = {}
    for suite in names:
        c, _, err = _run([sys.executable, "-m", "latcut", "verify", suite],
                         tree, TIMEOUT)
        suites[suite] = {"exit": c,
                         "traceback": "Traceback (most recent" in err}
    return suites


def run_plant(rev, name, tests):
    with tempfile.TemporaryDirectory() as tree:
        export(rev, tree)
        names = suite_names(tree)
        apply(tree, name)
        code, out, _ = _run(
            [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
             "-p", "time_limit", "--hypothesis-seed=0", "--tb=no", tests],
            tree, TIMEOUT * 4)
        failing, hung = tier1_results(out)
        suites = suite_results(tree, names)
    return {"file": PLANTS[name][0], "tier1_exit": code,
            "failing_tests": failing, "hung_test": hung, "suites": suites,
            "traceback": any(s["traceback"] for s in suites.values())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD")
    ap.add_argument("--only", choices=sorted(PLANTS), metavar="NAME")
    ap.add_argument("--tests", default="tests",
                    help="the pytest path to run, Tier-1 by default")
    ap.add_argument("--out", help="write the JSON here, not to stdout")
    args = ap.parse_args(argv)
    names = [args.only] if args.only else list(PLANTS)
    report = {"rev": args.rev, "tests": args.tests,
              "plants": {name: run_plant(args.rev, name, args.tests)
                         for name in names}}
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
