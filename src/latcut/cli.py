"""Command line interface.

Subcommands exchange posets in the text file format (see fileio), so they
compose through pipes:

    latcut family fence 3 | latcut stats
    latcut family crown 6 | latcut expand --bottom 111110 --top 000000 | latcut mi

Exit codes: 0 success, 1 a verified property failed, 2 usage or input errors.
All output is deterministic for fixed inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import LatcutError
from .expansion import (CUTTING_METHODS, cuttings, decompose, expand_poset,
                        is_cutting)
from .families import (antichain, chain, cover_cube, crown, fence,
                       fibonacci_cube, lucas_cube)
from .fileio import (ELEMENT_MAX, export_dot, parse_poset_file,
                     write_poset_file)
from .invariants import poset_stats
from .lattice import filter_lattice
from .poset import FILTER_CAP
from .verify import SUITE_NAMES, run_suite

_FAMILIES = {"fence": fence, "crown": crown, "chain": chain,
             "antichain": antichain}


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_poset(path):
    return parse_poset_file(_read_text(path))


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def build_parser():
    ap = argparse.ArgumentParser(
        prog="latcut",
        description="Finite distributive lattices via their base posets: "
                    "cutting intervals, convex expansion, counting invariants,"
                    " and the fence/crown cube families.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, help_text, poset_input=True):
        p = sub.add_parser(name, help=help_text)
        if poset_input:
            p.add_argument("input", nargs="?", default="-",
                           help="poset file ('-' = stdin, the default)")
        p.add_argument("--out", help="write output to this path")
        if poset_input or name == "cube":
            p.add_argument("--cap", type=int, default=FILTER_CAP,
                           help="abort beyond this many filters")
        return p

    cmd("filters", "list the filters of F(P), one bitstring per line")
    cmd("lattice", "describe F(P) as JSON (elements, heights, covers)")
    cmd("mi", "poset of meet-irreducibles of F(P), as a poset file")

    p = cmd("cutting", "test an interval, or list all cutting intervals")
    p.add_argument("--bottom", help="filter bitstring of the interval bottom")
    p.add_argument("--top", help="filter bitstring of the interval top")

    p = cmd("expand", "convex expansion at a cutting interval; outputs the "
                      "enlarged base poset")
    p.add_argument("--bottom", required=True)
    p.add_argument("--top", required=True)
    p.add_argument("--label", help="label for the new element")

    p = cmd("decompose", "split F(P) at an element and report the round trip")
    p.add_argument("element", help="label of the element to split at")

    cmd("stats", "JSON report of the counting invariants of F(P)")

    p = cmd("family", "generate a named poset family member", poset_input=False)
    p.add_argument("kind", choices=sorted(_FAMILIES))
    p.add_argument("n", type=int, help="number of elements")

    p = cmd("cube", "binary-string cube graphs as 'u v' edge lists",
            poset_input=False)
    p.add_argument("kind", choices=["fibonacci", "lucas", "cover"])
    p.add_argument("arg", help="dimension, or a poset file for 'cover'")

    p = cmd("verify", "run a named verification suite", poset_input=False)
    p.add_argument("suite", choices=list(SUITE_NAMES))
    p.add_argument("--trials", type=int, help="random posets to draw")
    p.add_argument("--max-size", type=int,
                   help="largest random poset; the cutting suites also walk "
                        "every poset up to min(5, this) elements")
    p.add_argument("--seed", type=int, help="base seed for the random layer")
    p.add_argument("--max", type=int, dest="max_param",
                   help="family bound (fibonacci: m+n-2, lucas: 2n, "
                        "cubes: fence size, crowns one more)")

    p = cmd("export-dot", "DOT Hasse diagram of F(P)")
    p.add_argument("--highlight", metavar="B,T",
                   help="mark the interval with these endpoint bitstrings")
    p.add_argument("--expand", metavar="B,T", dest="expand_at",
                   help="expand at this cutting first and mark both copies")
    return ap


@functools.cache
def _parser():
    """The one parser of this process: building it costs more than most
    commands, and parsing leaves it unchanged."""
    return build_parser()


def cli_run(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except LatcutError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except AssertionError as e:
        # A built-in cross-check (the q census against the interval scan,
        # the boundary partition, an expansion step) found a contradiction.
        print("error: verified property failed: %s" % e, file=sys.stderr)
        return 1


def _dispatch(args):
    out = getattr(args, "out", None)
    cap = getattr(args, "cap", FILTER_CAP)

    if args.command == "filters":
        lat = filter_lattice(_read_poset(args.input), cap=cap)
        _emit("".join(lat.bitstring(a) + "\n" for a in range(lat.size)), out)
        return 0

    if args.command == "lattice":
        lat = filter_lattice(_read_poset(args.input), cap=cap)
        _emit(_json_line({
            "size": lat.size,
            "elements": [lat.bitstring(a) for a in range(lat.size)],
            "heights": list(lat.heights),
            "covers": [[a, b] for a in range(lat.size)
                       for b in lat.up_covers[a]],
            "mi": list(lat.meet_irreducibles()),
        }), out)
        return 0

    if args.command == "mi":
        lat = filter_lattice(_read_poset(args.input), cap=cap)
        _emit(write_poset_file(lat.mi_poset()), out)
        return 0

    if args.command == "cutting":
        if (args.bottom is None) != (args.top is None):
            print("error: --bottom and --top go together", file=sys.stderr)
            return 2
        lat = filter_lattice(_read_poset(args.input), cap=cap)
        if args.bottom is None:
            bits = [lat.bitstring(a) for a in range(lat.size)]
            _emit("".join(["%s %s\n" % (bits[a], bits[b])
                           for a, b in cuttings(lat)]), out)
            return 0
        k = lat.interval_by_strings(args.bottom, args.top)
        votes = {m: is_cutting(lat, k, m) for m in CUTTING_METHODS}
        if len(set(votes.values())) != 1:
            _emit("cutting: DISAGREE (%s)\n" % ",".join(
                "%s=%s" % (m, str(v).lower()) for m, v in votes.items()), out)
            return 1
        _emit("cutting: %s (%s agree)\n"
              % (str(votes["chains"]).lower(), ",".join(CUTTING_METHODS)), out)
        return 0

    if args.command == "expand":
        lat = filter_lattice(_read_poset(args.input), cap=cap)
        exp = expand_poset(lat, lat.interval_by_strings(args.bottom, args.top),
                           label=args.label, cap=cap)
        _emit(write_poset_file(exp.poset), out)
        return 0

    if args.command == "decompose":
        p = _read_poset(args.input)
        dec = decompose(p, args.element, cap=cap)
        host, k = dec.expansion.host, dec.expansion.interval
        _emit(_json_line({
            "element": args.element,
            "size": dec.size,
            "host_size": host.size,
            "interval_size": len(host.between(*k)),
            "interval": [host.bitstring(k.bottom), host.bitstring(k.top)],
            "counts_ok": dec.counts_ok,
            "expansion_iso_ok": dec.expansion_iso_ok,
            "product_form": dec.product_form,
            "product_iso_ok": dec.product_iso_ok,
        }), out)
        return 0 if dec.counts_ok and dec.expansion_iso_ok else 1

    if args.command == "stats":
        _emit(_json_line(poset_stats(_read_poset(args.input), cap=cap)), out)
        return 0

    if args.command == "family":
        if args.n < 0:
            raise LatcutError("n must not be negative, got %d" % args.n)
        if args.n > ELEMENT_MAX:
            raise LatcutError("n must be at most %d, got %d"
                              % (ELEMENT_MAX, args.n))
        _emit(write_poset_file(_FAMILIES[args.kind](args.n)), out)
        return 0

    if args.command == "cube":
        if args.kind == "cover":
            g = cover_cube(filter_lattice(_read_poset(args.arg), cap=cap))
        elif args.kind == "fibonacci":
            g = fibonacci_cube(int(args.arg), cap=cap)
        else:
            g = lucas_cube(int(args.arg), cap=cap)
        _emit(g.edge_list_text(), out)
        return 0

    if args.command == "verify":
        res = run_suite(args.suite, trials=args.trials,
                        max_size=args.max_size, seed=args.seed,
                        max_param=args.max_param)
        _emit(res.report(), out)
        return 0 if res.ok else 1

    if args.command == "export-dot":
        lat = filter_lattice(_read_poset(args.input), cap=cap)
        if args.highlight and args.expand_at:
            print("error: --highlight and --expand are exclusive",
                  file=sys.stderr)
            return 2
        highlight = None
        if args.expand_at:
            bits = args.expand_at.split(",")
            if len(bits) != 2:
                print("error: --expand wants B,T", file=sys.stderr)
                return 2
            exp = expand_poset(lat, lat.interval_by_strings(*bits), cap=cap)
            lat = exp.lattice
            highlight = (exp.source_interval, exp.copy_interval)
        elif args.highlight:
            bits = args.highlight.split(",")
            if len(bits) != 2:
                print("error: --highlight wants B,T", file=sys.stderr)
                return 2
            highlight = lat.interval_by_strings(*bits)
        _emit(export_dot(lat, highlight=highlight), out)
        return 0

    raise AssertionError("unhandled command %r" % args.command)


def main():
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
