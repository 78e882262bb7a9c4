"""Command line interface.

Subcommands exchange posets in the text file format (see fileio), so they
compose through pipes:

    latcut family fence 3 | latcut stats
    latcut family crown 6 | latcut expand --bottom 111110 --top 000000 | latcut mi

Stdout is the one output route; redirect it with ``>`` to keep a result.

``_dispatch`` takes one path: a ``--cap`` below 1 is refused first, then
``family``, ``cube fibonacci|lucas`` and ``verify`` read no poset and
return.  Every other usage check runs next, before any input is read.
The poset is then read at one site, and every command but ``stats`` and
``decompose`` shares one ``filter_lattice``.

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


def _read_poset(path):
    if path == "-":
        return parse_poset_file(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_poset_file(fh.read())


def _endpoints(flag, value):
    """The bitstrings of a ``B,T`` value, None if the flag is absent."""
    if value is None:
        return None
    bits = value.split(",")
    if len(bits) != 2:
        raise LatcutError("%s wants B,T" % flag)
    return bits


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
                   help="largest random poset (birkhoff, random and the "
                        "cutting suites); the cutting suites also walk "
                        "every poset up to min(5, this) elements")
    p.add_argument("--seed", type=int, help="base seed for the random layer")
    p.add_argument("--max", type=int, dest="max_param",
                   help="family bound, for fibonacci (m+n-2), lucas (2n) "
                        "and cubes (fence size, crowns one more) only")

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
    except (LatcutError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except AssertionError as e:
        # A built-in cross-check (the q census against the recurrence on
        # the poset, the four-way cutting vote, the boundary partition, an
        # expansion step, the catalog's growth) found a contradiction.
        print("error: verified property failed: %s" % e, file=sys.stderr)
        return 1


def _dispatch(args):
    cap = getattr(args, "cap", FILTER_CAP)
    if cap < 1:
        raise LatcutError("--cap must be at least 1, got %d" % cap)
    cmd = args.command

    # The commands that read no poset.
    if cmd == "family":
        if args.n < 0:
            raise LatcutError("n must not be negative, got %d" % args.n)
        if args.n > ELEMENT_MAX:
            raise LatcutError("n must be at most %d, got %d"
                              % (ELEMENT_MAX, args.n))
        sys.stdout.write(write_poset_file(_FAMILIES[args.kind](args.n)))
        return 0

    if cmd == "cube" and args.kind != "cover":
        try:
            dim = int(args.arg)
        except ValueError:
            raise LatcutError("cube %s wants an integer dimension, got %r"
                              % (args.kind, args.arg)) from None
        make = fibonacci_cube if args.kind == "fibonacci" else lucas_cube
        sys.stdout.write(make(dim, cap=cap).edge_list_text())
        return 0

    if cmd == "verify":
        res = run_suite(args.suite, trials=args.trials,
                        max_size=args.max_size, seed=args.seed,
                        max_param=args.max_param)
        sys.stdout.write(res.report())
        return 0 if res.ok else 1

    # Usage checks, before any input is read.
    if cmd == "cutting" and (args.bottom is None) != (args.top is None):
        raise LatcutError("--bottom and --top go together")
    if cmd == "export-dot":
        if args.highlight is not None and args.expand_at is not None:
            raise LatcutError("--highlight and --expand are exclusive")
        expand_at = _endpoints("--expand", args.expand_at)
        highlight = _endpoints("--highlight", args.highlight)

    p = _read_poset(args.arg if cmd == "cube" else args.input)
    if cmd == "stats":
        sys.stdout.write(_json_line(poset_stats(p, cap=cap)))
        return 0

    if cmd == "decompose":
        dec = decompose(p, args.element, cap=cap)
        host, k = dec.expansion.host, dec.expansion.interval
        sys.stdout.write(_json_line({
            "element": args.element,
            "size": dec.size,
            "host_size": host.size,
            "interval_size": len(host.between(*k)),
            "interval": [host.bitstring(k.bottom), host.bitstring(k.top)],
            "counts_ok": dec.counts_ok,
            "expansion_iso_ok": dec.expansion_iso_ok,
            "product_form": dec.product_form,
            "product_iso_ok": dec.product_form,
        }))
        return 0 if dec.counts_ok and dec.expansion_iso_ok else 1

    lat = filter_lattice(p, cap=cap)
    if cmd == "filters":
        sys.stdout.write("".join(lat.bitstring(a) + "\n"
                                 for a in range(lat.size)))
    elif cmd == "lattice":
        sys.stdout.write(_json_line({
            "size": lat.size,
            "elements": [lat.bitstring(a) for a in range(lat.size)],
            "heights": [p.n - f.bit_count() for f in lat.filters],
            "covers": lat.covering_graph(),
            "mi": list(lat.meet_irreducibles()),
        }))
    elif cmd == "mi":
        sys.stdout.write(write_poset_file(lat.mi_poset()))
    elif cmd == "cube":
        sys.stdout.write(cover_cube(lat).edge_list_text())
    elif cmd == "cutting" and args.bottom is None:
        # Up to |L|^2 / 2 lines, so written 4096 at a time.
        bits = [lat.bitstring(a) for a in range(lat.size)]
        listed = cuttings(lat)
        for i in range(0, len(listed), 4096):
            sys.stdout.write("".join(["%s %s\n" % (bits[a], bits[b])
                                      for a, b in listed[i:i + 4096]]))
    elif cmd == "cutting":
        k = lat.interval_by_strings(args.bottom, args.top)
        sys.stdout.write("cutting: %s (%s agree)\n" % (
            str(is_cutting(lat, k)).lower(), ",".join(CUTTING_METHODS)))
    elif cmd == "expand":
        exp = expand_poset(lat, lat.interval_by_strings(args.bottom, args.top),
                           label=args.label, cap=cap)
        sys.stdout.write(write_poset_file(exp.poset))
    else:  # export-dot
        intervals = ()
        if expand_at is not None:
            exp = expand_poset(lat, lat.interval_by_strings(*expand_at),
                               cap=cap)
            lat = exp.lattice
            intervals = (exp.source_interval, exp.copy_interval)
        elif highlight is not None:
            intervals = (lat.interval_by_strings(*highlight),)
        sys.stdout.write(export_dot(lat, *intervals))
    return 0


def main():
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
