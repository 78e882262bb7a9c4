"""Poset file format and DOT export of lattice Hasse diagrams.

File format, one directive per line:

    element a b c     declares elements, in bitstring order
    cover b a         b < a is a covering relation
    # comment         comments and blank lines are skipped

Canonical form is a single element line followed by the cover lines sorted
lexicographically; write_poset_file emits it, and parse accepts any order of
cover lines (elements must be declared before use).

DOT export draws the Hasse diagram bottom-up (rankdir=BT), one node per
lattice element named by its filter bitstring, with a same-rank group per
height.  Passing one (bottom, top) interval highlights it as a cluster;
passing the two intervals of a fresh expansion shows the original and the
copy as separate clusters with the connecting cover edges dashed, which is
how the enlarged lattice is best read.
"""

from __future__ import annotations

from .errors import LatcutError, ParseError, UnknownLabel
from .poset import poset_from_covers

# A poset of n elements holds about n^2 bits of order relation: chain(2^14)
# already peaks near 110 MiB.  Larger posets are refused, from a file or a
# family generator, before the order relation is built.
ELEMENT_MAX = 1 << 14


def parse_poset_file(text):
    labels = []
    have = set()
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        word, args = parts[0], parts[1:]
        if word == "element":
            if not args:
                raise ParseError("element line needs at least one label",
                                 line=lineno)
            labels.extend(args)
            have.update(args)
        elif word == "cover":
            if len(args) != 2:
                raise ParseError("cover needs exactly two labels", line=lineno)
            for lab in args:
                if lab not in have:
                    raise UnknownLabel(
                        "line %d: no element labelled %r" % (lineno, lab))
            covers.append((args[0], args[1]))
        else:
            raise ParseError("unknown directive %r" % word, line=lineno)
    if len(labels) > ELEMENT_MAX:
        raise LatcutError("a poset file may declare at most %d elements, "
                          "got %d" % (ELEMENT_MAX, len(labels)))
    return poset_from_covers(labels, covers)


def write_poset_file(p):
    """Canonical text form; parse(write(p)) reproduces p exactly."""
    for lab in p.labels:
        if not lab or any(c.isspace() for c in lab) or "#" in lab:
            raise ValueError("label %r not representable in the file format"
                             % (lab,))
    lines = []
    if p.n:
        lines.append("element " + " ".join(p.labels))
    lines.extend(sorted("cover %s %s" % pair for pair in p.cover_pairs()))
    return "".join(line + "\n" for line in lines)


# -- DOT export -----------------------------------------------------------------


def _quote(s):
    return '"%s"' % s.replace('"', '\\"')


def export_dot(lat, *intervals):
    """DOT text for the Hasse diagram of ``lat``.

    ``intervals``: none, one, or two (bottom, top) pairs (an expansion's
    source and copy), each validated by ``lat.interval_elements``.  They
    become the clusters K and K_copy; cover edges running between the two
    clusters are dashed.
    """
    if len(intervals) > 2:
        raise ValueError("export_dot draws at most two intervals, got %d"
                         % len(intervals))
    clusters = [(cname, lat.interval_elements(k))
                for cname, k in zip(("K", "K_copy"), intervals)]
    in_cluster = {a: cname for cname, members in clusters for a in members}

    names = [lat.bitstring(a) for a in range(lat.size)]

    out = []
    out.append("digraph lattice {")
    out.append("  rankdir=BT;")
    out.append("  node [shape=box];")
    for a in range(lat.size):
        if a not in in_cluster:
            out.append("  %s;" % _quote(names[a]))
    for cname, members in clusters:
        out.append("  subgraph cluster_%s {" % cname)
        out.append("    label=%s;" % _quote(cname))
        out.append("    style=dashed;")
        for a in members:
            out.append("    %s;" % _quote(names[a]))
        out.append("  }")
    heights = [lat.base.n - f.bit_count() for f in lat.filters]
    for h in range(max(heights) + 1 if lat.size else 0):
        group = [a for a in range(lat.size) if heights[a] == h]
        if group:
            out.append("  { rank=same; %s }"
                       % " ".join("%s;" % _quote(names[a]) for a in group))
    left = right = set()
    if len(clusters) == 2:
        left, right = (set(members) for _, members in clusters)
    for a, b in lat.covering_graph():
        cross = (a in left and b in right) or (a in right and b in left)
        style = " [style=dashed]" if cross else ""
        out.append("  %s -> %s%s;" % (_quote(names[a]), _quote(names[b]),
                                      style))
    out.append("}")
    return "".join(line + "\n" for line in out)
