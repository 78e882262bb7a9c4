"""Fuzz the counting recurrences on seeded random posets.

Every cutting interval found gets expanded and the rank, q and d
recurrences are recomputed from scratch on both sides.  Prints a tally;
exits nonzero if anything disagrees.
"""

import sys

from latcut import (check_d_recurrences, check_q_recurrence,
                    check_rank_recurrence, cuttings, expand_poset,
                    filter_lattice, random_poset)

TRIALS = 60
MAX_SIZE = 6
SEED = 20260815

posets = 0
expanded = 0
bad = 0
for t in range(TRIALS):
    p = random_poset(SEED + t, MAX_SIZE)
    lat = filter_lattice(p)
    posets += 1
    for bottom, top in cuttings(lat):
        expanded += 1
        exp = expand_poset(lat, (bottom, top))
        # Each check returns None when its recurrence holds.
        detail = (check_rank_recurrence(exp) or check_q_recurrence(exp)
                  or check_d_recurrences(exp))
        if detail is not None:
            bad += 1
            print("FAIL seed=%d interval %s,%s: %s"
                  % (SEED + t, lat.bitstring(bottom), lat.bitstring(top),
                     detail))

print("%d posets, %d cuttings expanded, %d failures" % (posets, expanded, bad))
sys.exit(1 if bad else 0)
