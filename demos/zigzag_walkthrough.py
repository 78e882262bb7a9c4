"""Walk through one small example end to end: the 3-element zigzag
b < a, b < c, its filter lattice, one cutting, and the expansion.

Run:  python3 demos/zigzag_walkthrough.py
"""

from latcut import (boundary, expand_poset, filter_lattice, is_cutting,
                    poset_from_covers, rank_gen, q_vector, d_vectors)
from latcut.invariants import poly_deriv, poly_eval

p = poset_from_covers(["a", "b", "c"], [("b", "a"), ("b", "c")])
lat = filter_lattice(p)

print("filters of the zigzag, bottom to top:")
for x in range(lat.size):
    labs = ",".join(lat.base.labels_of(lat.filters[x]))
    height = p.n - lat.filters[x].bit_count()
    print("  %s  height %d  {%s}" % (lat.bitstring(x), height, labs))

print("rank polynomial coefficients:", rank_gen(lat))
q = q_vector(lat)
print("cube counts q:", q)
print("up-cover histogram:", d_vectors(lat).minus)
print("Q(-1) = %d, Q'(-1) = %d, meet-irreducibles = %d"
      % (poly_eval(q, -1), poly_eval(poly_deriv(q), -1),
         len(lat.meet_irreducibles())))

# the interval from 101 up to the top is a cutting: every maximal chain
# has to pass through it
k = lat.interval_by_strings("101", "000")
print("\n[101, 000] cutting?", is_cutting(lat, k))
s, s0, s1 = boundary(lat, k).labels(lat.base)
print("boundary: S =", s, " S0 =", s0, " S1 =", s1)

exp = expand_poset(lat, k)
print("\nexpanded at the cutting: %d -> %d elements"
      % (lat.size, exp.lattice.size))
print("new poset element:", exp.new_element)
print("rank polynomial after expansion:", rank_gen(exp.lattice))
print("q after expansion:", q_vector(exp.lattice))
