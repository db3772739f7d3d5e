"""Color-preserving automorphism groups, from complete graphs to diamonds."""

import math

from qbmg import (
    ColoredDigraph,
    SearchStats,
    aut_color_preserving,
    aut_full,
    blow_up,
    classical_quotient,
    layered,
    lifted_group,
    n2_trivial_layer,
    random_layered_spec,
)
from qbmg.constructions import (
    BijectionTable,
    LayeredSpec,
    default_n2_trivial_tables,
)


def complete_symmetric(r, s):
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    return ColoredDigraph(u, w, [(a, b) for a in u for b in w]
                          + [(b, a) for a in u for b in w])


print("Complete symmetric graphs: any two same-class vertices are")
print("interchangeable, so the group is a product of two symmetric groups.")
for r, s in ((2, 2), (2, 3), (3, 4)):
    grp = aut_color_preserving(complete_symmetric(r, s))
    print(f"  K_{r},{s}: order {grp.order} = {r}! * {s}! = "
          f"{math.factorial(r)}*{math.factorial(s)}")
print()

print("A two-layer instance: four chains tied together by a chord map.")
print("Permuting the chains is the only freedom, so the group is the")
print("symmetric group on the first class, realized by lifting:")
spec = LayeredSpec(
    2, 4,
    (BijectionTable.from_mapping({"1": "10", "2": "9", "3": "12", "4": "11"}),
     BijectionTable.from_mapping({"5": "14", "6": "13", "7": "15", "8": "16"})),
    (BijectionTable.from_mapping({"9": "8", "10": "6", "11": "7", "12": "5"}),),
)
g = layered(spec)
grp = aut_color_preserving(g)
lifted = lifted_group(spec)
print(f"  search: order {grp.order}; lifted: order {lifted.order}; "
      f"equal: {grp.elements == lifted.elements}")
print(f"  orbits: {[sorted(o, key=int) for o in grp.orbit_sets()]}")
print()

print("The diamond family (vacuously bi-transitive) has extra symmetry: the")
print("two middles of each diamond can be swapped independently, on top of")
print("permuting the diamonds, giving order 2^4 * 4! = 384 for m = 4:")
dg = n2_trivial_layer(4, *default_n2_trivial_tables(4))
dgrp = aut_color_preserving(dg)
print(f"  order {dgrp.order}; orbit sizes "
      f"{sorted(len(o) for o in dgrp.orbit_sets())}")
print()

print("Disconnected graphs can mix behaviors across components; the full")
print("group is then bigger than color-preserving plus color-switching maps:")
m2 = ColoredDigraph(("u1", "u2"), ("w1", "w2"),
                    [("u1", "w1"), ("w1", "u1"), ("u2", "w2"), ("w2", "u2")])
print(f"  two disjoint symmetric edges: |Aut_I| = {aut_color_preserving(m2).order}, "
      f"|Aut| = {aut_full(m2).order}")
print()

print("Twins are interchangeable, so the color-preserving group is the product")
print("of the symmetric groups on the classes, extended by the group of the twin")
print("quotient q; only q is searched. A twin for each of the 8 chains' first")
print("vertices takes layered (s, m) = (4, 8) past 64 vertices:")
spec = random_layered_spec(4, 8, 1)
big = layered(spec)
for k, u in enumerate(sorted(spec.u_class(1), key=int), 1):
    big = blow_up(big, u, str(64 + k))
stats = SearchStats()
bgrp = aut_color_preserving(big, stats)
print(f"  {big.n_vertices} vertices: order {bgrp.order} = 2^8 * 8! = {2**8 * math.factorial(8)}; "
      f"the search ran on q's {classical_quotient(big).quotient.n_vertices} vertices "
      f"in {stats.nodes} nodes")
fstats = SearchStats()
fgrp = aut_full(big, fstats)
print(f"  the full group takes the same route, on the classes without colors: order "
      f"{fgrp.order} = {fstats.class_product} (twins, {fstats.classes} classes) * "
      f"{math.prod(fstats.orbit_lengths)} (q)")
