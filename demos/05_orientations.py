"""Orientations: resolving symmetric edges and what survives the process."""

from qbmg import (
    ColoredDigraph,
    aut_color_preserving,
    check_orientation_theorems,
    enumerate_orientations,
    is_2qbmg,
    orientation_representatives,
    satisfies_star,
    symmetric_edges,
    topological_order,
    uw_orientation,
)

base = ColoredDigraph(
    {"1", "3", "5"}, {"2", "4"},
    [("1", "2"), ("2", "1"), ("3", "2"), ("3", "4"), ("4", "5")],
)

print(f"The base graph has symmetric edges {sorted(map(sorted, symmetric_edges(base)))}.")
o = uw_orientation(base)
print(f"Its UW-orientation keeps the U-to-W direction: {sorted(o.edges)}")
print(f"It is acyclic with topological order {topological_order(o).order}")
print()

print("When symmetric edges form a matching, every one of the 2^s orientations")
print("is again a member, and all of them are acyclic:")
for n, orientation in enumerate(enumerate_orientations(base), 1):
    print(f"  orientation #{n}: member={is_2qbmg(orientation)}, "
          f"order={topological_order(orientation).order}")
print()

print("An automorphism maps an orientation onto an isomorphic one, so the")
print("theorem check tests only the least orientation (by flip mask) of each")
print("orbit of Aut_I. On a matching of k symmetric edges that is one")
print("orientation per number of reversed edges:")
for k in (1, 4, 8):
    matching = ColoredDigraph(
        [str(i) for i in range(1, k + 1)], [str(i) for i in range(k + 1, 2 * k + 1)],
        [e for i in range(1, k + 1) for e in ((str(i), str(i + k)), (str(i + k), str(i)))])
    reps = orientation_representatives(matching, aut_color_preserving(matching))
    print(f"  k = {k}: {len(reps)} representatives of 2^{k} = {2 ** k} orientations, "
          f"flip masks {reps}")
report = check_orientation_theorems(base, aut_color_preserving(base))
print(f"  the base graph: {report.orientations_checked} representatives of "
      f"{report.orientations_total} orientations")
print()

print("Color-preserving automorphisms always survive the UW-orientation, but")
print("the orientation can gain symmetries that the original graph lacks.")
print("The smallest example has three vertices:")
tiny = ColoredDigraph(("1",), ("2", "3"), [("1", "2"), ("2", "1"), ("1", "3")])
print(f"  member: {is_2qbmg(tiny)}, matching: {bool(satisfies_star(tiny))}")
print(f"  |Aut_I(graph)| = {aut_color_preserving(tiny).order}  "
      f"(2 points back at 1, 3 does not)")
tiny_o = uw_orientation(tiny)
print(f"  |Aut_I(orientation)| = {aut_color_preserving(tiny_o).order}  "
      f"(the out-star 1->{{2,3}} cannot tell 2 and 3 apart)")
report = check_orientation_theorems(tiny, aut_color_preserving(tiny))
print(f"  the orientation report flags it: {report.violations[0]}")
