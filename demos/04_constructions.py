"""The layered construction: composites, lifting, and seeded random instances."""

import math

from qbmg import (
    axiom_report,
    composite_maps,
    is_thin,
    layered,
    lift_permutation,
    lifted_group,
    random_layered_spec,
)
from qbmg.constructions import format_layered_spec

print("A layered instance is defined by diagonal tables U_i -> W_i and step")
print("tables W_j -> U_{j+1}; all longer composites become edges too. Here is")
print("a seeded random 3-layer spec with classes of size 3:\n")
spec = random_layered_spec(3, 3, seed=2024)
print(format_layered_spec(spec, comments=["seed 2024"]))

f, g_maps = composite_maps(spec)
print("Composite maps fill in the remaining edge families, for example")
print(f"  U_1 -> W_3: {f[(1, 3)].as_dict()}")
print(f"  W_1 -> U_3: {g_maps[(1, 3)].as_dict()}")
print()

g = layered(spec)
report = axiom_report(g)
print(f"The graph has {g.n_vertices} vertices and {g.n_edges} = m*s^2 edges;")
print(f"member: {report.is_2qbmg}, proper: {report.proper}, thin: {is_thin(g)}")
print()

print("Following each vertex of U_1 through the tables gives its thread, one")
print("vertex per class; every composite stays on it, so the graph is m")
print("disjoint copies of one 2s-vertex pattern:")
component_of = {v: {v} for v in g.vertices}
for t, h in g.edges:
    merged = component_of[t] | component_of[h]
    for v in merged:
        component_of[v] = merged
components = {frozenset(c) for c in component_of.values()}
print(f"  {len(components)} weakly connected components of "
      f"{sorted({len(c) for c in components})} vertices (m = {spec.m}, 2s = {2 * spec.s})")
print()

print("Any permutation pi of the first class lifts to a color-preserving")
print("automorphism that sends the thread of u onto the thread of pi(u). The")
print("lift of the transposition of the first two vertices:")
u1 = sorted(spec.u_class(1), key=int)
pi = {v: v for v in u1}
pi[u1[0]], pi[u1[1]] = u1[1], u1[0]
phi = lift_permutation(spec, pi)
print(f"  {phi.cycle_string()}")
grp = lifted_group(spec)
print(f"All lifts together: order {grp.order} = {spec.m}! = {math.factorial(spec.m)}")
print(f"Lift orbits are exactly the 2s classes: "
      f"{[sorted(o, key=int) for o in grp.orbit_sets()]}")
