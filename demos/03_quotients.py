"""Quotients: equivalence classes, orbit quotients, and what can go wrong."""

from qbmg import (
    ColoredDigraph,
    Partition,
    PermGroup,
    Permutation,
    axiom_report,
    blow_up,
    canonical_gamma,
    classical_quotient,
    equivalence_classes,
    format_graph,
    gamma_quotient,
    is_2qbmg,
    partition_quotient,
)

base = ColoredDigraph(
    {"1", "3", "5"}, {"2", "4"},
    [("1", "2"), ("2", "1"), ("3", "2"), ("3", "4"), ("4", "5")],
)
g = blow_up(blow_up(base, "1", "6"), "2", "7")

print("Vertices with identical neighborhoods form the equivalence classes:")
for block in equivalence_classes(g).blocks:
    print("  ", sorted(block, key=int))
print()

print("The classical quotient collapses the classes and lands back on the")
print("5-vertex base graph (up to renaming):")
result = classical_quotient(g)
print(format_graph(result.quotient))

print("The same quotient arises from the orbits of the class product group,")
print("the direct product of symmetric groups inside the classes:")
gamma = canonical_gamma(g)
print(f"  class product group order: {gamma.order}")
via_gamma = gamma_quotient(g, gamma)
print(f"  identical output: {via_gamma.quotient == result.quotient}")
print()

print("Quotients over orbits of any color-preserving group stay members.")
rot = Permutation.from_mapping(
    {"2": "3", "3": "4", "4": "2", "5": "6", "6": "7", "7": "5"},
    {"1", "2", "3", "4", "5", "6", "7", "8"})
chain = ColoredDigraph(
    {"1", "2", "3", "4"}, {"5", "6", "7", "8"},
    [("1", "8"), ("8", "2"), ("8", "3"), ("8", "4"),
     ("2", "5"), ("3", "6"), ("4", "7"), ("1", "5"), ("1", "6"), ("1", "7")])
grp = PermGroup.from_generators([rot])
q = gamma_quotient(chain, grp)
print(f"  rotation orbits collapse 8 vertices to {q.quotient.n_vertices}; "
      f"member: {is_2qbmg(q.quotient)}")
print()

print("Arbitrary monochromatic partitions do not enjoy that protection:")
nonorbit = ColoredDigraph({"1", "2", "3"}, {"4", "5", "6"},
                          [("4", "1"), ("4", "2"), ("2", "5"), ("6", "3")])
blocks = Partition.from_blocks([{"1"}, {"2"}, {"3"}, {"4"}, {"5", "6"}])
bad = partition_quotient(nonorbit, blocks).quotient
print(f"  source is a member: {is_2qbmg(nonorbit)}")
verdict = axiom_report(bad).n2
print(f"  quotient bi-transitive: {verdict.holds}, walk without chord: {verdict.witness}")
