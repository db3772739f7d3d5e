"""Property-based tests over random graphs and random construction specs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg import (
    ColoredDigraph,
    axiom_report,
    blow_up,
    classical_quotient,
    equivalence_classes,
    format_graph,
    is_2qbmg,
    is_thin,
    layered,
    lift_permutation,
    lifted_group,
    parse_graph,
    random_layered_spec,
    satisfies_star,
    symmetric_edges,
    token_key,
    uw_orientation,
)

from tests import oracles
from tests.oracles import graphs_match_up_to_rename


@st.composite
def colored_digraphs(draw, max_side=4):
    r = draw(st.integers(0, max_side))
    s = draw(st.integers(0, max_side))
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    pairs = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return ColoredDigraph(u, w, chosen)


@st.composite
def layered_specs(draw):
    s = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    return random_layered_spec(s, m, seed)


@given(colored_digraphs())
def test_text_roundtrip(g):
    assert parse_graph(format_graph(g)) == g


@given(colored_digraphs())
def test_symmetric_edge_count_bound(g):
    assert len(symmetric_edges(g)) <= g.n_edges // 2


@given(colored_digraphs(), st.data())
def test_induced_subgraph_composition(g, data):
    verts = sorted(g.vertices, key=token_key)
    vs = set(data.draw(st.sets(st.sampled_from(verts)))) if verts else set()
    inner = sorted(vs, key=token_key)
    vs2 = set(data.draw(st.sets(st.sampled_from(inner)))) if inner else set()
    assert g.induced_subgraph(vs).induced_subgraph(vs2) == g.induced_subgraph(vs2)


@given(colored_digraphs())
def test_witnesses_replay_against_definitions(g):
    report = axiom_report(g)
    checks = [
        ("n1", report.n1, oracles.n1_witness_violates),
        ("n2", report.n2, oracles.n2_witness_violates),
        ("n3", report.n3, oracles.n3_witness_violates),
        ("n3star", report.n3star, oracles.n3star_witness_violates),
        ("star", satisfies_star(g), oracles.star_witness_violates),
    ]
    for name, verdict, replay in checks:
        if not verdict.holds:
            assert replay(g, verdict.witness), (name, verdict.witness)


@given(colored_digraphs())
def test_route_equivalence_on_random_graphs(g):
    report = axiom_report(g)  # raises internally if the routes disagree
    assert report.is_2qbmg == (report.n1.holds and report.n2.holds and report.n3.holds)


@given(colored_digraphs())
def test_equivalence_classes_cover_vertices(g):
    assert equivalence_classes(g).support == g.vertices


@given(colored_digraphs())
def test_classical_quotient_idempotent(g):
    first = classical_quotient(g)
    assert is_thin(first.quotient)
    second = classical_quotient(first.quotient)
    rename = {v: second.projection[v] for v in first.quotient.vertices}
    assert graphs_match_up_to_rename(first.quotient, second.quotient, rename)


@given(colored_digraphs())
def test_uw_orientation_properties(g):
    o = uw_orientation(g)
    assert uw_orientation(o) == o
    assert o.edges <= g.edges
    assert not symmetric_edges(o)
    assert o.vertices == g.vertices


@settings(deadline=None)
@given(colored_digraphs())
def test_derived_graphs_equal_their_validated_rebuild(g):
    for h in oracles.derived_graphs(g):
        oracles.assert_as_if_validated(h)


@settings(max_examples=25, deadline=None)
@given(layered_specs())
def test_layered_construction_invariants(spec):
    g = layered(spec)
    assert g.n_vertices == 2 * spec.m * spec.s
    assert g.n_edges == spec.m * spec.s * spec.s
    report = axiom_report(g)
    assert report.is_2qbmg
    assert is_thin(g)
    if spec.m >= 2 or spec.s >= 2:
        assert report.proper
    grp = lifted_group(spec)
    assert grp.order == math.factorial(spec.m)
    expected_orbits = set()
    for i in range(1, spec.s + 1):
        expected_orbits.add(spec.u_class(i))
        expected_orbits.add(spec.w_class(i))
    assert set(grp.orbit_sets()) == expected_orbits


@settings(max_examples=15, deadline=None)
@given(layered_specs(), st.data())
def test_layered_hereditary_under_induced_subgraphs(spec, data):
    g = layered(spec)
    verts = sorted(g.vertices, key=token_key)
    vs = data.draw(st.sets(st.sampled_from(verts), min_size=1))
    assert is_2qbmg(g.induced_subgraph(vs))


@settings(max_examples=15, deadline=None)
@given(layered_specs(), st.data())
def test_lift_homomorphism_property(spec, data):
    u1 = sorted(spec.u_class(1), key=token_key)
    p1 = dict(zip(u1, data.draw(st.permutations(u1))))
    p2 = dict(zip(u1, data.draw(st.permutations(u1))))
    composed = {v: p1[p2[v]] for v in u1}
    assert lift_permutation(spec, composed) == \
        lift_permutation(spec, p1).compose(lift_permutation(spec, p2))


@settings(max_examples=15, deadline=None)
@given(layered_specs(), st.data())
def test_blow_up_plants_equivalent_vertex(spec, data):
    g = layered(spec)
    at = data.draw(st.sampled_from(sorted(g.vertices, key=token_key)))
    out = blow_up(g, at, "fresh")
    assert is_2qbmg(out)
    assert frozenset({at, "fresh"}) in equivalence_classes(out).blocks


@given(colored_digraphs(max_side=3))
def test_canonical_gamma_order_and_orbits(g):
    # The twin classes from the edge set, sharing no code with class_masks.
    classes = oracles.brute_force_twin_classes(g)
    grp = oracles.canonical_gamma(g)
    assert grp.order == math.prod(math.factorial(len(c)) for c in classes)
    assert set(grp.orbit_sets()) == set(classes)
