"""UW-orientation, orientation enumeration, topological order, orientation facts."""

import pytest

from qbmg import (
    ColoredDigraph,
    QbmgError,
    SizeCapError,
    aut_color_preserving,
    check_orientation_theorems,
    enumerate_orientations,
    is_2qbmg,
    layered,
    symmetric_edges,
    topological_order,
    uw_orientation,
)
from qbmg.constructions import default_layered_spec

from tests import refdata


def test_uw_orientation_blowup_base():
    o = uw_orientation(refdata.BLOWUP_BASE)
    assert o.edges == {("1", "2"), ("3", "2"), ("3", "4"), ("4", "5")}


def test_uw_orientation_oriented_graph_unchanged():
    g = refdata.NONORBIT_BASE
    assert uw_orientation(g) == g


def test_uw_orientation_complete_symmetric():
    g = refdata.complete_symmetric(2, 3)
    o = uw_orientation(g)
    assert o.n_edges == 6
    assert all(t in g.color_u for (t, _) in o.edges)


def test_uw_orientation_idempotent_subset_no_symmetric():
    for g in (refdata.BLOWUP_TWICE, refdata.complete_symmetric(3, 3)):
        o = uw_orientation(g)
        assert uw_orientation(o) == o
        assert o.edges <= g.edges
        assert not symmetric_edges(o)
        assert o.vertices == g.vertices


def test_enumerate_orientations_counts():
    assert len(list(enumerate_orientations(refdata.NONORBIT_BASE))) == 1
    assert len(list(enumerate_orientations(refdata.BLOWUP_BASE))) == 2
    g = ColoredDigraph(("1",), ("2",), [("1", "2"), ("2", "1")])
    orientations = list(enumerate_orientations(g))
    assert len(orientations) == 2
    assert {frozenset(o.edges) for o in orientations} == {
        frozenset({("1", "2")}), frozenset({("2", "1")})}


def test_enumerate_orientations_deterministic_order():
    a = [o.edges for o in enumerate_orientations(refdata.complete_symmetric(2, 2))]
    b = [o.edges for o in enumerate_orientations(refdata.complete_symmetric(2, 2))]
    assert a == b and len(a) == 16


def test_enumerate_orientations_cap():
    g = refdata.complete_symmetric(5, 5)  # 25 symmetric edges
    with pytest.raises(SizeCapError):
        list(enumerate_orientations(g))


def test_topological_order_uw_blowup_base():
    result = topological_order(uw_orientation(refdata.BLOWUP_BASE))
    assert result.order == ("1", "3", "2", "4", "5")
    assert result.cycle is None


def test_topological_order_rejects_symmetric_edges():
    with pytest.raises(QbmgError, match="oriented"):
        topological_order(refdata.BLOWUP_BASE)


def test_topological_order_cycle_witness():
    g = ColoredDigraph(("1", "3"), ("2", "4"),
                       [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")])
    result = topological_order(g)
    assert result.order is None
    cycle = result.cycle
    assert len(cycle) == 4
    for i, v in enumerate(cycle):
        assert (v, cycle[(i + 1) % len(cycle)]) in g.edges


def test_topological_order_edge_free():
    g = ColoredDigraph(("1", "3"), ("2",), [])
    assert topological_order(g).order == ("1", "2", "3")


def test_orientation_theorems_blowup_base():
    report = check_orientation_theorems(refdata.BLOWUP_BASE,
                                        aut_color_preserving(refdata.BLOWUP_BASE))
    assert report.ok
    assert report.star_holds
    assert report.all_orientations_are_2qbmg
    assert report.all_orientations_acyclic
    assert report.uw_group_preserved


def test_orientation_theorems_complete_symmetric():
    g = refdata.complete_symmetric(2, 3)
    report = check_orientation_theorems(g, aut_color_preserving(g))
    assert report.ok
    assert not report.star_holds
    assert report.all_orientations_are_2qbmg is None
    assert report.group_order == 12
    o = uw_orientation(g)
    assert aut_color_preserving(o).order == 12


def test_orientation_theorems_oriented_thin():
    g = layered(default_layered_spec(2, 3))
    report = check_orientation_theorems(g, aut_color_preserving(g))
    assert report.ok and report.orientations_checked == 1


def test_all_orientations_of_matching_graphs_are_members():
    from qbmg import satisfies_star
    matching_cases = [
        refdata.BLOWUP_BASE,
        ColoredDigraph(("1", "2"), ("3", "4"),
                       [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2")]),
    ]
    for g in matching_cases:
        assert satisfies_star(g).holds
        for o in enumerate_orientations(g):
            assert is_2qbmg(o)
            assert topological_order(o).order is not None


def test_shared_symmetric_endpoint_skips_orientation_closure():
    # Duplicating a vertex of a symmetric edge makes two symmetric edges meet,
    # so the orientation-closure statement does not apply; the group check
    # still must pass.
    from qbmg import satisfies_star
    g = refdata.BLOWUP_ONCE
    assert not satisfies_star(g).holds
    report = check_orientation_theorems(g, aut_color_preserving(g))
    assert report.ok
    assert report.all_orientations_are_2qbmg is None


def test_orientation_of_non_matching_graph_can_fail_membership():
    # The matching hypothesis is not decorative: orienting the complete
    # symmetric 2x2 graph into a directed 4-cycle breaks bi-transitivity.
    g = refdata.complete_symmetric(2, 2)
    assert any(not is_2qbmg(o) for o in enumerate_orientations(g))


def test_uw_orientation_never_loses_automorphisms():
    # Forward containment: every color-preserving automorphism survives the
    # UW-orientation, because symmetric pairs map to symmetric pairs and the
    # kept direction is determined by the (preserved) colors.
    from qbmg import is_automorphism
    for g in (refdata.BLOWUP_BASE, refdata.BLOWUP_ONCE, refdata.BLOWUP_TWICE,
              refdata.complete_symmetric(3, 2), refdata.complete_symmetric(4, 4)):
        o = uw_orientation(g)
        for p in aut_color_preserving(g).sorted_elements:
            assert is_automorphism(o, p, color_preserving=True)


def test_uw_orientation_can_gain_automorphisms():
    # The reverse containment is false in general, already on 3 vertices:
    # dropping 2->1 from this thin member (whose symmetric edges form a
    # matching) leaves the out-star 1->{2,3}, where 2 and 3 become
    # interchangeable even though only vertex 2 points back at 1.
    g = ColoredDigraph(("1",), ("2", "3"), [("1", "2"), ("2", "1"), ("1", "3")])
    assert is_2qbmg(g)
    from qbmg import is_thin, satisfies_star
    assert is_thin(g) and satisfies_star(g).holds
    assert aut_color_preserving(g).order == 1
    o = uw_orientation(g)
    assert aut_color_preserving(o).order == 2
    report = check_orientation_theorems(g, aut_color_preserving(g))
    assert not report.uw_group_preserved
    assert any("color-preserving group" in v for v in report.violations)
