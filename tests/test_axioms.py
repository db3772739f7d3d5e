"""Axiom checkers: figure-derived verdicts, witnesses, and triviality flags."""

import pytest

from qbmg import (
    ColoredDigraph,
    axiom_report,
    is_2qbmg,
    is_thin,
    layered,
    n2_trivial_layer,
    satisfies_star,
)
from qbmg import axioms

from tests import refdata
from tests.oracles import (
    n1_witness_violates,
    n2_witness_violates,
    n3_witness_violates,
    n3star_witness_violates,
)


@pytest.fixture(scope="module")
def two_layer_m4():
    return layered(refdata.TWO_LAYER_M4_SPEC)


@pytest.fixture(scope="module")
def diamonds_m4():
    return n2_trivial_layer(4, refdata.DIAMOND_M4_ALPHA, refdata.DIAMOND_M4_BETA,
                            refdata.DIAMOND_M4_GAMMA)


# -- N1 -----------------------------------------------------------------------

def test_n1_explicit_violation():
    g = ColoredDigraph({"u", "w"}, {"v", "t"},
                       [("u", "t"), ("t", "w"), ("v", "w")])
    verdict = axiom_report(g).n1
    assert not verdict.holds
    assert verdict.witness == ("u", "v", "w", "t")
    assert n1_witness_violates(g, verdict.witness)


def test_n1_single_symmetric_edge():
    g = ColoredDigraph({"1"}, {"2"}, [("1", "2"), ("2", "1")])
    assert axiom_report(g).n1.holds


def test_n1_two_layer(two_layer_m4):
    assert axiom_report(two_layer_m4).n1.holds


# -- N2 -----------------------------------------------------------------------

def test_n2_chordless_chain():
    g = ColoredDigraph({"u1", "u2"}, {"w1", "w2"},
                       [("u1", "w1"), ("w1", "u2"), ("u2", "w2")])
    verdict = axiom_report(g).n2
    assert not verdict.holds
    assert verdict.witness == ("u1", "w1", "u2", "w2")
    assert n2_witness_violates(g, verdict.witness)


def test_n2_quotient_chain_with_chord():
    g = ColoredDigraph({"o1", "o3"}, {"o2", "o4"},
                       [("o1", "o2"), ("o2", "o3"), ("o3", "o4"), ("o1", "o4")])
    assert axiom_report(g).n2.holds
    assert is_2qbmg(g)


def test_n2_vacuous_on_diamonds(diamonds_m4):
    report = axiom_report(diamonds_m4)
    assert report.n2.holds
    assert report.n2_trivial


# -- N3 -----------------------------------------------------------------------

def test_n3_incomparable_overlap():
    g = ColoredDigraph({"u1", "u2"}, {"w1", "w2", "w3"},
                       [("u1", "w1"), ("u1", "w2"), ("u2", "w1"), ("u2", "w3")])
    verdict = axiom_report(g).n3
    assert not verdict.holds
    assert verdict.witness == ("u1", "u2")
    assert n3_witness_violates(g, verdict.witness)


def test_n3_out_degree_at_most_one(two_layer_m4):
    # All out-degrees in the second and later layers are at most 1.
    assert axiom_report(two_layer_m4).n3.holds


def test_n3_complete_symmetric():
    assert axiom_report(refdata.complete_symmetric(3, 3)).n3.holds


# -- N3* ----------------------------------------------------------------------

def test_n3star_vacuum_in_neighbors_equal():
    g = ColoredDigraph({"u1", "u2"}, {"w1", "w2"},
                       [("u1", "w1"), ("u2", "w1"), ("u1", "w2")])
    assert axiom_report(g).n3star.holds


def test_n3star_unequal_in_neighbors():
    g = ColoredDigraph({"u1", "u2"}, {"w1", "w2"},
                       [("u1", "w1"), ("u2", "w1"), ("w2", "u1")])
    verdict = axiom_report(g).n3star
    assert not verdict.holds
    assert verdict.witness == ("u1", "u2")
    assert n3star_witness_violates(g, verdict.witness)


def test_n3star_edge_free():
    assert axiom_report(ColoredDigraph({"1"}, {"2"}, [])).n3star.holds


# -- membership ---------------------------------------------------------------

def test_blowup_family_members():
    assert is_2qbmg(refdata.BLOWUP_BASE)
    assert is_2qbmg(refdata.BLOWUP_ONCE)
    assert is_2qbmg(refdata.BLOWUP_TWICE)


def test_simultaneous_duplication_fails():
    assert not is_2qbmg(refdata.SIMULTANEOUS_DUPLICATION)
    report = axiom_report(refdata.SIMULTANEOUS_DUPLICATION)
    assert not report.is_2qbmg


def test_one_union_of_in_neighborhoods_per_graph(two_layer_m4, monkeypatch):
    # N1, N3 and N3* read the same co union; axiom_report and is_2qbmg build it once.
    calls = []
    co = axioms._co
    monkeypatch.setattr(axioms, "_co", lambda g: calls.append(g) or co(g))
    report = axiom_report(two_layer_m4)
    assert report.is_2qbmg and len(calls) == 1
    assert is_2qbmg(two_layer_m4) and len(calls) == 2


def test_empty_graph_is_n_trivial_member():
    g = ColoredDigraph((), (), ())
    report = axiom_report(g)
    assert report.is_2qbmg and report.n_trivial and not report.proper


# -- property (*) ---------------------------------------------------------------

def test_star_on_blowup_base():
    assert satisfies_star(refdata.BLOWUP_BASE).holds


def test_star_fails_on_complete_symmetric():
    verdict = satisfies_star(refdata.complete_symmetric(2, 3))
    assert not verdict.holds
    assert verdict.witness == ("1",)


def test_star_on_oriented_graph():
    assert satisfies_star(refdata.NONORBIT_BASE).holds


# -- thinness -------------------------------------------------------------------

def test_thin_two_layer(two_layer_m4):
    assert is_thin(two_layer_m4)


def test_blowup_not_thin():
    assert not is_thin(refdata.BLOWUP_ONCE)


def test_single_vertex_thin():
    assert is_thin(ColoredDigraph(("1",), (), ()))


def test_two_isolated_not_thin():
    assert not is_thin(ColoredDigraph(("1", "2"), (), ()))


# -- triviality and properness ---------------------------------------------------

def test_blowup_base_is_proper():
    # The symmetric edge 1-2 already realizes the three-edge walk pattern.
    report = axiom_report(refdata.BLOWUP_BASE)
    assert report.proper and not report.n2_trivial


def test_diamonds_triviality_profile(diamonds_m4):
    report = axiom_report(diamonds_m4)
    assert report.n2_trivial
    assert not report.n1_trivial
    assert not report.n3_trivial
    assert not report.proper


def test_proper_implies_not_n2_trivial(two_layer_m4):
    report = axiom_report(two_layer_m4)
    assert report.proper
    assert not report.n2_trivial


def test_diamond_sources_and_sinks(diamonds_m4):
    g = diamonds_m4
    sources = {v for v in g.vertices if not g.in_neighbors(v)}
    sinks = {v for v in g.vertices if not g.out_neighbors(v)}
    assert sources == {"1", "2", "3", "4"}
    assert sinks == {"13", "14", "15", "16"}


def test_n2_trivial_m1_has_no_three_edge_walk():
    from qbmg.constructions import default_n2_trivial_tables
    g = n2_trivial_layer(1, *default_n2_trivial_tables(1))
    assert g.edges == {("1", "2"), ("2", "4"), ("3", "4"), ("1", "3")}
    report = axiom_report(g)
    assert report.is_2qbmg and report.n2_trivial
