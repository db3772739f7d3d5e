"""The theorem-suite runner itself."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg import (
    ColoredDigraph,
    Partition,
    PermGroup,
    Permutation,
    QbmgError,
    aut_color_preserving,
    blow_up,
    classical_quotient,
    layered,
    orientations,
    parse_graph,
    partition_quotient,
    quotients,
    verify,
)
from qbmg.constructions import default_layered_spec, default_n2_trivial_tables, n2_trivial_layer
from qbmg.axioms import is_thin
from qbmg.errors import SizeCapError
from qbmg.verify import CHECK_NAMES, CHECKS, GraphFacts, run_suite

from tests import oracles, refdata
from tests.oracles import graphs_match_up_to_rename
from tests.test_digraph import record_class_masks

ROOT = Path(__file__).resolve().parent.parent
MATCHING5 = parse_graph((ROOT / "fixtures" / "symmetry" / "matching5.qbmg").read_text())


def test_all_checks_pass_on_reference_member():
    results = run_suite(refdata.BLOWUP_TWICE)
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results)


def test_non_member_short_circuits_to_membership_failure():
    results = run_suite(refdata.SIMULTANEOUS_DUPLICATION)
    assert len(results) == 1
    assert results[0].name == "membership" and not results[0].passed


def test_check_subset_selection():
    results = run_suite(refdata.BLOWUP_BASE,
                        checks=["membership", "underlying_p6c6_free"])
    assert [r.name for r in results] == ["membership", "underlying_p6c6_free"]


def test_unknown_check_name_raises():
    with pytest.raises(QbmgError, match="unknown checks"):
        run_suite(refdata.BLOWUP_BASE, checks=["nonsense"])


def test_thin_conditional_checks_skip_on_non_thin():
    results = {r.name: r for r in run_suite(refdata.complete_symmetric(2, 2))}
    assert results["thin_orbit_pairs"].passed
    assert "skipped" in results["thin_orbit_pairs"].detail
    assert results["fixed_vertex_in_neighborhood"].passed


def test_graphs_match_up_to_rename():
    a = ColoredDigraph(("1",), ("2",), [("1", "2")])
    b = ColoredDigraph(("x",), ("y",), [("x", "y")])
    assert graphs_match_up_to_rename(a, b, {"1": "x", "2": "y"})
    assert not graphs_match_up_to_rename(a, b, {"1": "y", "2": "x"})
    # Maps that carry colors and edges but are not bijections.
    a, b = ColoredDigraph(("1", "2"), (), ()), ColoredDigraph(("1",), (), ())
    assert not graphs_match_up_to_rename(a, b, {"1": "1", "2": "1"})
    a = ColoredDigraph(("1", "2"), ("3",), [("1", "3"), ("2", "3")])
    b = ColoredDigraph(("1",), ("3",), [("1", "3")])
    assert not graphs_match_up_to_rename(a, b, {"1": "1", "2": "1", "3": "3"})


def test_known_false_identity_is_flagged_not_crashed():
    # The orientation group identity fails on this 3-vertex member; the suite
    # must report it as a failing check with a detail, not raise.
    g = ColoredDigraph(("1",), ("2", "3"), [("1", "2"), ("2", "1"), ("1", "3")])
    results = {r.name: r for r in run_suite(g)}
    assert not results["orientation_theorems"].passed
    assert "color-preserving group" in results["orientation_theorems"].detail
    others = [r for name, r in results.items() if name != "orientation_theorems"]
    assert all(r.passed for r in others)


def _count_calls(monkeypatch, module: str, names: tuple[str, ...]) -> Counter:
    """Count calls to the named functions through every qbmg module that binds them."""
    counts: Counter = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("qbmg")]
    for name in names:
        orig = getattr(sys.modules[module], name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


def _count_group_calls(monkeypatch) -> Counter:
    return _count_calls(monkeypatch, "qbmg.autgroup",
                        ("aut_color_preserving", "aut_full", "canonical_gamma"))


def test_each_group_is_built_once_per_graph(monkeypatch):
    counts = _count_group_calls(monkeypatch)
    results = run_suite(refdata.BLOWUP_TWICE)
    assert all(r.passed for r in results)
    # The UW-orientation's refined cells keep its symmetric pairs, so its
    # group is not searched; the full group keeps colors, so it is Aut_I too.
    assert counts == {"aut_full": 1}


@pytest.mark.parametrize("g, searches", [
    (refdata.BLOWUP_TWICE, 1),
    # 1->{2,3} with 2->1: the orientation gains (2 3), which its cells
    # cannot rule out, so its group is searched too.
    (ColoredDigraph(("1",), ("2", "3"), [("1", "2"), ("2", "1"), ("1", "3")]), 2),
])
def test_uw_orientation_is_searched_only_when_its_cells_do_not_decide(monkeypatch, g, searches):
    counts = _count_calls(monkeypatch, "qbmg.autgroup", ("_search_automorphisms",))
    run_suite(g, checks=["orientation_theorems"])
    assert counts == {"_search_automorphisms": searches}


def test_group_is_reused_for_an_orientation_without_symmetric_edges(monkeypatch):
    counts = _count_group_calls(monkeypatch)
    results = run_suite(layered(refdata.TWO_LAYER_M4_SPEC))
    assert all(r.passed for r in results)
    # No symmetric edges: the UW-orientation is g, so g's group is not searched again,
    # and the full group, which keeps colors, is read as Aut_I.
    assert counts == {"aut_full": 1}


def test_aut_i_is_the_full_group_wherever_it_keeps_colors(enumerated_pool):
    # Aut_I lies in the full group, so the full group keeps colors exactly
    # when their orders agree.
    kept = 0
    for g in enumerated_pool:
        facts = GraphFacts(g)
        full = facts.full
        searched = aut_color_preserving(g)
        if searched.order == full.order:
            kept += 1
            assert facts.aut_i is full
            assert (full.order, full.generators, full.orbit_masks()) == (
                searched.order, searched.generators, searched.orbit_masks())
        else:
            assert facts.aut_i is not full and facts.aut_i.order == searched.order
    assert kept == 15482


@pytest.mark.parametrize("g", [
    refdata.complete_symmetric(2, 2),
    MATCHING5,
    ColoredDigraph(("1", "2"), ("3",), ()),  # one twin class of both colors
], ids=["K22", "matching5", "edgeless-both-colors"])
def test_aut_i_is_searched_when_the_full_group_switches_colors(monkeypatch, g):
    counts = _count_group_calls(monkeypatch)
    assert all(r.passed for r in run_suite(g))
    assert counts == {"aut_color_preserving": 1, "aut_full": 1}
    facts = GraphFacts(g)
    assert facts.full.order > facts.aut_i.order


@pytest.mark.parametrize("g", [
    refdata.BLOWUP_TWICE,
    MATCHING5,
], ids=["blowup-twice", "matching5"])
def test_orientation_theorems_alone_build_no_full_group(monkeypatch, g):
    counts = _count_group_calls(monkeypatch)
    assert all(r.passed for r in run_suite(g, checks=["orientation_theorems"]))
    assert counts == {"aut_color_preserving": 1}


def test_a_planted_full_group_is_not_read_as_aut_i(monkeypatch):
    # A class attribute is no full group built for this graph: Aut_I is searched.
    g = refdata.complete_symmetric(2, 3)
    monkeypatch.setattr(GraphFacts, "full", PermGroup.from_generators([], g.vertices))
    facts = GraphFacts(g)
    assert facts.full.order == 1 and facts.aut_i.order == 12


def _results_or_cap(g: ColoredDigraph, checks=None):
    """The suite's results by name, or the message of the cap it stopped on."""
    try:
        return {r.name: r for r in run_suite(g, checks)}
    except SizeCapError as exc:
        return str(exc)


def test_checks_in_reverse_order_give_the_default_results(enumerated_pool):
    # Reversed, the hereditary and orientation checks read Aut_I before the
    # full group is built, so Aut_I is searched instead of read off it. Only
    # the files under fixtures/caps stop on a cap, and on the same one.
    corpus = [(parse_graph(p.read_text()), p.parent.name == "caps")
              for p in sorted((ROOT / "fixtures").glob("*/*.qbmg"))]
    for g, capped in corpus + [(g, False) for g in enumerated_pool[::10]]:
        default = _results_or_cap(g)
        assert isinstance(default, str) == capped
        assert _results_or_cap(g, CHECK_NAMES[::-1]) == default


def test_the_suite_builds_no_class_product_group(monkeypatch):
    # The statements about Gamma hold by construction, so no check reads it.
    counts = _count_calls(monkeypatch, "qbmg.autgroup", ("canonical_gamma",))
    for path in sorted((ROOT / "fixtures").glob("*/*.qbmg")):
        _results_or_cap(parse_graph(path.read_text()))
    assert counts == {}


@pytest.mark.parametrize("check", ["route_equivalence", "classical_equals_canonical_gamma",
                                   "canonical_gamma_normal", "canonical_orbits_are_classes"])
def test_a_line_that_holds_by_construction_passes_without_a_group(monkeypatch, check):
    # Each line's statement is pinned by the unit test CHECKS names for it;
    # run alone, it passes and builds no group, even where the groups are large.
    counts = _count_group_calls(monkeypatch)
    assert _only(refdata.BLOWUP_TWICE, check) == (True, "")
    assert counts == {}


@pytest.mark.parametrize("path", sorted((ROOT / "fixtures" / "corpus").glob("*.qbmg")),
                         ids=lambda p: p.stem)
def test_suite_computes_the_twin_classes_once_per_graph(monkeypatch, path):
    # One pass for g, read by thinness, the classical quotient and Aut_I, and
    # one for its classical quotient, whose thinness classical_idempotent tests.
    g = parse_graph(path.read_text())
    filled, _ = record_class_masks(monkeypatch)
    assert all(r.passed for r in run_suite(g))
    assert len(filled) == 2 and filled[0] is g
    assert filled[1] == classical_quotient(g).quotient


def test_thin_orbit_pairs_builds_only_the_groups_it_reads(monkeypatch):
    counts = _count_group_calls(monkeypatch)
    results = run_suite(layered(refdata.TWO_LAYER_M4_SPEC), checks=["thin_orbit_pairs"])
    assert [(r.name, r.passed, r.detail) for r in results] == [("thin_orbit_pairs", True, "")]
    # The full group is built first and keeps colors, so Aut_I is read off it.
    assert counts == {"aut_full": 1}


def test_thin_orbit_pairs_reuses_the_membership_verdict(monkeypatch):
    counts = _count_calls(monkeypatch, "qbmg.axioms", ("is_2qbmg",))
    results = run_suite(layered(refdata.TWO_LAYER_M4_SPEC), checks=["thin_orbit_pairs"])
    assert [(r.name, r.passed) for r in results] == [("thin_orbit_pairs", True)]
    assert counts == {"is_2qbmg": 1}


def test_orientation_theorems_reuse_the_membership_verdict(monkeypatch):
    # layered(2, 3) is oriented, so it has one orientation, itself, which is
    # not recognised again: membership is tested once, for the suite.
    counts = _count_calls(monkeypatch, "qbmg.axioms", ("is_2qbmg",))
    results = run_suite(layered(default_layered_spec(2, 3)), checks=["orientation_theorems"])
    assert [(r.name, r.passed) for r in results] == [("orientation_theorems", True)]
    assert counts == {"is_2qbmg": 1}


def test_gamma_hereditary_quotients_each_cycle_partition_once(monkeypatch):
    # Aut_I of K_{2,3} is S_2 x S_3: nine cyclic subgroups besides the trivial
    # one, but eight distinct cycle partitions outside the orbit partition,
    # which is also the class product group's and is quotiented once.
    # Membership, that partition, and those eight.
    counts = _count_calls(monkeypatch, "qbmg.axioms", ("is_2qbmg",))
    results = run_suite(refdata.complete_symmetric(2, 3), checks=["gamma_quotient_hereditary"])
    assert [(r.name, r.passed) for r in results] == [("gamma_quotient_hereditary", True)]
    assert counts == {"is_2qbmg": 10}


def _record_quotients(monkeypatch) -> list[tuple[ColoredDigraph, tuple[int, ...]]]:
    """From now on: the graph and blocks of every ``_quotient`` call, through every qbmg
    module that binds it."""
    calls = []
    orig = quotients._quotient

    def recorded(g, masks):
        calls.append((g, tuple(masks)))
        return orig(g, masks)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qbmg") and vars(mod).get("_quotient") is orig:
            monkeypatch.setattr(mod, "_quotient", recorded)
    return calls


@pytest.mark.parametrize("g, partitions", [
    # The classes, which are also Aut_I's orbits, and eight cycle partitions
    # (see above).
    (refdata.complete_symmetric(2, 3), 9),
    # Aut_I is the class product group of two twin pairs: the classes, and
    # the cycle partitions of the two single swaps, their product's being the
    # classes.
    (refdata.BLOWUP_TWICE, 3),
], ids=["K23", "blowup-twice"])
def test_suite_quotients_each_partition_once(monkeypatch, g, partitions):
    calls = _record_quotients(monkeypatch)
    assert all(r.passed for r in run_suite(g))
    assert len(set(calls)) == len(calls) == partitions


def _count_element_walks(monkeypatch) -> Counter:
    counts: Counter = Counter()
    walk = PermGroup._element_ranks

    def counted(self):
        counts["_element_ranks"] += 1
        return walk(self)

    monkeypatch.setattr(PermGroup, "_element_ranks", counted)
    return counts


@pytest.mark.parametrize("g", [
    layered(refdata.TWO_LAYER_M4_SPEC),
    MATCHING5,
], ids=["two-layer-m4", "matching5"])
def test_fixed_vertex_in_neighborhood_walks_no_element_on_a_passing_graph(monkeypatch, g):
    counts = _count_element_walks(monkeypatch)
    results = run_suite(g, checks=["fixed_vertex_in_neighborhood"])
    assert [(r.passed, r.detail) for r in results] == [(True, "")]
    assert GraphFacts(g).full.order > 1 and counts == {}



@pytest.mark.parametrize("g", [refdata.BLOWUP_TWICE, refdata.complete_symmetric(2, 3)],
                         ids=["blowup-twice", "K23"])
def test_suite_builds_no_token_partition(monkeypatch, g):
    # The suite reads classes, orbits and cycle partitions as rank masks.
    counts = _count_calls(monkeypatch, "qbmg.quotients",
                          ("partition_quotient", "equivalence_classes"))
    post_init = Partition.__post_init__

    def counted(self):
        counts["Partition"] += 1
        post_init(self)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    assert all(r.passed for r in run_suite(g))
    assert counts == {}

def test_fixed_vertex_in_neighborhood_reports_a_moved_in_neighbor(monkeypatch):
    # A thin member 1 -> 2 -> 3 with a planted full group <(1 3)>: (1 3) fixes
    # 2 but moves 1, an in-neighbor of 2.
    g = ColoredDigraph(("1", "3"), ("2",), [("1", "2"), ("2", "3")])
    swap = Permutation.from_mapping({"1": "3", "3": "1"}, g.vertices)
    monkeypatch.setattr(GraphFacts, "full", PermGroup.from_generators([swap]))
    counts = _count_element_walks(monkeypatch)
    results = run_suite(g, checks=["fixed_vertex_in_neighborhood"])
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("fixed_vertex_in_neighborhood", False, "(1 3) fixes 2 but moves its in-neighbor 1")]
    assert counts == {"_element_ranks": 1}  # the walk names the witness


def _planted_fixed_vertex(g, gens) -> tuple[bool, str]:
    # The check with a foreign group planted as the full group.
    facts = GraphFacts(g)
    facts.full = PermGroup._from_ranks(g.sorted_vertices, gens)
    return CHECKS["fixed_vertex_in_neighborhood"](facts)


@pytest.fixture(scope="module")
def thin_members(enumerated_pool):
    return [g for g in enumerated_pool if is_thin(g)]


def test_fixed_vertex_by_pair_orbits_equals_the_walk_on_planted_transpositions(thin_members):
    # Every transposition of ranks planted on every 25th thin pool member.
    verdicts = Counter()
    for g in thin_members[::25]:
        n = g.n_vertices
        for a in range(n):
            for b in range(a + 1, n):
                swap = list(range(n))
                swap[a], swap[b] = b, a
                outcome = _planted_fixed_vertex(g, [tuple(swap)])
                assert outcome == oracles.fixed_vertex_walk(g, [tuple(swap)])
                verdicts[outcome[0]] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fixed_vertex_by_pair_orbits_equals_the_walk_on_planted_groups(thin_members, data):
    # Thin members with up to three planted permutations of their ranks,
    # automorphisms or not.
    g = data.draw(st.sampled_from(thin_members))
    gens = data.draw(st.lists(st.permutations(range(g.n_vertices)).map(tuple), max_size=3))
    assert _planted_fixed_vertex(g, gens) == oracles.fixed_vertex_walk(g, gens)



def _reject_quotients(monkeypatch, bad) -> None:
    """Make the suite's membership test reject every graph ``bad`` accepts."""
    real = verify.is_2qbmg
    monkeypatch.setattr(verify, "is_2qbmg", lambda h: not bad(h) and real(h))


def _only(g, check: str) -> tuple[bool, str]:
    (result,) = run_suite(g, checks=[check])
    assert result.name == check
    return result.passed, result.detail


def test_gamma_hereditary_reports_the_quotient_by_aut_i(monkeypatch):
    # K_{2,3} has orbits {1,2} and {3,4,5}: the first quotient tested has 2 vertices.
    _reject_quotients(monkeypatch, lambda h: h.n_vertices == 2)
    assert _only(refdata.complete_symmetric(2, 3), "gamma_quotient_hereditary") == (
        False, "quotient by full Aut_I is not a 2-qBMG")


def test_gamma_hereditary_reports_the_quotient_by_the_class_product_group(monkeypatch):
    # One twin pair: the class product group merges it alone, so its quotient
    # has 16 vertices, while Aut_I's orbits give 8.
    g = blow_up(layered(refdata.TWO_LAYER_M4_SPEC), "1", "99")
    _reject_quotients(monkeypatch, lambda h: h.n_vertices == 16)
    assert _only(g, "gamma_quotient_hereditary") == (
        False, "quotient by canonical gamma is not a 2-qBMG")


def test_gamma_hereditary_reports_the_first_failing_element(monkeypatch):
    # In rank-tuple order the elements of S_2 x S_3 start (), (4 5), (3 4),
    # (3 4 5): the first whose cycle partition has three blocks is (3 4 5),
    # although (1 2)(3 4) and (1 2)(4 5) give three blocks too.
    _reject_quotients(monkeypatch, lambda h: h.n_vertices == 3)
    assert _only(refdata.complete_symmetric(2, 3), "gamma_quotient_hereditary") == (
        False, "quotient by cyclic<(3 4 5)> is not a 2-qBMG")


def test_gamma_hereditary_reports_a_cyclic_subgroup_on_a_non_thin_graph(monkeypatch):
    # Reject only the quotients in which vertex 1 stays a singleton and
    # 2 and 3 are merged; (2 3) is the first element that does both.
    g = refdata.complete_symmetric(3, 3)
    _reject_quotients(monkeypatch, lambda h: "q_1" in h.vertices and "q_3" not in h.vertices
                      and "q_2" in h.vertices)
    assert _only(g, "gamma_quotient_hereditary") == (
        False, "quotient by cyclic<(2 3)> is not a 2-qBMG")


@pytest.mark.parametrize("planted", ["aut_i", "full"])
def test_thin_orbit_pairs_reports_the_misfit_pair(monkeypatch, planted):
    # The thin member 1 -> 2 -> 3 with a planted group <(1 3)>, the other
    # group trivial: the U-orbit {1, 3} sends an edge to 2 and receives one.
    g = ColoredDigraph(("1", "3"), ("2",), [("1", "2"), ("2", "3")])
    swap = Permutation.from_mapping({"1": "3", "3": "1"}, g.vertices)
    for name in ("aut_i", "full"):
        gens = [swap] if name == planted else []
        monkeypatch.setattr(GraphFacts, name, PermGroup.from_generators(gens, g.vertices))
    assert _only(g, "thin_orbit_pairs") == (
        False, "orbit pair (['1', '3'], ['2']) has oriented edges in both directions; "
               "this contradicts the thin structure theorem and indicates a bug")


def test_classical_idempotent_reports_a_quotient_that_is_not_thin(monkeypatch):
    # Planted as the classical quotient: K_{2,3} itself, by the singleton partition.
    g = refdata.complete_symmetric(2, 3)
    singletons = Partition.from_blocks([{v} for v in g.vertices])
    monkeypatch.setattr(GraphFacts, "classical", partition_quotient(g, singletons))
    assert _only(g, "classical_idempotent") == (False, "classical quotient is not thin")


def _plant_groups(monkeypatch, g, **gens) -> None:
    for name, perms in gens.items():
        group = PermGroup.from_generators(
            [Permutation.from_mapping(p, g.vertices) for p in perms], g.vertices)
        monkeypatch.setattr(GraphFacts, name, group)


def test_common_out_neighbor_reports_inequivalent_orbit_mates(monkeypatch):
    g = ColoredDigraph(("1", "3"), ("2", "4"), [("1", "2"), ("3", "2"), ("3", "4")])
    _plant_groups(monkeypatch, g, full=[{"1": "3", "3": "1"}])
    assert _only(g, "common_out_neighbor_equivalence") == (
        False, "orbit mates 1, 3 share an out-neighbor but are not equivalent")


def _orientations_have_cycles(monkeypatch) -> None:
    monkeypatch.setattr(orientations, "_acyclic", lambda o: False)


def test_orientation_theorems_report_a_cyclic_orientation(monkeypatch):
    _orientations_have_cycles(monkeypatch)
    g = layered(default_layered_spec(2, 1))
    assert _only(g, "orientation_theorems") == (
        False, "orientation #1 has a directed cycle; an orientation of a thin graph has a cycle")


def test_orientation_theorems_name_no_thinness_on_a_non_thin_graph(monkeypatch):
    # The diamond's two middles are equivalent, so it is not thin; only (*)
    # asks for acyclic orientations, and only its violation is reported.
    _orientations_have_cycles(monkeypatch)
    g = n2_trivial_layer(1, *default_n2_trivial_tables(1))
    assert _only(g, "orientation_theorems") == (False, "orientation #1 has a directed cycle")


def test_orientation_theorems_report_a_cycle_without_star(monkeypatch):
    # Without (*) only thinness asks for acyclic orientations, and no
    # violation names the orientation; only the thin-graph violation remains.
    _orientations_have_cycles(monkeypatch)
    monkeypatch.setattr(orientations, "satisfies_star", lambda g: False)
    g = layered(default_layered_spec(2, 1))
    assert _only(g, "orientation_theorems") == (
        False, "an orientation of a thin graph has a cycle")


# Not an automorphism: the group is planted so that the check fails. The
# detail must name the least fixed vertex and its least moved in-neighbor
# whatever the hash seed, which orders the sets a token-set scan reads.
_PLANTED_FAILURE = """
from qbmg import ColoredDigraph, PermGroup, Permutation, is_thin
from qbmg.verify import CHECKS, GraphFacts
g = ColoredDigraph("abef", "cdxy", [("c", "a"), ("d", "b"), ("x", "a"), ("y", "b"),
                                    ("e", "x"), ("f", "c"), ("e", "d"), ("f", "y")])
facts = GraphFacts(g)
assert is_thin(g)
swap = Permutation.from_mapping({"c": "d", "d": "c", "x": "y", "y": "x"}, g.vertices)
facts.full = PermGroup.from_generators([swap])
print(CHECKS["fixed_vertex_in_neighborhood"](facts))
"""


@pytest.mark.parametrize("seed", range(4))
def test_fixed_vertex_witness_is_the_least_in_token_order(seed):
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _PLANTED_FAILURE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "(False, '(c d)(x y) fixes a but moves its in-neighbor c')\n"
