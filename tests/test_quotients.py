"""Equivalence classes, quotients, and the thin orbit-pair structure."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg import (
    ColoredDigraph,
    PartitionError,
    Partition,
    aut_color_preserving,
    aut_full,
    axiom_report,
    blow_up,
    canonical_gamma,
    classical_quotient,
    equivalence_classes,
    format_partition,
    gamma_quotient,
    is_2qbmg,
    is_thin,
    layered,
    lifted_group,
    parse_graph,
    parse_partition,
    partition_quotient,
    random_layered_spec,
)
from qbmg.errors import NotAutomorphismError, PreconditionError
from qbmg.perms import PermGroup, Permutation
from qbmg.quotients import _orbit_pair_shapes

from tests import oracles, refdata
from tests.oracles import graphs_match_up_to_rename

CORPUS = Path(__file__).resolve().parent.parent / "fixtures" / "corpus"


def test_equivalence_classes_blowup():
    p = equivalence_classes(refdata.BLOWUP_ONCE)
    assert set(p.blocks) == {
        frozenset({"1", "6"}), frozenset({"2"}), frozenset({"3"}),
        frozenset({"4"}), frozenset({"5"}),
    }


def test_equivalence_classes_complete_symmetric():
    g = refdata.complete_symmetric(2, 3)
    p = equivalence_classes(g)
    assert set(p.blocks) == {g.color_u, g.color_w}


def test_equivalence_classes_thin_construction():
    g = layered(refdata.TWO_LAYER_M4_SPEC)
    assert all(len(b) == 1 for b in equivalence_classes(g).blocks)


def test_isolated_vertices_share_a_class():
    g = ColoredDigraph({"1", "3"}, {"2", "4"}, [("1", "2")])
    p = equivalence_classes(g)
    assert frozenset({"3", "4"}) in p.blocks


def test_partition_blocks_ordered_by_least_member():
    p = Partition.from_blocks([{"10", "9"}, {"2"}, {"1", "3"}])
    assert p.blocks == (frozenset({"1", "3"}), frozenset({"2"}), frozenset({"9", "10"}))


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(PartitionError):
        Partition.from_blocks([{"1"}, {"1", "2"}])
    with pytest.raises(PartitionError):
        Partition.from_blocks([set()])


def test_singleton_partition_quotient_is_renaming():
    g = refdata.BLOWUP_BASE
    result = partition_quotient(g, Partition.singletons(g.vertices))
    assert graphs_match_up_to_rename(g, result.quotient,
                                     {v: f"q_{v}" for v in g.vertices})


def test_partition_quotient_rejects_color_mixing_block():
    g = refdata.BLOWUP_BASE
    with pytest.raises(PartitionError, match="mixes colors"):
        partition_quotient(g, Partition.from_blocks([{"1", "2"}, {"3"}, {"4"}, {"5"}]))


def test_partition_quotient_rejects_wrong_support():
    g = refdata.BLOWUP_BASE
    with pytest.raises(PartitionError, match="uncovered"):
        partition_quotient(g, Partition.from_blocks([{"1"}, {"2"}]))


def test_all_isolated_mixed_block_goes_to_u():
    g = ColoredDigraph({"1"}, {"2"}, [])
    result = partition_quotient(g, Partition.from_blocks([{"1", "2"}]))
    assert result.quotient.color_u == {"q_1"}
    assert result.quotient.n_edges == 0


def test_monochromatic_isolated_block_keeps_color():
    g = ColoredDigraph({"1"}, {"2", "3"}, [])
    result = partition_quotient(g, Partition.from_blocks([{"1"}, {"2", "3"}]))
    assert result.quotient.color_w == {"q_2"}


def test_quotient_chain_partition():
    result = partition_quotient(
        refdata.QUOTIENT_CHAIN,
        Partition.from_blocks([{"1"}, {"8"}, {"2", "3", "4"}, {"5", "6", "7"}]))
    assert result.quotient.edges == {
        ("q_1", "q_8"), ("q_8", "q_2"), ("q_2", "q_5"), ("q_1", "q_5"),
    }
    assert is_2qbmg(result.quotient)


def test_quotient_chain_via_rotation_subgroup():
    g = refdata.QUOTIENT_CHAIN
    rot = Permutation.from_mapping(
        {"2": "3", "3": "4", "4": "2", "5": "6", "6": "7", "7": "5"}, g.vertices)
    grp = PermGroup.from_generators([rot])
    assert grp.order == 3
    result = gamma_quotient(g, grp)
    assert result.quotient.edges == {
        ("q_1", "q_8"), ("q_8", "q_2"), ("q_2", "q_5"), ("q_1", "q_5"),
    }


def test_complete_symmetric_class_quotient():
    g = refdata.complete_symmetric(2, 3)
    result = partition_quotient(g, Partition.from_blocks([g.color_u, g.color_w]))
    assert result.quotient.edges == {("q_1", "q_3"), ("q_3", "q_1")}


def test_classical_quotient_of_thin_graph_is_itself():
    g = refdata.QUOTIENT_CHAIN
    assert is_thin(g)
    result = classical_quotient(g)
    assert graphs_match_up_to_rename(g, result.quotient, result.projection)


def test_classical_quotient_blowup():
    result = classical_quotient(refdata.BLOWUP_ONCE)
    assert result.quotient.n_vertices == 5
    assert result.projection["1"] == result.projection["6"] == "q_1"
    assert result.quotient.edges == {
        ("q_1", "q_2"), ("q_2", "q_1"), ("q_3", "q_2"), ("q_3", "q_4"), ("q_4", "q_5"),
    }
    assert is_thin(result.quotient)


def test_classical_quotient_complete_symmetric():
    result = classical_quotient(refdata.complete_symmetric(2, 3))
    assert result.quotient.edges == {("q_1", "q_3"), ("q_3", "q_1")}


def test_gamma_quotient_trivial_group():
    g = refdata.BLOWUP_BASE
    result = gamma_quotient(g, PermGroup.from_generators([], g.vertices))
    assert graphs_match_up_to_rename(g, result.quotient, result.projection)


def test_gamma_quotient_two_layer_lifted():
    spec = refdata.TWO_LAYER_M4_SPEC
    from qbmg import layered
    g = layered(spec)
    grp = lifted_group(spec)
    result = gamma_quotient(g, grp)
    assert result.quotient.edges == {
        ("q_1", "q_9"), ("q_9", "q_5"), ("q_5", "q_13"), ("q_1", "q_13"),
    }
    assert is_2qbmg(result.quotient)


def test_gamma_quotient_full_group_complete_symmetric():
    g = refdata.complete_symmetric(2, 3)
    result = gamma_quotient(g, aut_color_preserving(g))
    assert result.quotient.edges == {("q_1", "q_3"), ("q_3", "q_1")}


def test_gamma_quotient_rejects_non_automorphism():
    g = refdata.BLOWUP_BASE
    bad = Permutation.from_mapping({"1": "3", "3": "1"}, g.vertices)
    grp = PermGroup.from_generators([bad])
    with pytest.raises(NotAutomorphismError, match="not an automorphism"):
        gamma_quotient(g, grp)


def _planted(gens, domain=("1", "2", "3")):
    # 1 -> 2 with 3 isolated in W.
    g = ColoredDigraph(("1",), ("2", "3"), [("1", "2")])
    perms = [Permutation.from_mapping(dict(zip(c, c[1:] + c[:1])), domain) for c in gens]
    return g, PermGroup.from_generators(perms, domain)


@pytest.mark.parametrize("gens, message", [
    # (1 2 3) and (1 2) generate Sym(3), whose first canonical generator is
    # (2 3): the fault is named by it, not by the generating rank that shows it.
    ((("1", "2", "3"), ("1", "2")), "generator (2 3) is not an automorphism"),
    ((("1", "2", "3"),), "generator (1 2 3) is not an automorphism"),
])
def test_gamma_quotient_names_a_planted_fault_by_the_canonical_generators(gens, message):
    g, grp = _planted(gens)
    with pytest.raises(NotAutomorphismError, match=f"^{re.escape(message)}$"):
        gamma_quotient(g, grp)


@pytest.mark.parametrize("gens, error, message", [
    ((("1", "4"),), NotAutomorphismError,
     "permutation domain does not match the graph's vertex set"),
    ((), PartitionError, "partition does not match the vertex set: unknown vertices ['4']"),
])
def test_gamma_quotient_rejects_a_foreign_domain(gens, error, message):
    g, grp = _planted(gens, ("1", "2", "3", "4"))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        gamma_quotient(g, grp)


def test_gamma_quotient_accepts_on_the_generating_ranks():
    # The matching's group is searched, so its canonical generators would
    # need a chain; accepting reads neither.
    u, w = ("1", "2", "3"), ("4", "5", "6")
    g = ColoredDigraph(u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])
    grp = aut_color_preserving(g)
    assert gamma_quotient(g, grp).quotient.edges == {("q_1", "q_4"), ("q_4", "q_1")}
    assert grp._generators is None and grp._levels is None


def _symmetric_edge_with_swap():
    g = ColoredDigraph({"1"}, {"2"}, [("1", "2"), ("2", "1")])
    swap = Permutation.from_mapping({"1": "2", "2": "1"}, g.vertices)
    return g, PermGroup.from_generators([swap])


def test_gamma_quotient_rejects_color_switching_generator():
    # The swap is an automorphism; its orbit mixes the colors of edge-bearing
    # vertices, which the partition block rule rejects.
    g, grp = _symmetric_edge_with_swap()
    with pytest.raises(PartitionError, match="mixes colors"):
        gamma_quotient(g, grp)


def test_nonorbit_partition_quotient_breaks_bitransitivity():
    g = refdata.NONORBIT_BASE
    assert is_2qbmg(g)
    result = partition_quotient(g, Partition.from_blocks(refdata.NONORBIT_BLOCKS))
    assert not is_2qbmg(result.quotient)
    assert not axiom_report(result.quotient).n2.holds


def test_thin_orbit_structure_two_layer():
    spec = refdata.TWO_LAYER_M4_SPEC
    from qbmg import layered
    g = layered(spec)
    shapes = _orbit_pair_shapes(g, lifted_group(spec).orbit_masks())
    assert len(shapes) == 4
    for _, _, (kind, fan_out, _) in shapes:
        assert kind == "STARS"
        assert fan_out == 1


def test_thin_orbit_structure_symmetric_matching():
    g = ColoredDigraph(("1", "2"), ("3", "4"),
                       [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2")])
    grp = aut_color_preserving(g)
    shapes = _orbit_pair_shapes(g, grp.orbit_masks())
    assert [kind for _, _, (kind, _, _) in shapes] == ["SYMMETRIC_MATCHING"]


_BUG = "; this contradicts the thin structure theorem and indicates a bug"


@pytest.mark.parametrize("u, w, edges, message", [
    (("1",), ("2", "3"), [("1", "2"), ("2", "1"), ("1", "3"), ("3", "1")],
     "orbit pair (['1'], ['2', '3']) has symmetric edges but is not a perfect symmetric matching"),
    (("1", "2"), ("3", "4"), [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2"), ("2", "3")],
     "orbit pair (['1', '2'], ['3', '4']) has symmetric edges but is not a perfect symmetric "
     "matching"),
    (("1",), ("2", "3"), [("1", "2"), ("3", "1")],
     "orbit pair (['1'], ['2', '3']) has oriented edges in both directions"),
    (("1", "2"), ("3",), [("1", "3"), ("2", "3")],
     "orbit pair (['1', '2'], ['3']) is not a disjoint union of stars covering the sink orbit"),
    (("1", "2"), ("3", "4", "5"), [("1", "3"), ("2", "4"), ("2", "5")],
     "orbit pair (['1', '2'], ['3', '4', '5']) is not a disjoint union of stars covering the "
     "sink orbit"),
    (("1", "2"), ("3", "4", "5", "6"), [("4", "1"), ("5", "2"), ("3", "1"), ("6", "1")],
     "orbit pair (['1', '2'], ['3', '4', '5', '6']) is not a disjoint union of stars covering "
     "the sink orbit"),
], ids=["sym-star", "sym-extra-edge", "both-directions", "shared-sink", "uneven-fans",
        "w-side-uneven-fans"])
def test_thin_orbit_structure_rejects_each_misfit(u, w, edges, message):
    g = ColoredDigraph(u, w, edges)
    with pytest.raises(PreconditionError) as exc:
        _orbit_pair_shapes(g, [g.u_mask, g.w_mask])
    assert str(exc.value) == message + _BUG


def test_canonical_gamma_quotient_matches_classical(enumerated_pool):
    # The suite's classical_equals_canonical_gamma line holds by construction;
    # this is the statement it stands for.
    corpus = [parse_graph(p.read_text()) for p in sorted(CORPUS.glob("*.qbmg"))]
    for g in (refdata.complete_symmetric(3, 2), *corpus, *enumerated_pool):
        a = classical_quotient(g)
        b = gamma_quotient(g, canonical_gamma(g))
        assert a.quotient == b.quotient and a.projection == b.projection


def test_search_finds_non_hereditary_partition_quotient():
    # Independent derivation of the non-hereditariness demonstration: scan
    # small members and monochromatic partitions until a quotient breaks
    # bi-transitivity. The hand-built fixture is not consulted.
    from itertools import product
    from tests.oracles import enumerate_bipartite_digraphs

    def monochromatic_partitions(g):
        # Group assignments per color class with at most 2 blocks per class.
        def splits(tokens):
            tokens = sorted(tokens)
            for assignment in product((0, 1), repeat=len(tokens)):
                blocks: dict[int, set] = {}
                for t, b in zip(tokens, assignment):
                    blocks.setdefault(b, set()).add(t)
                yield list(blocks.values())
        for u_blocks in splits(g.color_u):
            for w_blocks in splits(g.color_w):
                yield Partition.from_blocks(u_blocks + w_blocks)

    found = None
    for g in enumerate_bipartite_digraphs(3, 3):
        if g.n_edges < 4 or not is_2qbmg(g):
            continue
        for p in monochromatic_partitions(g):
            if len(p) == g.n_vertices:
                continue
            q = partition_quotient(g, p).quotient
            if not axiom_report(q).n2.holds:
                found = (g, p)
                break
        if found:
            break
    assert found is not None
    g, p = found
    assert is_2qbmg(g) and not is_2qbmg(partition_quotient(g, p).quotient)


def test_subgroup_lattice_hereditariness_on_small_fixtures():
    # For groups of order <= 200, quotient by every subgroup, not only the
    # cyclic ones, and demand membership each time.
    from tests.oracles import subgroup_lattice

    for g in (refdata.QUOTIENT_CHAIN, refdata.STAR_PRODUCT,
              refdata.complete_symmetric(2, 3), refdata.BLOWUP_TWICE):
        aut = aut_color_preserving(g)
        assert aut.order <= 200
        subs = subgroup_lattice(aut)
        assert subs[-1].order == aut.order
        for sub in subs:
            assert is_2qbmg(gamma_quotient(g, sub).quotient), (g, sub.order)


def test_partition_text_roundtrip():
    p = Partition.from_blocks(refdata.NONORBIT_BLOCKS)
    assert parse_partition(format_partition(p)) == p


def test_parse_partition_rejects_duplicates():
    from qbmg import GraphFormatError
    with pytest.raises(GraphFormatError):
        parse_partition("1 1\n")
    # An overlap is reported at the line of the block that overlaps an earlier one.
    with pytest.raises(GraphFormatError) as exc:
        parse_partition("1 2\n2 3\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_partition("1 2\n\n# comment\n3\n4 1\n")
    assert exc.value.line == 5


# -- the mask core against the token views --------------------------------------

TOKENS = ("1", "2", "9", "10", "11", "a", "b", "x7", "x10")


def _relabel(g: ColoredDigraph, names) -> ColoredDigraph:
    to = dict(zip(g.sorted_vertices, names))
    return ColoredDigraph([to[v] for v in g.color_u], [to[v] for v in g.color_w],
                          [(to[a], to[b]) for a, b in g.edges])


def _assert_views_agree(g: ColoredDigraph) -> None:
    classes = equivalence_classes(g)
    assert classes.blocks == oracles.equivalence_blocks(g)
    assert partition_quotient(g, classes) == classical_quotient(g)
    aut_i, gamma = aut_color_preserving(g), canonical_gamma(g)
    for grp in (aut_i, aut_full(g), gamma):
        orbits = oracles.orbit_blocks(grp)
        assert grp.orbit_sets() == orbits
        assert [frozenset(g.tokens(m)) for m in grp.orbit_masks()] == orbits
    for grp in (aut_i, gamma):
        by_blocks = partition_quotient(g, Partition.from_blocks(oracles.orbit_blocks(grp)))
        assert by_blocks == gamma_quotient(g, grp)


def test_mask_and_token_views_agree_on_the_pool(enumerated_pool):
    for g in enumerated_pool[::47]:
        _assert_views_agree(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mask_and_token_views_agree_on_random_members(enumerated_pool, data):
    # Pool members and small layered members under random token names, some
    # blown up, so that rank order and token order are both exercised.
    if data.draw(st.booleans()):
        g = data.draw(st.sampled_from(enumerated_pool))
    else:
        spec = random_layered_spec(data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2)),
                                   data.draw(st.integers(0, 10**6)))
        g = layered(spec)
    names = data.draw(st.permutations([*TOKENS, *(f"v{i}" for i in range(g.n_vertices))]))
    g = _relabel(g, names)
    if data.draw(st.booleans()):
        g = blow_up(g, data.draw(st.sampled_from(g.sorted_vertices)), "z")
    assert is_2qbmg(g)
    _assert_views_agree(g)
