"""Group search, the twin-quotient route, canonical product group, normality."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from qbmg import (
    ColoredDigraph,
    Permutation,
    Partition,
    QbmgError,
    SearchStats,
    SizeCapError,
    aut_color_preserving,
    aut_full,
    blow_up,
    canonical_gamma,
    classical_quotient,
    equivalence_classes,
    is_automorphism,
    layered,
    lift_permutation,
    lifted_group,
    random_layered_spec,
    uw_orientation,
)
from qbmg import perms
from qbmg.autgroup import _color_cells, _refine, _search_automorphisms
from qbmg.errors import InternalCheckError, NotAutomorphismError
from qbmg.perms import (
    PermGroup,
    _orbit_masks,
    _schreier_sims,
    _symmetric_chain,
    canonical_generators,
)
from qbmg.quotients import class_masks
from qbmg.verify import GraphFacts, run_suite

from tests import refdata
from tests.oracles import (
    brute_force_color_preserving,
    brute_force_full,
    brute_force_twin_quotient_order,
    direct_full,
    enumerate_bipartite_digraphs,
    fits_search,
    greedy_descent_generators,
    is_normal,
    networkx_color_preserving,
    refine_every_vertex,
)


@pytest.fixture(scope="module")
def two_layer_m4():
    return layered(refdata.TWO_LAYER_M4_SPEC)


def test_identity_is_automorphism():
    g = refdata.BLOWUP_BASE
    assert is_automorphism(g, Permutation.identity(g.vertices), color_preserving=True)


def test_lifted_transposition_is_automorphism(two_layer_m4):
    from qbmg import lift_permutation
    phi = lift_permutation(refdata.TWO_LAYER_M4_SPEC,
                           {"1": "2", "2": "1", "3": "3", "4": "4"})
    assert phi.cycle_string() == "(1 2)(6 8)(9 10)(13 16)"
    assert is_automorphism(two_layer_m4, phi, color_preserving=True)


def test_source_sink_swap_is_not_automorphism():
    g = refdata.BLOWUP_BASE
    p = Permutation.from_mapping({"1": "5", "5": "1"}, g.vertices)
    assert not is_automorphism(g, p)


def test_is_automorphism_rejects_wrong_domain():
    g = refdata.BLOWUP_BASE
    with pytest.raises(NotAutomorphismError):
        is_automorphism(g, Permutation.identity({"1", "2"}))


def test_aut_matches_brute_force_on_small_fixtures():
    for g in (refdata.BLOWUP_BASE, refdata.BLOWUP_ONCE, refdata.BLOWUP_TWICE,
              refdata.QUOTIENT_CHAIN, refdata.STAR_PRODUCT,
              refdata.complete_symmetric(2, 3)):
        assert aut_color_preserving(g).elements == brute_force_color_preserving(g)


def test_aut_complete_symmetric_orders():
    assert aut_color_preserving(refdata.complete_symmetric(2, 3)).order == 12
    assert aut_color_preserving(refdata.complete_symmetric(1, 1)).order == 1


def test_aut_two_layer_is_lifted_group(two_layer_m4):
    grp = aut_color_preserving(two_layer_m4)
    assert grp.order == 24
    assert grp.elements == lifted_group(refdata.TWO_LAYER_M4_SPEC).elements


def test_aut_single_directed_edge():
    assert aut_color_preserving(ColoredDigraph(("1",), ("2",), [("1", "2")])).order == 1


def test_aut_star_product_order():
    assert aut_color_preserving(refdata.STAR_PRODUCT).order == 36


def test_aut_quotient_chain_order():
    assert aut_color_preserving(refdata.QUOTIENT_CHAIN).order == 6


@pytest.mark.parametrize("s, m", [(4, 4), (2, 6)])
def test_aut_layered_is_the_lifted_symmetric_group(s, m):
    spec = random_layered_spec(s, m, 1)
    grp = aut_color_preserving(layered(spec))
    assert grp.order == math.factorial(m)
    assert grp.elements == lifted_group(spec).elements


# A leaf is a strong generator, one per level whose fundamental orbit grows:
# m-1 of them for the lifted symmetric group, with fundamental orbits of
# lengths m, m-1, ..., 2 spread over the base. enumerating_nodes: the same
# counter when the search enumerated every element in the same assignment
# order; it must stay below that.
@pytest.mark.parametrize("s, m, nodes, orbit_lengths, enumerating_nodes", [
    (4, 3, 40, (3, 1, 1, 1, 1, 1, 1, 1, 2), 121),
    (3, 4, 54, (4, 1, 1, 1, 1, 1, 3, 1, 1, 1, 1, 1, 2), 385),
    (2, 5, 56, (5, 1, 1, 1, 4, 1, 1, 1, 3, 1, 1, 1, 2), 1301),
])
def test_search_counts_on_the_layered_ladder(s, m, nodes, orbit_lengths, enumerating_nodes):
    stats = SearchStats()
    aut_color_preserving(layered(random_layered_spec(s, m, 1)), stats)
    assert stats == SearchStats(nodes=nodes, leaves=m - 1, dead_ends=0,
                                base_length=len(orbit_lengths), orbit_lengths=orbit_lengths,
                                refinement_rounds=2, classes=2 * s * m, class_product=1)
    assert sorted(x for x in orbit_lengths if x > 1) == list(range(2, m + 1))
    assert stats.nodes < enumerating_nodes


def test_search_counts_on_layered_s4m8():
    # 64 vertices, order 8! = 40,320: the enumerating search visited 876,801
    # nodes here.
    stats = SearchStats()
    grp = aut_color_preserving(layered(random_layered_spec(4, 8, 1)), stats)
    assert grp.order == math.factorial(8)
    assert stats.leaves == 7
    assert stats.nodes <= 280


def test_search_counts_dead_ends():
    # Directed cycles of lengths 8, 4 and 4: every vertex has in- and
    # out-degree 1, so refinement keeps one cell per color, and an 8-cycle
    # vertex sent into a 4-cycle fails only when its cycle closes.
    def cycle(vs):
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    g = ColoredDigraph([str(i) for i in range(1, 17, 2)], [str(i) for i in range(2, 17, 2)],
                       cycle([str(i) for i in range(1, 9)]) + cycle(["9", "10", "11", "12"])
                       + cycle(["13", "14", "15", "16"]))
    stats = SearchStats()
    grp = aut_color_preserving(g, stats)
    assert grp.elements == networkx_color_preserving(g)
    assert stats == SearchStats(nodes=39, leaves=4, dead_ends=1, base_length=13,
                                orbit_lengths=(4, 1, 1, 1, 1, 1, 1, 1, 4, 1, 1, 1, 2),
                                refinement_rounds=1, classes=16, class_product=1)


@pytest.mark.parametrize("g", [
    layered(random_layered_spec(4, 4, 1)),
    layered(random_layered_spec(2, 5, 1)),
    layered(random_layered_spec(2, 6, 1)),
    blow_up(layered(random_layered_spec(2, 5, 1)), "1", "21"),
], ids=["layered-s4m4", "layered-s2m5", "layered-s2m6", "blowup-s2m5"])
def test_aut_matches_networkx_self_isomorphisms(g):
    assert aut_color_preserving(g).elements == networkx_color_preserving(g)


def _sympy_group(dom, perms):
    rank = {v: i for i, v in enumerate(dom)}
    return SympyGroup([SympyPermutation([rank[p(v)] for v in dom]) for p in perms])


def _sifts_both_ways(grp, oracle, oracle_gens):
    dom = grp.domain
    rank = {v: i for i, v in enumerate(dom)}
    assert all(oracle.contains(SympyPermutation([rank[p(v)] for v in dom]))
               for p in grp.generators)
    assert all(p in grp for p in oracle_gens)


def _adjacent_lifts(spec, points):
    # Lifts of the adjacent transpositions of ``points`` (a part of U_1),
    # built by the construction alone, not by the search.
    u1 = sorted(spec.u_class(1), key=int)
    fixed = {v: v for v in u1}
    return [lift_permutation(spec, {**fixed, a: b, b: a}) for a, b in zip(points, points[1:])]


@pytest.mark.parametrize("s, m, seed", [(4, 5, 3), (4, 8, 1), (2, 16, 2), (8, 4, 5), (3, 10, 4)])
def test_aut_layered_matches_sympy(s, m, seed):
    # Independent oracle up to the 64-vertex cap: sympy's Schreier-Sims on the
    # lifted transpositions of U_1 gives order m!, and the two groups contain
    # each other's generators.
    spec = random_layered_spec(s, m, seed)
    grp = aut_color_preserving(layered(spec))
    lifts = _adjacent_lifts(spec, sorted(spec.u_class(1), key=int))
    oracle = _sympy_group(grp.domain, lifts)
    assert grp.order == oracle.order() == math.factorial(m)
    _sifts_both_ways(grp, oracle, lifts)


@pytest.mark.parametrize("s, m, seed", [(4, 7, 1), (2, 15, 6), (3, 10, 2)])
def test_aut_blow_up_matches_sympy(s, m, seed):
    # Blowing up vertex 1 makes {1, new} the one class of size 2, so the
    # group is the swap of the twins times the lifts that fix 1: order
    # 2 (m-1)!.
    spec = random_layered_spec(s, m, seed)
    new = str(2 * s * m + 1)
    g = blow_up(layered(spec), "1", new)
    grp = aut_color_preserving(g)
    dom = grp.domain
    gens = [Permutation.from_mapping({"1": new, new: "1"}, dom)]
    for p in _adjacent_lifts(spec, sorted(spec.u_class(1) - {"1"}, key=int)):
        gens.append(Permutation.from_mapping(p.as_dict(), dom))
    oracle = _sympy_group(dom, gens)
    assert grp.order == oracle.order() == 2 * math.factorial(m - 1)
    _sifts_both_ways(grp, oracle, gens)


def _symmetric_matching(k):
    # k disjoint symmetric edges i <-> k+i: thin, so q is g itself.
    u = [str(i) for i in range(1, k + 1)]
    w = [str(k + i) for i in range(1, k + 1)]
    return ColoredDigraph(u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])


def test_aut_cap():
    with pytest.raises(SizeCapError, match="capped at 64 vertices, got 66"):
        aut_color_preserving(_symmetric_matching(33))


def test_aut_edgeless_125_vertices_searches_only_its_quotient():
    # Two classes, one per color: q has two vertices of different colors.
    big = ColoredDigraph([str(i) for i in range(1, 60)],
                         [str(i) for i in range(60, 126)], [])
    stats = SearchStats()
    assert aut_color_preserving(big, stats).order == math.factorial(59) * math.factorial(66)
    assert (stats.nodes, stats.base_length) == (0, 0)


def test_aut_lift_cap():
    # q has two vertices (one for the full group), but g's own chain is bounded too.
    big = ColoredDigraph([str(i) for i in range(1, 65)], [str(i) for i in range(65, 130)], [])
    with pytest.raises(SizeCapError, match="^color-preserving group capped at 128 vertices, "
                                           "got 129$"):
        aut_color_preserving(big)
    with pytest.raises(SizeCapError, match="^full automorphism group capped at 128 vertices, "
                                           "got 129$"):
        aut_full(big)


def test_aut_full_balanced_symmetric_matching():
    g = ColoredDigraph(("u1", "u2"), ("w1", "w2"),
                       [("u1", "w1"), ("w1", "u1"), ("u2", "w2"), ("w2", "u2")])
    grp = aut_full(g)
    assert grp.order == 8
    assert grp.elements == brute_force_full(g)
    # One component flipped, the other fixed: neither color-preserving nor
    # color-switching, but still an automorphism.
    mixed = Permutation.from_mapping({"u1": "w1", "w1": "u1"}, g.vertices)
    assert mixed in grp.elements


def test_aut_full_complete_symmetric():
    g = refdata.complete_symmetric(2, 3)
    grp = aut_full(g)
    assert grp.order == 12
    assert grp.elements == brute_force_full(g)


def test_aut_full_edge_free_pair():
    g = ColoredDigraph(("a",), ("b",), [])
    assert aut_full(g).order == 2


def test_aut_full_contains_color_preserving(two_layer_m4):
    full = aut_full(two_layer_m4)
    sub = aut_color_preserving(two_layer_m4)
    assert sub.elements <= full.elements


def test_orbits_trivial_group():
    g = refdata.BLOWUP_BASE
    p = Partition.from_blocks(PermGroup.from_generators([], g.vertices).orbit_sets())
    assert all(len(b) == 1 for b in p.blocks)


def test_orbits_two_layer_lifted(two_layer_m4):
    p = Partition.from_blocks(lifted_group(refdata.TWO_LAYER_M4_SPEC).orbit_sets())
    assert set(p.blocks) == {
        frozenset({"1", "2", "3", "4"}), frozenset({"5", "6", "7", "8"}),
        frozenset({"9", "10", "11", "12"}), frozenset({"13", "14", "15", "16"}),
    }


def test_orbits_diamonds_three_orbits():
    from qbmg import n2_trivial_layer
    g = n2_trivial_layer(4, refdata.DIAMOND_M4_ALPHA, refdata.DIAMOND_M4_BETA,
                         refdata.DIAMOND_M4_GAMMA)
    grp = aut_color_preserving(g)
    assert grp.order == 384
    p = Partition.from_blocks(grp.orbit_sets())
    assert set(p.blocks) == {
        frozenset({"1", "2", "3", "4"}),
        frozenset({"13", "14", "15", "16"}),
        frozenset({"5", "6", "7", "8", "9", "10", "11", "12"}),
    }


def test_canonical_gamma_complete_symmetric():
    assert canonical_gamma(refdata.complete_symmetric(2, 3)).order == 12


def test_canonical_gamma_thin_graph_trivial(two_layer_m4):
    assert canonical_gamma(two_layer_m4).order == 1


def test_canonical_gamma_single_blowup():
    grp = canonical_gamma(refdata.BLOWUP_ONCE)
    assert grp.order == 2
    p = Partition.from_blocks(grp.orbit_sets())
    assert p == equivalence_classes(refdata.BLOWUP_ONCE)


def test_canonical_gamma_order_is_product_of_factorials():
    import math
    for g in (refdata.BLOWUP_TWICE, refdata.complete_symmetric(3, 4)):
        expected = 1
        for block in equivalence_classes(g).blocks:
            expected *= math.factorial(len(block))
        assert canonical_gamma(g).order == expected


def _edgeless(n):
    return ColoredDigraph([str(i) for i in range(1, n // 2 + 1)],
                          [str(i) for i in range(n // 2 + 1, n + 1)], [])


def test_canonical_gamma_edgeless_125_vertices_writes_its_chain():
    # One class of 125 isolated vertices: C(125, 2) * 125 = 968,750 ranks.
    grp = canonical_gamma(_edgeless(125))
    assert grp.order == math.factorial(125)
    assert grp.orbit_masks() == ((1 << 125) - 1,)


def test_canonical_gamma_chain_cap():
    # C(129, 2) * 129 ranks, past the 128-vertex edgeless graph's C(128, 2) * 128.
    with pytest.raises(SizeCapError, match="capped at 1040384 chain ranks, got 1065024"):
        canonical_gamma(_edgeless(129))


def test_canonical_gamma_normal_in_full():
    for g in (refdata.BLOWUP_ONCE, refdata.BLOWUP_TWICE,
              refdata.complete_symmetric(2, 2)):
        assert is_normal(canonical_gamma(g), aut_full(g))


def test_is_normal_reads_the_generating_ranks_only(enumerated_pool):
    # Normality is a fact of the two groups: no canonical generators are built.
    for g in enumerated_pool[::60]:
        gamma, full = canonical_gamma(g), aut_full(g)
        assert is_normal(gamma, full)
        assert gamma._generators is None and full._generators is None


def test_is_normal_trivial_subgroup():
    g = refdata.STAR_PRODUCT
    grp = aut_color_preserving(g)
    assert is_normal(PermGroup.from_generators([], g.vertices), grp)


def test_is_normal_rejects_non_subgroup():
    g = refdata.BLOWUP_BASE
    other = PermGroup.from_generators(
        [Permutation.from_mapping({"1": "3", "3": "1"}, g.vertices)])
    with pytest.raises(QbmgError, match="not contained"):
        is_normal(other, PermGroup.from_generators([], g.vertices))


def test_non_normal_subgroup_detected():
    # A directed out-star: the color-preserving group is the symmetric group
    # on the three leaves; a single transposition generates a non-normal
    # order-2 subgroup.
    g = ColoredDigraph(("c",), ("x", "y", "z"),
                       [("c", "x"), ("c", "y"), ("c", "z")])
    grp = aut_color_preserving(g)
    assert grp.order == 6
    swap = Permutation.from_mapping({"x": "y", "y": "x"}, g.vertices)
    sub = PermGroup.from_generators([swap])
    assert sub.elements <= grp.elements
    assert not is_normal(sub, grp)


@pytest.mark.parametrize("g", [
    refdata.complete_symmetric(2, 3), refdata.QUOTIENT_CHAIN, refdata.BLOWUP_TWICE,
    refdata.STAR_PRODUCT,
], ids=["k23", "quotient_chain", "blowup_twice", "star_product"])
def test_aut_over_gamma_is_the_twin_quotient_group(g):
    # |Aut_I| / |Gamma_I| = |Aut_w(q)|, q the quotient by the classes split
    # by color, counted by brute force on q.
    assert (aut_color_preserving(g).order
            == brute_force_twin_quotient_order(g) * canonical_gamma(g).order)


def _fixed_in_neighborhood(g) -> tuple[bool, str]:
    (result,) = run_suite(g, checks=["fixed_vertex_in_neighborhood"])
    return result.passed, result.detail


def test_fixes_in_neighborhood_identity(two_layer_m4, monkeypatch):
    # With only the identity acting, every fixed point's in-neighbors stay fixed.
    monkeypatch.setattr(GraphFacts, "full", PermGroup.from_generators([], two_layer_m4.vertices))
    assert _fixed_in_neighborhood(two_layer_m4) == (True, "")


def test_fixes_in_neighborhood_all_elements(two_layer_m4):
    assert _fixed_in_neighborhood(two_layer_m4) == (True, "")


def test_fixes_in_neighborhood_requires_thin():
    g = refdata.complete_symmetric(2, 2)
    assert _fixed_in_neighborhood(g) == (True, "skipped: not thin")


def test_planted_symmetric_subgroup_forces_equivalence():
    # Repeated duplication plants a full symmetric group on the duplicates;
    # the duplicated vertices must land in one equivalence class.
    from qbmg import blow_up
    g = refdata.BLOWUP_BASE
    g = blow_up(g, "4", "8")
    g = blow_up(g, "4", "9")
    classes = equivalence_classes(g)
    assert frozenset({"4", "8", "9"}) in classes.blocks


def test_generator_lists_are_deterministic(two_layer_m4):
    a = aut_color_preserving(two_layer_m4)
    b = aut_color_preserving(two_layer_m4)
    assert [p.images for p in a.generators] == [p.images for p in b.generators]


def _random_bipartite(rng, r, s, density):
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    pairs = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    return ColoredDigraph(u, w, [p for p in pairs if rng.random() < density])


def test_search_matches_brute_force_on_random_4x4():
    import random
    rng = random.Random(404)
    for _ in range(60):
        g = _random_bipartite(rng, 4, 4, rng.choice((0.2, 0.4, 0.7)))
        assert aut_color_preserving(g).elements == brute_force_color_preserving(g)


def test_full_search_matches_brute_force_on_random_small():
    import random
    rng = random.Random(405)
    for _ in range(40):
        g = _random_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3), 0.4)
        assert aut_full(g).elements == brute_force_full(g)


# -- the twin-quotient route against the direct search --------------------------


def _assert_routes_agree(g):
    # Against Aut_I by searching every vertex of g. When the classes split by
    # color are single vertices, g itself is searched: the same search.
    stats, direct_stats = SearchStats(), SearchStats()
    grp = aut_color_preserving(g, stats)
    strong, order, orbits = _search_automorphisms(g, _color_cells(g), direct_stats)
    direct = PermGroup._from_ranks(g.sorted_vertices, strong, order)
    assert grp.order == direct.order
    assert grp.orbit_masks() == orbits
    assert [p.ranks for p in grp.generators] == [p.ranks for p in direct.generators]
    colors = (g.u_mask >> v & 1 for v in range(g.n_vertices))
    if len(set(zip(g.out_masks, g.in_masks, colors))) == g.n_vertices:
        assert stats == replace(direct_stats, classes=g.n_vertices)


def test_routes_agree_on_every_fixture(named_fixtures, family_instances):
    for g in {**named_fixtures, **family_instances}.values():
        _assert_routes_agree(g)


def test_routes_agree_on_the_pool(enumerated_pool):
    for g in enumerated_pool[::6]:
        _assert_routes_agree(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_routes_agree_on_blown_up_members(enumerated_pool, data):
    # A pool member (at most 3+3) with up to one new twin per color: at most 4+4.
    g = data.draw(st.sampled_from(enumerated_pool))
    for color, new in ((g.color_u, "u"), (g.color_w, "w")):
        if color and data.draw(st.booleans()):
            g = blow_up(g, data.draw(st.sampled_from(sorted(color))), new)
    _assert_routes_agree(g)


def test_one_isolated_vertex_per_color_searches_a_copy_of_g():
    # 1 <-> 2 with 3 (U) and 4 (W) isolated: their class splits into single
    # vertices, so g itself is searched and the stats are those of the direct search.
    g = ColoredDigraph(("1", "3"), ("2", "4"), [("1", "2"), ("2", "1")])
    assert len(class_masks(g)) == 3
    _assert_routes_agree(g)


def test_complete_symmetric_k66_searches_its_two_vertex_quotient():
    g = refdata.complete_symmetric(6, 6)
    stats, q_stats = SearchStats(), SearchStats()
    assert aut_color_preserving(g, stats).order == math.factorial(6) ** 2
    q = classical_quotient(g).quotient
    assert q.n_vertices == 2
    aut_color_preserving(q, q_stats)
    assert (stats.classes, stats.class_product) == (2, math.factorial(6) ** 2)
    assert stats == replace(q_stats, class_product=stats.class_product)


def test_blow_up_past_64_vertices_matches_sympy():
    # Layered (4, 8) has 64 vertices; a twin for each vertex of U_1 makes 72
    # and m classes of size 2: order 2^m m!. The search runs on q's 64.
    s, m = 4, 8
    spec = random_layered_spec(s, m, 1)
    u1 = sorted(spec.u_class(1), key=int)
    twin = {u: str(2 * s * m + k) for k, u in enumerate(u1, 1)}
    g = layered(spec)
    for u in u1:
        g = blow_up(g, u, twin[u])
    assert g.n_vertices == 72
    dom = g.sorted_vertices
    gens = [Permutation.from_mapping({u: twin[u], twin[u]: u}, dom) for u in u1]
    for p in _adjacent_lifts(spec, u1):
        mapping = p.as_dict()
        mapping.update((twin[u], twin[mapping[u]]) for u in u1)
        gens.append(Permutation.from_mapping(mapping, dom))
    oracle = _sympy_group(dom, gens)
    # No automorphism switches colors, so the full group is Aut_I too.
    for aut in (aut_color_preserving, aut_full):
        stats = SearchStats()
        grp = aut(g, stats)
        assert math.prod(stats.orbit_lengths) == math.factorial(m)
        assert grp.order == oracle.order() == 2 ** m * math.factorial(m)
        _sifts_both_ways(grp, oracle, gens)


# -- the full group through the twin quotient against the direct search ----------


def _assert_full_routes_agree(g):
    # Against the color-blind search of every vertex of g: the same order,
    # canonical generators and orbits, and on a graph without twins the same search.
    stats, direct_stats = SearchStats(), SearchStats()
    grp, direct = aut_full(g, stats), direct_full(g, direct_stats)
    assert grp.order == direct.order
    assert grp.orbit_masks() == direct.orbit_masks()
    assert [p.ranks for p in grp.generators] == [p.ranks for p in direct.generators]
    if len(class_masks(g)) == g.n_vertices:
        assert stats == replace(direct_stats, classes=g.n_vertices)


def test_full_routes_agree_on_the_pool(enumerated_pool):
    for g in enumerated_pool:
        _assert_full_routes_agree(g)


def test_full_routes_agree_on_every_fixture_and_ladder(named_fixtures, family_instances):
    for g in [*named_fixtures.values(), *family_instances.values(), *_ladder_shapes()]:
        _assert_full_routes_agree(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_full_routes_agree_on_blown_up_members(family_instances, enumerated_pool, data):
    # A pool member or a family instance with up to six twins added, at most 64 vertices.
    graphs = [*enumerated_pool[::6], *sorted(family_instances.values(),
                                             key=lambda h: h.n_vertices)]
    g = data.draw(st.sampled_from(graphs))
    for k in range(data.draw(st.integers(0, min(6, 64 - g.n_vertices)))):
        g = blow_up(g, data.draw(st.sampled_from(sorted(g.sorted_vertices))), f"t{k}")
    _assert_full_routes_agree(g)


def test_canonical_gamma_is_normal_in_the_directly_searched_full_group(enumerated_pool):
    # aut_full is built around Gamma; the direct search is not.
    for g in enumerated_pool:
        assert is_normal(canonical_gamma(g), direct_full(g))


# -- refinement against the oracle that signs every vertex ----------------------


def _assert_refinement_matches_oracle(g, cells):
    stats = SearchStats()
    assert (_refine(g, cells, stats), stats.refinement_rounds) == refine_every_vertex(g, cells)


def test_refinement_matches_the_oracle_on_the_pool(enumerated_pool):
    for g in enumerated_pool[::6]:
        o = uw_orientation(g)
        for h, cells in ((g, _color_cells(g)), (g, [0] * g.n_vertices), (o, _color_cells(o))):
            _assert_refinement_matches_oracle(h, cells)


@st.composite
def _graphs_with_cells(draw):
    # Any bipartite digraph on up to 4+4 vertices and any initial cells, not
    # only color classes.
    r, s = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    pairs = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    g = ColoredDigraph(u, w, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    n = g.n_vertices
    return g, draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(_graphs_with_cells())
def test_refinement_matches_the_oracle_on_random_graphs(case):
    _assert_refinement_matches_oracle(*case)


def test_a_discrete_refinement_ends_the_search():
    # 1->2, 2->3 with 4 isolated: refinement makes every cell a singleton.
    g = ColoredDigraph(("1", "3"), ("2", "4"), [("1", "2"), ("2", "3")])
    stats = SearchStats()
    assert _search_automorphisms(g, _color_cells(g), stats) == ([], 1, (1, 2, 4, 8))
    assert stats == SearchStats(refinement_rounds=stats.refinement_rounds)


# -- the search on candidate masks against the search that fits each candidate --


def _assert_search_matches_the_fits_oracle(g, cells=None):
    # Strong generators, order and every count, from the color classes and
    # from one cell unless the cells are given.
    for start in [_color_cells(g), [0] * g.n_vertices] if cells is None else [cells]:
        stats, oracle_stats = SearchStats(), SearchStats()
        strong, order, orbits = _search_automorphisms(g, list(start), stats)
        assert (strong, order) == fits_search(g, list(start), oracle_stats)
        assert stats == oracle_stats
        assert orbits == _orbit_masks(g.n_vertices, strong)


def test_search_matches_the_fits_oracle_on_the_pool_and_fixtures(
        enumerated_pool, named_fixtures, family_instances):
    for g in [*enumerated_pool, *named_fixtures.values(), *family_instances.values()]:
        _assert_search_matches_the_fits_oracle(g)


def test_search_matches_the_fits_oracle_on_the_ladder_shapes():
    for g in _ladder_shapes():
        _assert_search_matches_the_fits_oracle(g)


def test_search_matches_the_fits_oracle_on_every_small_digraph():
    # Members or not: on some, such as 1->3, 1->4, 2->3, 2->4, 3->2, 4->1
    # searched from one cell, only the in-neighbor rule ends a branch early.
    for r in range(1, 5):
        for s in range(1, 6 - r):
            for g in enumerate_bipartite_digraphs(r, s):
                _assert_search_matches_the_fits_oracle(g)


@pytest.mark.parametrize("s, m", [(4, 8), (2, 16)])
def test_search_matches_the_fits_oracle_at_64_vertices(s, m):
    g = layered(random_layered_spec(s, m, 1))
    assert g.n_vertices == 64
    _assert_search_matches_the_fits_oracle(g)


@settings(max_examples=80, deadline=None)
@given(_graphs_with_cells())
def test_search_matches_the_fits_oracle_on_random_graphs(case):
    _assert_search_matches_the_fits_oracle(*case)


# -- order and orbits read before any chain ------------------------------------


def _assert_read_without_a_chain(grp, order_known=True):
    # Orbits come from the generating ranks and, when the builder knows it,
    # the order too; both must be what the chain says once it is built.
    orbits = grp.orbit_masks()
    order = grp.order
    assert (grp._levels is None) == order_known
    assert order == math.prod(len(level) for level in grp.levels)
    assert orbits == _orbit_masks(len(grp.domain), [p.ranks for p in grp.generators])


def _ladder_shapes():
    # The shapes of the symmetry-search and symmetry-closure benchmark ladders.
    yield from (layered(random_layered_spec(s, m, 1)) for s, m in ((4, 3), (3, 4), (2, 5)))
    yield from (refdata.complete_symmetric(r, s) for r in range(3, 6) for s in range(r, 6))
    yield from map(_symmetric_matching, (5, 6, 7))


def test_trusted_order_and_orbits_on_the_pool(enumerated_pool):
    for g in enumerated_pool[::6]:
        _assert_read_without_a_chain(aut_color_preserving(g))
        _assert_read_without_a_chain(aut_full(g))


def test_trusted_order_and_orbits_on_the_ladder_shapes():
    for g in _ladder_shapes():
        _assert_read_without_a_chain(aut_color_preserving(g))
        _assert_read_without_a_chain(aut_full(g))


# -- orbits handed over by the search --------------------------------------------


def _assert_orbits_handed_over(g) -> bool:
    # The S-orbits the search merged (on the twin route, the unions of the
    # classes over q's orbits) are the orbits of the generating ranks.
    # Returns whether g has twins, that is, which route Aut_I took.
    for grp in (aut_color_preserving(g), aut_full(g)):
        assert grp._orbits is not None
        assert grp.orbit_masks() == _orbit_masks(len(grp.domain), grp.generating_ranks)
    return len(class_masks(g)) < g.n_vertices


def test_orbits_handed_over_on_the_pool_ladders_and_families(enumerated_pool, family_instances):
    graphs = [*enumerated_pool[::6], *_ladder_shapes(), *family_instances.values()]
    twins = sum(map(_assert_orbits_handed_over, graphs))
    assert 0 < twins < len(graphs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbits_handed_over_on_blown_up_members(family_instances, data):
    # A family instance with up to six twins added, at most 64 vertices.
    g = data.draw(st.sampled_from(sorted(family_instances.values(), key=lambda h: h.n_vertices)))
    for k in range(data.draw(st.integers(0, min(6, 64 - g.n_vertices)))):
        g = blow_up(g, data.draw(st.sampled_from(sorted(g.sorted_vertices))), f"t{k}")
    _assert_orbits_handed_over(g)


def _layered_4_8_blown_up():
    # Layered (4, 8) with a twin for each vertex of U_1, as in
    # test_blow_up_past_64_vertices_matches_sympy.
    spec = random_layered_spec(4, 8, 1)
    g = layered(spec)
    for k, u in enumerate(sorted(spec.u_class(1), key=int), 1):
        g = blow_up(g, u, str(64 + k))
    assert g.n_vertices == 72
    return g


def test_trusted_order_and_orbits_on_a_72_vertex_blow_up():
    # Both groups search q's 64 vertices; g itself would pass the 64-vertex cap.
    g = _layered_4_8_blown_up()
    _assert_read_without_a_chain(aut_color_preserving(g))
    grp = aut_full(g)
    _assert_read_without_a_chain(grp)
    assert grp.order == 10_321_920


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), max_size=4).map(lambda xs: (n, xs))))
def test_orbits_from_generating_ranks_on_random_generators(case):
    n, images = case
    dom = tuple(str(i) for i in range(1, n + 1))
    gens = [Permutation(dom, [dom[i] for i in x]) for x in images]
    _assert_read_without_a_chain(PermGroup.from_generators(gens, dom), order_known=False)


# -- canonical generators: the closed form and the descent -----------------------


def test_products_of_symmetric_groups_print_their_transpositions(enumerated_pool):
    # Gamma, and Aut_I when the twin quotient has a trivial group, list
    # their generating transpositions with no chain; every group's list is
    # what the descent reads off its chain.
    graphs, closed = enumerated_pool[::6], 0
    for g in graphs:
        for grp in (canonical_gamma(g), aut_color_preserving(g)):
            ranks = [p.ranks for p in grp.generators]
            closed += grp._levels is None
            assert ranks == canonical_generators(grp.levels)
    assert closed > len(graphs)


def _assert_descents_agree(grp):
    assert canonical_generators(grp.levels) == greedy_descent_generators(grp.levels)


def test_descent_equals_the_plain_descent_on_the_pool(enumerated_pool):
    for g in enumerated_pool[::6]:
        _assert_descents_agree(aut_color_preserving(g))
        _assert_descents_agree(aut_full(g))


def test_descent_equals_the_plain_descent_on_the_ladders_and_a_72_vertex_blow_up():
    for g in _ladder_shapes():
        _assert_descents_agree(aut_color_preserving(g))
        _assert_descents_agree(aut_full(g))
    g = _layered_4_8_blown_up()
    _assert_descents_agree(aut_color_preserving(g))
    _assert_descents_agree(aut_full(g))


# -- chains from the known order: random elements against the deterministic scan --


def _chain_from_the_order(grp):
    # grp's chain, and whether building it drew random elements.
    real, drawn = perms._random_elements, []

    def counted(gens, n):
        drawn.append(n)
        return real(gens, n)

    perms._random_elements = counted
    try:
        return grp.levels, bool(drawn)
    finally:
        perms._random_elements = real


def _assert_chains_agree(grp) -> bool:
    # The chain built from the known order and the deterministic scan's chain,
    # from the same generating ranks and starting chain, span the same group:
    # the same orbit lengths and canonical generators. Returns whether the
    # random phase ran.
    levels, drawn = _chain_from_the_order(grp)
    n = len(grp.domain)
    scan = _schreier_sims(n, grp.generating_ranks, None, _symmetric_chain(n, grp._blocks))
    assert [len(level) for level in levels] == [len(level) for level in scan]
    assert math.prod(map(len, levels)) == grp.order
    assert canonical_generators(levels) == canonical_generators(scan)
    return drawn


def test_chain_from_the_order_agrees_with_the_scan_on_the_pool(enumerated_pool):
    for g in enumerated_pool[::6]:
        for grp in (aut_color_preserving(g), aut_full(g), canonical_gamma(g)):
            _assert_chains_agree(grp)


def test_chain_from_the_order_agrees_with_the_scan_on_families_and_ladders(family_instances):
    graphs = [*family_instances.values(), *_ladder_shapes(), _layered_4_8_blown_up()]
    drawn = [_assert_chains_agree(aut(g)) for g in graphs for aut in (aut_color_preserving,
                                                                       aut_full)]
    assert any(drawn) and not all(drawn)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chain_from_the_order_agrees_with_the_scan_on_blown_up_members(family_instances,
                                                                         enumerated_pool, data):
    # A pool member or a family instance with up to six twins added, at most 64 vertices.
    graphs = [*enumerated_pool[::6], *sorted(family_instances.values(),
                                             key=lambda h: h.n_vertices)]
    g = data.draw(st.sampled_from(graphs))
    for k in range(data.draw(st.integers(0, min(6, 64 - g.n_vertices)))):
        g = blow_up(g, data.draw(st.sampled_from(sorted(g.sorted_vertices))), f"t{k}")
    _assert_chains_agree(aut_color_preserving(g))
    _assert_chains_agree(aut_full(g))


@pytest.mark.parametrize("g", [*(layered(random_layered_spec(s, m, 1))
                                 for s, m in ((4, 8), (3, 10), (2, 12), (2, 16))),
                               _symmetric_matching(8)],
                         ids=["layered-s4m8", "layered-s3m10", "layered-s2m12", "layered-s2m16",
                              "matching8"])
def test_chains_from_the_order_match_sympy_on_the_frontier(g):
    # sympy's own Schreier-Sims on the canonical generators read off the chain
    # gives the order the search found, and its group holds every generating rank.
    for aut in (aut_color_preserving, aut_full):
        grp = aut(g)
        oracle = _sympy_group(grp.domain, grp.generators)
        assert oracle.order() == grp.order == math.prod(map(len, grp.levels))
        assert all(oracle.contains(SympyPermutation(list(x))) for x in grp.generating_ranks)


def test_a_wrong_order_fails_loudly():
    # Twice the true order: the random phase runs out of residues, the scan
    # completes the chain, and its orbit lengths multiply to the true order.
    grp = aut_color_preserving(layered(random_layered_spec(3, 4, 1)))
    assert grp.order == 24
    for read in ("levels", "generators"):
        wrong = PermGroup._from_ranks(grp.domain, grp.generating_ranks, order=48)
        with pytest.raises(InternalCheckError, match="multiply to 24, not the given order 48"):
            getattr(wrong, read)
