"""UW-orientation, orientation enumeration, topological order, orientation facts."""

import json
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbmg import (
    ColoredDigraph,
    QbmgError,
    SizeCapError,
    aut_color_preserving,
    check_orientation_theorems,
    enumerate_orientations,
    format_graph,
    is_2qbmg,
    is_thin,
    layered,
    orientation_representatives,
    satisfies_star,
    symmetric_edges,
    token_key,
    topological_order,
    uw_orientation,
)
from qbmg import autgroup, orientations, perms
from qbmg.cli import main
from qbmg.constructions import default_layered_spec
from qbmg.digraph import symmetric_pairs

from tests import refdata
from tests.oracles import brute_force_color_preserving


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
    with pytest.raises(SizeCapError, match="got 2.13"):
        enumerate_orientations(refdata.RIGID_MATCHING)


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


# -- one orientation per orbit ------------------------------------------------


def _flip_images(g, p):
    """Each flip mask's image under the automorphism p, computed on tokens."""
    pairs = sorted((tuple(sorted(e, key=token_key)) for e in symmetric_edges(g)),
                   key=lambda e: (token_key(e[0]), token_key(e[1])))
    index = {frozenset(e): k for k, e in enumerate(pairs)}

    def image(mask):
        out = 0
        for k, (a, b) in enumerate(pairs):
            t, h = (p(b), p(a)) if mask >> k & 1 else (p(a), p(b))
            if token_key(t) > token_key(h):
                out |= 1 << index[frozenset((t, h))]
        return out

    return [image(m) for m in range(1 << len(pairs))]


def _orbit_minima_and_count(g, grp):
    """The least mask of each orbit, by brute force, and Burnside's orbit count."""
    images = [_flip_images(g, p) for p in grp.sorted_elements]
    minima = [m for m in range(len(images[0])) if all(img[m] >= m for img in images)]
    fixed = 0
    for p in grp.sorted_elements:
        pairs = {frozenset(e) for e in symmetric_edges(g)}
        cycles = 0
        while pairs:
            cycles += 1
            e = frozenset(map(p, pairs.pop()))
            while e in pairs:
                pairs.remove(e)
                e = frozenset(map(p, e))
        fixed += 2 ** cycles
    assert fixed % grp.order == 0
    return minima, fixed // grp.order


def _scan(g):
    """A scan of every orientation: its orientation violation and the two flags."""
    star, thin = bool(satisfies_star(g)), is_thin(g)
    if not (star or thin):
        return [], None, None
    for n, o in enumerate(enumerate_orientations(g), 1):
        if star and not is_2qbmg(o):
            return [f"orientation #{n} is not a 2-qBMG"], False, True
        if topological_order(o).order is None:
            if star:
                return [f"orientation #{n} has a directed cycle"], True, False
            return [], None, False
    return [], True if star else None, True


def _agrees_with_brute_force(g):
    grp = aut_color_preserving(g)
    minima, orbits = _orbit_minima_and_count(g, grp)
    reps = orientation_representatives(g, grp)
    assert reps == minima
    assert len(reps) == orbits
    report = check_orientation_theorems(g, grp)
    assert report.orientations_total == 2 ** len(symmetric_edges(g))
    assert ([v for v in report.violations if v.startswith("orientation #")],
            report.all_orientations_are_2qbmg, report.all_orientations_acyclic) == _scan(g)
    return report


def test_representatives_are_orbit_minima_on_the_corpus(corpus):
    tested = 0
    for g in corpus.values():
        if len(symmetric_edges(g)) <= 9 and aut_color_preserving(g).order <= 10**4:
            report = _agrees_with_brute_force(g)
            assert report.all_orientations_are_2qbmg in (True, None)
            assert report.all_orientations_acyclic in (True, None)
            tested += 1
    assert tested > 100


@st.composite
def shuffled_digraphs(draw, kind=st.integers(0, 3)):
    """Graphs on up to 3+3 vertices, with the tokens dealt to the classes at random.

    Each U-W pair draws a ``kind``: bit 0 for the U->W edge, bit 1 for W->U.
    """
    r, s = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    tokens = draw(st.permutations([str(i) for i in range(1, r + s + 1)]))
    u, w = tokens[:r], tokens[r:]
    kinds = draw(st.lists(kind, min_size=r * s, max_size=r * s))
    edges = []
    for (a, b), kind in zip([(a, b) for a in u for b in w], kinds):
        edges += [(a, b)] * (kind & 1) + [(b, a)] * (kind >> 1)
    return ColoredDigraph(u, w, edges)


@settings(deadline=None)
@given(shuffled_digraphs())
def test_representatives_are_orbit_minima_on_random_graphs(g):
    # Most of these graphs are not members, which breaks the caller's
    # contract on purpose: the first failing orientation must still be the
    # one a scan of all of them names. Without symmetric edges the only
    # orientation is g itself, whose membership the caller vouches for.
    assume(symmetric_edges(g) or is_2qbmg(g))
    _agrees_with_brute_force(g)


@pytest.mark.parametrize("g, violation, representatives", [
    # Aut_I is <(1 2)(3 4)>, which swaps masks 1 and 2: mask 3 (#4) fails
    # and is the third orientation tested.
    (ColoredDigraph(("1", "2"), ("3", "4"),
                    [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "1"), ("4", "2")]),
     "orientation #4 is not a 2-qBMG", [0, 1, 3]),
    # Aut_I is <(1 6)(3 4)>, and pair (3, 6) has its smaller token in W.
    # Masks 4 (#5) and 6 (#7) fail and are least in their orbits.
    (ColoredDigraph(("1", "2", "6"), ("3", "4", "5"),
                    [("1", "4"), ("4", "1"), ("2", "5"), ("5", "2"),
                     ("3", "6"), ("6", "3"), ("3", "1"), ("4", "6")]),
     "orientation #5 is not a 2-qBMG", [0, 1, 2, 3, 4, 6]),
], ids=["swapped-pairs", "pair-with-w-first"])
def test_non_member_names_the_first_failing_orientation(g, violation, representatives):
    assert satisfies_star(g) and not is_2qbmg(g)
    report = _agrees_with_brute_force(g)
    assert report.violations[0] == violation
    assert orientation_representatives(g, aut_color_preserving(g)) == representatives


@pytest.mark.parametrize("g, order", [
    # Rigid: no generator at all.
    (ColoredDigraph(("1", "2"), ("3", "4"),
                    [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2"), ("1", "4")]), 1),
    # Aut_I swaps the isolated vertices 5 and 6 and fixes both pairs.
    (ColoredDigraph(("1", "2", "5", "6"), ("3", "4"),
                    [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2"), ("1", "4")]), 2),
], ids=["rigid", "pairs-fixed"])
def test_every_mask_is_a_representative_when_no_generator_moves_a_pair(g, order):
    grp = aut_color_preserving(g)
    assert grp.order == order
    assert orientation_representatives(g, grp) == [0, 1, 2, 3]
    _agrees_with_brute_force(g)


def _verify_orientations(tmp_path, capsys, g):
    path = tmp_path / "graph.qbmg"
    path.write_text(format_graph(g))
    start = time.perf_counter()
    code = main(["verify", "--theorems", "orientation_theorems", str(path)])
    return code, time.perf_counter() - start, capsys.readouterr().err


def test_matching_checks_one_orientation_per_number_of_reversed_edges(tmp_path, capsys):
    u = [str(i) for i in range(1, 21)]
    w = [str(i) for i in range(21, 41)]
    g = ColoredDigraph(u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])
    report = check_orientation_theorems(g, aut_color_preserving(g))
    assert report.ok
    assert report.orientations_checked == 21
    assert report.orientations_total == 2 ** 20
    code, elapsed, _ = _verify_orientations(tmp_path, capsys, g)
    assert code == 0
    assert elapsed < 1.0


def test_orientation_cap_counts_representatives(tmp_path, capsys):
    g = refdata.RIGID_MATCHING
    assert is_2qbmg(g) and satisfies_star(g) and aut_color_preserving(g).order == 1
    code, elapsed, err = _verify_orientations(tmp_path, capsys, g)
    assert code == 3
    assert "capped at 4096 orbit representatives" in err
    assert elapsed < 5.0


def test_orientation_cap_counts_partial_images(tmp_path, capsys):
    g = refdata.COPIED_PAIRS
    assert is_2qbmg(g) and satisfies_star(g)
    assert aut_color_preserving(g).order == 479001600
    code, elapsed, err = _verify_orientations(tmp_path, capsys, g)
    assert code == 3
    assert "capped at 500000 partial images" in err
    assert elapsed < 15.0


# -- the pair chain written down -----------------------------------------------


class _Calls:
    """Counts the calls of the functions it replaces, and runs them."""

    def __init__(self, monkeypatch, module, *names):
        self.counts = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(module, name, self._counted(name, getattr(module, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def _matching(k):
    u = [str(i) for i in range(1, k + 1)]
    w = [str(i) for i in range(k + 1, 2 * k + 1)]
    return ColoredDigraph(u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])


def test_matching_check_runs_no_schreier_sims(monkeypatch):
    # Every pair starts in U, so the flip is 0: no smallest-image search
    # runs, and the chain is never written.
    g = _matching(7)
    grp = aut_color_preserving(g)
    chain = _Calls(monkeypatch, orientations, "_schreier_sims", "_symmetric_chain")
    report = check_orientation_theorems(g, grp)
    assert report.ok and report.orientations_checked == 8
    assert chain.counts == {"_schreier_sims": 0, "_symmetric_chain": 0}


def test_matching_from_w_writes_the_chain_once(monkeypatch):
    # Every pair starts in W, so each representative's least mask comes from
    # a smallest-image search, and the chain is written on the first.
    u, w = [str(i) for i in range(8, 15)], [str(i) for i in range(1, 8)]
    g = ColoredDigraph(u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])
    grp = aut_color_preserving(g)
    chain = _Calls(monkeypatch, orientations, "_schreier_sims", "_symmetric_chain")
    report = check_orientation_theorems(g, grp)
    assert report.ok and report.orientations_checked == 8
    assert chain.counts == {"_schreier_sims": 0, "_symmetric_chain": 1}
    assert orientation_representatives(g, grp) == [(1 << k) - 1 for k in range(8)]


def test_written_chain_gives_the_schreier_sims_representatives(enumerated_pool, monkeypatch):
    graphs = [g for g in enumerated_pool[::3] if len(symmetric_edges(g)) <= 8]
    groups = [aut_color_preserving(g) for g in graphs]
    # A chain on the symmetric route runs no Schreier-Sims.
    built = _Calls(monkeypatch, orientations, "_Chain", "_schreier_sims")
    reps = [orientation_representatives(g, grp) for g, grp in zip(graphs, groups)]
    assert built.counts["_Chain"] - built.counts["_schreier_sims"] > 300
    # With every orbit a single point, no product of symmetric groups is
    # recognised: the chain comes from Schreier-Sims and the blocks from sifts.
    monkeypatch.setattr(orientations, "_orbit_masks", lambda n, gens: [1 << i for i in range(n)])
    assert reps == [orientation_representatives(g, grp) for g, grp in zip(graphs, groups)]


def test_blowup_twice_runs_schreier_sims(monkeypatch):
    # Four symmetric edges in a 4-cycle, 1-2-6-7-1: Aut_I = <(2 7), (1 6)>
    # moves only vertices on pairs and acts on the four pairs as a Klein
    # group of order 4, not Sym(4), so the chain is not written down.
    g = refdata.BLOWUP_TWICE
    grp = aut_color_preserving(g)
    assert grp.order == 4 and len(symmetric_edges(g)) == 4
    chain = _Calls(monkeypatch, orientations, "_schreier_sims", "_symmetric_chain")
    assert orientation_representatives(g, grp) == [0, 1, 2, 3, 4, 7, 11]
    assert chain.counts == {"_schreier_sims": 1, "_symmetric_chain": 0}
    _agrees_with_brute_force(g)


def test_vertex_on_two_pairs_counts_once_in_the_ends(monkeypatch):
    # Pairs 1-5, 2-4, 2-6, 3-5 (ranks (0, 4), (1, 3), (1, 5), (2, 4)): 2 and
    # 5 lie on two pairs each. Aut_I = <(1 3), (4 6)> moves only vertices on
    # pairs, and acts as Sym(2) x Sym(2) on them, so the chain takes the
    # symmetric route with no Schreier-Sims; every pair starts in U, so it is
    # not written down. The pairs are no matching and g is not thin, so the
    # check builds no chain.
    g = ColoredDigraph(("1", "2", "3"), ("4", "5", "6"), [
        ("1", "5"), ("2", "4"), ("2", "5"), ("2", "6"), ("3", "5"), ("4", "1"), ("4", "2"),
        ("4", "3"), ("5", "1"), ("5", "3"), ("6", "1"), ("6", "2"), ("6", "3")])
    pairs = symmetric_pairs(g)
    assert pairs == [(0, 4), (1, 3), (1, 5), (2, 4)]
    assert orientations._ends(pairs) == 0b111111
    chain = _Calls(monkeypatch, orientations, "_Chain", "_schreier_sims", "_symmetric_chain")
    _agrees_with_brute_force(g)
    assert chain.counts == {"_Chain": 1, "_schreier_sims": 0, "_symmetric_chain": 0}


def test_matching_verify_builds_no_chain_of_aut_i(tmp_path, capsys, monkeypatch):
    # The orientation check reads Aut_I's order and generating ranks only, and
    # tests acyclicity on the masks; `aut` still prints the canonical generators.
    path = tmp_path / "matching7.qbmg"
    path.write_text(format_graph(_matching(7)))
    calls = _Calls(monkeypatch, perms, "_schreier_sims", "canonical_generators")
    monkeypatch.setattr(orientations, "_schreier_sims", perms._schreier_sims)
    topo = _Calls(monkeypatch, orientations, "topological_order")
    assert main(["verify", str(path), "--theorems", "orientation_theorems"]) == 0
    capsys.readouterr()
    assert calls.counts == {"_schreier_sims": 0, "canonical_generators": 0}
    assert topo.counts == {"topological_order": 0}
    assert main(["aut", str(path), "--json"]) == 0
    assert calls.counts["canonical_generators"] == 1
    swaps = [f"p: {a}->{a + 1} {a + 1}->{a} {a + 7}->{a + 8} {a + 8}->{a + 7}"
             for a in range(6, 0, -1)]
    assert capsys.readouterr().out == json.dumps(
        {"schema": 1, "order": 5040, "generators": swaps,
         "orbits": [[str(i) for i in range(1, 8)], [str(i) for i in range(8, 15)]]},
        indent=2) + "\n"


# -- acyclicity on the masks ---------------------------------------------------


def test_acyclic_agrees_with_topological_order_on_the_pool(enumerated_pool):
    answers = Counter()
    for g in enumerated_pool[::6]:
        orient = orientations._orienter(g, symmetric_pairs(g))
        for mask in orientation_representatives(g, aut_color_preserving(g)):
            o = orient(mask)
            acyclic = orientations._acyclic(o)
            answers[acyclic] += 1
            assert acyclic == (topological_order(o).order is not None)
    assert answers == {True: 6085, False: 16}


@st.composite
def oriented_digraphs(draw):
    """Oriented graphs on up to 5+5 vertices: each U-W pair has no edge or one direction."""
    r, s = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    kinds = draw(st.lists(st.integers(0, 2), min_size=r * s, max_size=r * s))
    edges = [(a, b) if kind == 1 else (b, a)
             for (a, b), kind in zip([(a, b) for a in u for b in w], kinds) if kind]
    return ColoredDigraph(u, w, edges)


@settings(max_examples=300, deadline=None)
@given(oriented_digraphs())
def test_acyclic_agrees_with_topological_order_on_random_graphs(g):
    assert orientations._acyclic(g) == (topological_order(g).order is not None)


# -- the UW-orientation's group from its refinement ----------------------------


def _certificate(g):
    """Whether the UW-orientation's refined cells decide that it keeps g's group."""
    o = uw_orientation(g)
    return orientations._cells_keep_symmetric_pairs(
        g, autgroup._refine(o, autgroup._color_cells(o), autgroup.SearchStats()))


@given(shuffled_digraphs())
def test_uw_certificate_is_sound_on_random_graphs(g):
    # Members or not: the certificate is a statement about any bipartite digraph.
    if _certificate(g):
        assert brute_force_color_preserving(uw_orientation(g)) == brute_force_color_preserving(g)


def test_uw_order_equals_a_search_on_the_orientation(enumerated_pool):
    for g in enumerated_pool[::6]:
        assert (orientations._uw_order(g, aut_color_preserving(g))
                == aut_color_preserving(uw_orientation(g)).order)


def _no_one_way_uw_edge(g):
    return all(g.out_masks[a] & ~g.in_masks[a] == 0 for a in range(g.n_vertices)
               if g.u_mask >> a & 1)


def _assert_uw_order_needs_no_refinement(g):
    # Every U->W edge lies on a symmetric pair, so the certificate holds on
    # the refined cells, and _uw_order answers without them.
    assert _certificate(g)
    o = uw_orientation(g)
    direct = autgroup._search_automorphisms(o, autgroup._color_cells(o), autgroup.SearchStats())
    assert orientations._uw_order(g, aut_color_preserving(g)) == direct[1]


def test_uw_order_without_one_way_uw_edges_on_the_pool(enumerated_pool):
    graphs = [g for g in enumerated_pool if symmetric_edges(g) and _no_one_way_uw_edge(g)]
    assert len(graphs) == 2201
    for g in graphs:
        _assert_uw_order_needs_no_refinement(g)


@settings(deadline=None)
@given(shuffled_digraphs(st.sampled_from((0, 2, 3))))  # no one-way U->W edge
def test_uw_order_without_one_way_uw_edges_on_random_members(g):
    assume(symmetric_edges(g) and is_2qbmg(g))
    assert _no_one_way_uw_edge(g)
    _assert_uw_order_needs_no_refinement(g)


def test_uw_certificate_does_not_fire_on_the_smallest_gain():
    g = ColoredDigraph(("1",), ("2", "3"), [("1", "2"), ("2", "1"), ("1", "3")])
    assert not _certificate(g)
    report = check_orientation_theorems(g, aut_color_preserving(g))
    assert report.violations == ("UW-orientation changes the color-preserving group: 1 vs 2",)
