"""Construction families: blow-up, two-layer, diamond, layered, lifts."""

import math
import random
import re

import networkx as nx
import pytest

from qbmg import (
    BijectionTable,
    ColoredDigraph,
    GraphFormatError,
    LayeredSpec,
    Permutation,
    QbmgError,
    UnknownVertexError,
    axiom_report,
    blow_up,
    composite_maps,
    is_2qbmg,
    is_automorphism,
    is_thin,
    layered,
    lift_permutation,
    lifted_group,
    n2_trivial_layer,
    random_layered_spec,
)
from qbmg.constructions import (
    default_layered_spec,
    format_layered_spec,
    n2_trivial_lift,
    parse_layered_spec,
    random_n2_trivial_tables,
)

from tests import refdata
from tests.oracles import compose


# -- bijection tables ----------------------------------------------------------

def test_bijection_table_rejects_duplicates():
    with pytest.raises(QbmgError):
        BijectionTable((("1", "2"), ("1", "3")))
    with pytest.raises(QbmgError):
        BijectionTable((("1", "3"), ("2", "3")))


def test_bijection_table_compose_and_inverse():
    t = BijectionTable.from_mapping({"1": "a", "2": "b"})
    u = BijectionTable.from_mapping({"a": "x", "b": "y"})
    assert compose(t.as_dict(), u.as_dict()) == {"1": "x", "2": "y"}
    assert t.inverse().as_dict() == {"a": "1", "b": "2"}
    assert compose(t.as_dict(), t.inverse().as_dict()) == {"1": "1", "2": "2"}


# -- blow-up --------------------------------------------------------------------

def test_blow_up_duplicates_neighborhoods():
    g = blow_up(refdata.BLOWUP_BASE, "1", "6")
    assert g == refdata.BLOWUP_ONCE
    g2 = blow_up(g, "2", "7")
    assert g2 == refdata.BLOWUP_TWICE


def test_blow_up_isolated_vertex():
    g = ColoredDigraph(("1",), ("2",), [("1", "2")])
    g = ColoredDigraph(("1", "3"), ("2",), [("1", "2")])
    out = blow_up(g, "3", "9")
    assert not out.out_neighbors("9") and not out.in_neighbors("9")


def test_blow_up_rejects_existing_or_unknown():
    with pytest.raises(QbmgError, match="already"):
        blow_up(refdata.BLOWUP_BASE, "1", "2")
    with pytest.raises(UnknownVertexError):
        blow_up(refdata.BLOWUP_BASE, "99", "6")


def test_blow_up_creates_equivalent_pair():
    from qbmg import equivalence_classes
    g = blow_up(refdata.BLOWUP_BASE, "3", "9")
    assert frozenset({"3", "9"}) in equivalence_classes(g).blocks
    assert is_2qbmg(g)


# -- two-layer -------------------------------------------------------------------

def test_two_layer_reference_instance():
    g = layered(refdata.TWO_LAYER_M4_SPEC)
    assert g.n_vertices == 16 and g.n_edges == 16
    report = axiom_report(g)
    assert report.is_2qbmg and report.proper
    assert is_thin(g)
    # delta = gamma . beta . alpha
    assert {("1", "13"), ("2", "16"), ("3", "14"), ("4", "15")} <= g.edges


def test_two_layer_m1_chain_with_chord():
    g = layered(default_layered_spec(2, 1))
    assert g.edges == {("1", "3"), ("3", "2"), ("2", "4"), ("1", "4")}


def test_two_layer_degree_profile():
    m = 3
    g = layered(default_layered_spec(2, m))
    assert g.n_edges == 4 * m
    u1 = set(str(i) for i in range(1, m + 1))
    w2 = set(str(i) for i in range(3 * m + 1, 4 * m + 1))
    for v in u1:
        assert len(g.out_neighbors(v)) == 2
    sinks = {v for v in g.vertices if not g.out_neighbors(v)}
    assert sinks == w2


def test_two_layer_rejects_mismatched_tables():
    spec = default_layered_spec(2, 2)
    (alpha, gamma), (beta,) = spec.f_diag, spec.g_step
    with pytest.raises(QbmgError):
        LayeredSpec(2, 2, (alpha, beta), (gamma,))


@pytest.mark.parametrize("s, m, f_diag, g_step, message", [
    (1, 1, ["1>2"], [], "layer count s must be at least 2"),
    (2, 0, ["1>3", "2>4"], ["3>2"], "class size m must be at least 1"),
    (2, 1, ["1>3"], ["3>2"], "expected 2 diagonal tables, got 1"),
    (2, 1, ["1>3", "2>4"], [], "expected 1 step tables, got 0"),
    (2, 1, ["1>3", "2>4"], ["5>2"], "step table g[1][2] must start at W_1"),
    (2, 1, ["1>3", "2>4"], ["3>5"], "step table g[1][2] must end at U_2"),
])
def test_layered_spec_rejects_malformed_tables(s, m, f_diag, g_step, message):
    with pytest.raises(QbmgError, match=re.escape(message)):
        LayeredSpec(s, m, tuple(map(_table, f_diag)), tuple(map(_table, g_step)))


# -- diamond (N2-trivial) family --------------------------------------------------

def test_diamond_reference_instance():
    g = n2_trivial_layer(4, refdata.DIAMOND_M4_ALPHA, refdata.DIAMOND_M4_BETA,
                         refdata.DIAMOND_M4_GAMMA)
    report = axiom_report(g)
    assert report.is_2qbmg and report.n2_trivial
    assert not report.n1_trivial and not report.n3_trivial
    # Never thin: the two middles of each diamond point at the same sink by
    # the definition of delta and are fed by the same source, so they share
    # both neighborhoods.
    assert not is_thin(g)
    from qbmg import equivalence_classes
    assert frozenset({"5", "9"}) in equivalence_classes(g).blocks


def test_diamond_lift_is_automorphism():
    g = n2_trivial_layer(4, refdata.DIAMOND_M4_ALPHA, refdata.DIAMOND_M4_BETA,
                         refdata.DIAMOND_M4_GAMMA)
    u1 = sorted(refdata.DIAMOND_M4_ALPHA.domain)
    import itertools
    count = 0
    for img in itertools.permutations(u1):
        phi = n2_trivial_lift(refdata.DIAMOND_M4_ALPHA, refdata.DIAMOND_M4_BETA,
                              refdata.DIAMOND_M4_GAMMA, dict(zip(u1, img)))
        assert is_automorphism(g, phi, color_preserving=True)
        count += 1
    assert count == 24


def _table(mapping: str) -> BijectionTable:
    return BijectionTable(tuple(tuple(p.split(">")) for p in mapping.split()))


@pytest.mark.parametrize("m, alpha, beta, gamma, message", [
    (0, "1>2", "2>3", "4>3", "class size m must be at least 1"),
    (1, "1>2", "5>3", "4>3", "beta must map alpha's image (W1) onto U2"),
    (1, "1>2", "2>3", "4>5", "gamma must map W2 onto beta's image (U2)"),
    (2, "1>2", "2>3", "4>3", "every class must have size 2, got 1"),
    (1, "1>2", "2>3", "1>3", "classes overlap on ['1']"),
])
def test_diamond_rejects_mismatched_tables(m, alpha, beta, gamma, message):
    tables = _table(alpha), _table(beta), _table(gamma)
    with pytest.raises(QbmgError, match=re.escape(message)):
        n2_trivial_layer(m, *tables)
    if m == len(tables[0]):  # the lift reads m off alpha
        with pytest.raises(QbmgError, match=re.escape(message)):
            n2_trivial_lift(*tables, {"1": "1"})


def test_lifts_reject_a_partial_pi():
    alpha, beta, gamma = random_n2_trivial_tables(3, seed=0)
    message = "pi must be a permutation of the first class U_1"
    with pytest.raises(QbmgError, match=message):
        n2_trivial_lift(alpha, beta, gamma, {"1": "2"})
    with pytest.raises(QbmgError, match=message):
        lift_permutation(random_layered_spec(2, 3, seed=0), {"1": "2"})


# -- threads: m disjoint copies of one pattern, networkx as the oracle ----------

def _components(g: ColoredDigraph) -> list[set[str]]:
    h = nx.DiGraph(list(g.edges))
    h.add_nodes_from(g.vertices)
    return [set(c) for c in nx.weakly_connected_components(h)]


def _is_copy(g: ColoredDigraph, component: set[str], pattern: nx.DiGraph) -> bool:
    h = nx.DiGraph([e for e in g.edges if e[0] in component])
    for v in component:
        h.add_node(v, u=v in g.color_u)
    return nx.is_isomorphic(h, pattern, node_match=lambda a, b: a["u"] == b["u"])


def _pattern(edges, n: int) -> nx.DiGraph:
    h = nx.DiGraph(edges)
    for p in range(n):
        h.add_node(p, u=p % 2 == 0)
    return h


@pytest.mark.parametrize("s, m, seed", [(2, 3, 0), (3, 4, 1), (4, 2, 2), (5, 3, 3)])
def test_layered_is_one_component_per_thread(s, m, seed):
    # Each position of a thread U_1, W_1, ..., U_s, W_s has an edge to every
    # later position of the other color.
    spec = random_layered_spec(s, m, seed)
    g = layered(spec)
    pattern = _pattern([(a, b) for a in range(2 * s) for b in range(a + 1, 2 * s)
                        if (a - b) % 2], 2 * s)
    components = _components(g)
    assert len(components) == m
    for c in components:
        assert len(c) == 2 * s and len(c & spec.u_class(1)) == 1
        assert _is_copy(g, c, pattern)
    pi_image = sorted(spec.u_class(1))
    random.Random(seed).shuffle(pi_image)
    pi = dict(zip(sorted(spec.u_class(1)), pi_image))
    phi = lift_permutation(spec, pi)
    component_of = {v: frozenset(c) for c in components for v in c}
    for u, image in pi.items():
        assert {phi(v) for v in component_of[u]} == component_of[image]


@pytest.mark.parametrize("m, seed", [(1, 0), (3, 1), (5, 2)])
def test_diamond_is_one_diamond_per_source(m, seed):
    g = n2_trivial_layer(m, *random_n2_trivial_tables(m, seed))
    # u -> alpha(u) -> U2 <- W2 <- u, with u and its sink in U.
    diamond = _pattern([(0, 1), (1, 2), (3, 2), (0, 3)], 4)
    components = _components(g)
    assert len(components) == m
    assert all(len(c) == 4 and _is_copy(g, c, diamond) for c in components)


# -- layered ----------------------------------------------------------------------

def test_layered_composites_match_reference():
    f, g_ = composite_maps(refdata.LAYERED_S3M3_SPEC)
    assert f[(1, 2)].as_dict() == refdata.LAYERED_S3M3_F12
    assert f[(2, 3)].as_dict() == refdata.LAYERED_S3M3_F23
    assert f[(1, 3)].as_dict() == refdata.LAYERED_S3M3_F13
    assert g_[(1, 3)].as_dict() == refdata.LAYERED_S3M3_G13


def test_layered_reference_instance():
    g = layered(refdata.LAYERED_S3M3_SPEC)
    assert g.n_vertices == 18 and g.n_edges == 27
    report = axiom_report(g)
    assert report.is_2qbmg and report.proper
    assert is_thin(g)


def test_layered_edge_count_is_m_s_squared():
    for s in (2, 3, 4):
        for m in (1, 2, 3):
            g = layered(random_layered_spec(s, m, seed=5))
            assert g.n_edges == m * s * s
            assert g.n_vertices == 2 * m * s


def test_composition_coherence_laws():
    spec = random_layered_spec(4, 3, seed=9)
    f, g_ = composite_maps(spec)
    s = spec.s
    for i in range(1, s + 1):
        for j in range(i, s + 1):
            for d in range(j + 1, s + 1):
                for k in range(d, s + 1):
                    lhs = f[(i, k)].as_dict()
                    rhs = compose(f[(i, j)].as_dict(), g_[(j, d)].as_dict(), f[(d, k)].as_dict())
                    assert lhs == rhs, (i, j, d, k)
    for j in range(1, s + 1):
        for ell in range(j + 1, s + 1):
            for t in range(ell, s + 1):
                for d in range(t + 1, s + 1):
                    lhs = g_[(j, d)].as_dict()
                    rhs = compose(g_[(j, ell)].as_dict(), f[(ell, t)].as_dict(), g_[(t, d)].as_dict())
                    assert lhs == rhs, (j, ell, t, d)


def test_lift_identity_is_identity():
    spec = refdata.LAYERED_S3M3_SPEC
    u1 = sorted(spec.u_class(1))
    phi = lift_permutation(spec, {v: v for v in u1})
    assert phi == Permutation.identity(spec.vertices)


def test_lift_is_homomorphism():
    import itertools
    spec = random_layered_spec(3, 3, seed=3)
    u1 = sorted(spec.u_class(1))
    perms = [dict(zip(u1, img)) for img in itertools.permutations(u1)]
    for p1 in perms[:4]:
        for p2 in perms[2:6]:
            composed = {v: p1[p2[v]] for v in u1}
            lhs = lift_permutation(spec, composed)
            rhs = lift_permutation(spec, p1).compose(lift_permutation(spec, p2))
            assert lhs == rhs


def test_lifted_group_two_layer_reference():
    grp = lifted_group(refdata.TWO_LAYER_M4_SPEC)
    assert grp.order == 24
    g = layered(refdata.TWO_LAYER_M4_SPEC)
    for p in grp.sorted_elements:
        assert is_automorphism(g, p, color_preserving=True)


def test_lifted_group_three_layer_reference():
    grp = lifted_group(refdata.LAYERED_S3M3_SPEC)
    assert grp.order == 6
    g = layered(refdata.LAYERED_S3M3_SPEC)
    for p in grp.sorted_elements:
        assert is_automorphism(g, p, color_preserving=True)


def test_lifted_group_orbits_are_classes():
    spec = random_layered_spec(3, 2, seed=7)
    grp = lifted_group(spec)
    assert grp.order == 2
    expected = set()
    for i in range(1, spec.s + 1):
        expected.add(spec.u_class(i))
        expected.add(spec.w_class(i))
    assert set(grp.orbit_sets()) == expected


def test_lifted_group_m1_trivial():
    assert lifted_group(random_layered_spec(2, 1, seed=1)).order == 1


def test_lifted_group_past_the_search_cap():
    # 120 vertices; the known order m! ends Schreier-Sims.
    assert lifted_group(random_layered_spec(2, 30, 1)).order == math.factorial(30)


def test_random_spec_is_seed_deterministic():
    a = random_layered_spec(3, 4, seed=42)
    b = random_layered_spec(3, 4, seed=42)
    assert a == b
    c = random_layered_spec(3, 4, seed=43)
    assert a != c


def test_spec_text_roundtrip():
    spec = refdata.LAYERED_S3M3_SPEC
    assert parse_layered_spec(format_layered_spec(spec)) == spec


def test_spec_parse_errors():
    with pytest.raises(GraphFormatError, match="layers"):
        parse_layered_spec("f 1 1: 1->2\n")
    with pytest.raises(GraphFormatError):
        parse_layered_spec("layers s=2 m=1\nf 1 2: 1->2\n")


def test_spec_error_column_is_the_token_in_the_raw_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_layered_spec("layers s=2 m=2\ng 1 2: 3->2 2\n")
    assert (exc.value.line, exc.value.column) == (2, 13)


S2 = "layers s=2 m=1\nf 1 1: 1->3\nf 2 2: 2->4\ng 1 2: 3->2\n"


@pytest.mark.parametrize("extra, line, match", [
    ("f 1 1: 1->3\n", 5, "'f 1 1' repeats line 2"),
    ("g 1 2: 3->2\n", 5, "'g 1 2' repeats line 4"),
    ("layers s=2 m=1\n", 5, "'layers s=2 m=1' repeats line 1"),
    ("f 3 3: 5->7\n", 5, "'f 3 3' lies outside layers 1..2"),
    ("g 2 3: 4->5\n", 5, "'g 2 3' lies outside layers 1..2"),
])
def test_spec_rejects_repeats_and_tables_outside_the_layers(extra, line, match):
    assert parse_layered_spec(S2).s == 2
    with pytest.raises(GraphFormatError, match=match) as exc:
        parse_layered_spec(S2 + extra)
    assert exc.value.line == line


@pytest.mark.parametrize("text, line, message", [
    ("layers s=2\n", 1, "bad layers line 'layers s=2'"),
    ("layers s=2 m=1\nf 1 1 1->3\n", 2, "expected 'f <i> <j>: a->b ...', got 'f 1 1 1->3'"),
    ("layers s=2 m=1\nf a 1: 1->3\n", 2, "bad table indices in 'f a 1: 1->3'"),
    ("layers s=2 m=1\nf 1 1: 1->3 2->3\n", 2, "bijection table repeats an image vertex"),
    ("layers s=2 m=1\nf 1 2: 1->3\n", 2, "only diagonal f tables may be given"),
    ("layers s=2 m=1\ng 1 3: 3->2\n", 2, "g tables must step one layer forward"),
    ("layers s=2 m=1\nh 1 1: 1->3\n", 2, "unrecognized line 'h 1 1: 1->3'"),
    ("layers s=2 m=1\nf 1 1: 1->3\nf 2 2: 2->4\n", 1, "missing table for layer 1"),
    (S2.replace("m=1", "m=2"), 1, "every class must have size 2, got 1"),
])
def test_spec_parse_errors_name_the_line(text, line, message):
    with pytest.raises(GraphFormatError, match=re.escape(message)) as exc:
        parse_layered_spec(text)
    assert exc.value.line == line


def test_sequential_blowup_preserves_membership():
    for base in (layered(default_layered_spec(2, 2)),
                 layered(random_layered_spec(3, 2, seed=13))):
        assert is_2qbmg(base)
        g = blow_up(base, min(base.vertices), "x1")
        g = blow_up(g, "x1", "x2")
        assert is_2qbmg(g)


def test_blowup_multiplies_canonical_gamma_order():
    from qbmg import canonical_gamma
    g = refdata.BLOWUP_BASE
    before = canonical_gamma(g).order
    g2 = blow_up(g, "5", "10")
    assert canonical_gamma(g2).order == before * math.factorial(2)
