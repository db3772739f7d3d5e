"""First witnesses and topological orders against scans in token order.

The production checks read neighborhood masks over vertex ranks and take the
least set bit; these tests pin that the result is the first tuple in token
order. Vertices are relabeled to mixed tokens, so that token order, text
order and insertion order all differ. Beyond 3+3, dense graphs whose first
vertices in token order have no out-edges make N1 and N2 fail at a late u,
and layered members and their blow-ups make every scan run to the end.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg import (
    ColoredDigraph,
    axiom_report,
    blow_up,
    layered,
    random_layered_spec,
    satisfies_star,
    symmetric_edges,
    token_key,
    topological_order,
)

from tests.oracles import enumerate_bipartite_digraphs, first_witnesses, kahn_least_token

# Token order: 7 9 02 10 007 100 A B a b x1 x10;
# text order: 007 02 10 100 7 9 A B a b x1 x10.
TOKENS = ("a", "9", "10", "B", "x1", "02", "100", "b", "x10", "7", "A", "007")

CHECKS = {"n1": lambda g: axiom_report(g).n1, "n2": lambda g: axiom_report(g).n2,
          "n3": lambda g: axiom_report(g).n3, "n3star": lambda g: axiom_report(g).n3star,
          "star": satisfies_star}


def relabel(g: ColoredDigraph, names: dict[str, str]) -> ColoredDigraph:
    return ColoredDigraph([names[v] for v in g.color_u], [names[v] for v in g.color_w],
                          [(names[t], names[h]) for (t, h) in g.edges])


def assert_first_witnesses(g: ColoredDigraph) -> None:
    expected = first_witnesses(g)
    for name, check in CHECKS.items():
        assert check(g).witness == expected[name], (name, sorted(g.edges))


def assert_kahn_order(g: ColoredDigraph) -> None:
    result = topological_order(g)
    assert result.order == kahn_least_token(g)
    if result.order is None:
        cycle = result.cycle
        assert all((a, b) in g.edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))


# The 2+2 pool: U = {1, 2}, W = {3, 4}, inserted in that order.
POOL_NAMES = {"1": "a", "2": "9", "3": "10", "4": "B"}


def test_first_witnesses_on_every_2x2_graph():
    for g in enumerate_bipartite_digraphs(2, 2):
        assert_first_witnesses(relabel(g, POOL_NAMES))


def test_topological_order_on_every_oriented_2x2_graph():
    for g in enumerate_bipartite_digraphs(2, 2):
        if not symmetric_edges(g):
            assert_kahn_order(relabel(g, POOL_NAMES))


EDGE_KINDS = ("none", "forward", "backward", "both")


def _digraph(u, w, kinds, quiet=0):
    """The graph on classes u, w with one edge kind per pair (a, b) of U x W.

    The first ``quiet`` vertices in token order get no out-edges.
    """
    silent = set(sorted((*u, *w), key=token_key)[:quiet])
    edges = set()
    for (a, b), kind in zip([(a, b) for a in u for b in w], kinds):
        if kind in ("forward", "both") and a not in silent:
            edges.add((a, b))
        if kind in ("backward", "both") and b not in silent:
            edges.add((b, a))
    return ColoredDigraph(u, w, edges)


@st.composite
def relabeled_digraphs(draw, oriented=False, side=3, late=False):
    r = draw(st.integers(1, side))
    s = draw(st.integers(1, side))
    names = draw(st.permutations(TOKENS))
    u, w = names[:r], names[r:r + s]
    kinds = EDGE_KINDS[:3] if oriented else EDGE_KINDS
    if late:  # dense: "none" is one draw in seven
        kinds += kinds[1:]
    quiet = draw(st.integers(0, r + s - 1)) if late else 0
    return _digraph(u, w, draw(st.lists(st.sampled_from(kinds), min_size=r * s,
                                        max_size=r * s)), quiet)


@settings(max_examples=200, deadline=None)
@given(relabeled_digraphs())
def test_first_witnesses_on_random_graphs(g):
    assert_first_witnesses(g)


@settings(max_examples=200, deadline=None)
@given(relabeled_digraphs(oriented=True))
def test_topological_order_on_random_oriented_graphs(g):
    assert_kahn_order(g)


@settings(max_examples=100, deadline=None)
@given(relabeled_digraphs(side=6, late=True))
def test_first_witnesses_on_dense_graphs_up_to_6x6(g):
    assert_first_witnesses(g)


def test_n1_and_n2_witnesses_at_a_late_vertex():
    rng = random.Random(14)
    late = {"n1": 0, "n2": 0}
    for _ in range(40):
        names = rng.sample(TOKENS, 12)
        g = _digraph(names[:6], names[6:], rng.choices(EDGE_KINDS, (1, 2, 2, 2), k=36),
                     quiet=rng.randint(5, 9))
        assert_first_witnesses(g)
        rank = g.rank
        for name in late:
            witness = CHECKS[name](g).witness
            late[name] += witness is not None and rank[witness[0]] >= 6
    assert min(late.values()) >= 10, late


def _layered_members():
    for s, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        g = layered(random_layered_spec(s, m, seed=s * 10 + m))
        yield g
        b1 = blow_up(g, g.sorted_vertices[0], "b1")
        yield b1
        yield blow_up(b1, g.tokens(g.w_mask)[0], "b2")


def test_first_witnesses_on_layered_members_and_blow_ups():
    for g in _layered_members():
        expected = first_witnesses(g)
        assert [expected[name] for name in ("n1", "n2", "n3", "n3star")] == [None] * 4
        assert_first_witnesses(g)


# -- N3 and N3* over the pairs that share an out-neighbor ------------------------

def assert_n3_witnesses(g: ColoredDigraph) -> None:
    expected = first_witnesses(g, ("n3", "n3star"))
    report = axiom_report(g)
    assert (report.n3.witness, report.n3star.witness) == (
        expected["n3"], expected["n3star"]), sorted(g.edges)


def _later_partner(g: ColoredDigraph, witness) -> bool:
    """True when v of the pair (u, v) is not the least v > u sharing an out-neighbor with u."""
    u, v = (g.rank[x] for x in witness)
    out = g.out_masks
    return any(out[u] & out[x] for x in range(u + 1, v))


def test_n3_routes_on_every_sixth_pool_graph(enumerated_pool):
    for g in enumerated_pool[::6]:
        assert_n3_witnesses(g)


def test_n3_routes_fail_at_a_later_sharing_partner():
    # 1 shares 4 with 2 (nested) and 5 with 3 (not nested): the pair is (1, 3).
    g = ColoredDigraph("123", "456", [("1", "4"), ("1", "5"), ("2", "4"), ("3", "5"),
                                      ("3", "6")])
    report = axiom_report(g)
    assert report.n3.witness == report.n3star.witness == ("1", "3")
    assert _later_partner(g, ("1", "3"))
    assert_n3_witnesses(g)


def _large_layered():
    """Layered members up to 60 vertices, one blow-up of each (up to 61)."""
    for s, m in ((2, 15), (3, 10), (5, 6), (4, 7)):
        g = layered(random_layered_spec(s, m, seed=s * 100 + m))
        yield g
        yield blow_up(g, g.sorted_vertices[len(g.sorted_vertices) // 2], "b1")


def test_n3_routes_on_layered_blow_ups_up_to_61_vertices():
    rng = random.Random(20)
    later, sizes = 0, set()
    for g in _large_layered():
        sizes.add(g.n_vertices)
        assert_n3_witnesses(g)
        # One to three added edges break nestedness, often at a later partner.
        u, w = sorted(g.color_u), sorted(g.color_w)
        for k in (1, 2, 3):
            pairs = [(rng.choice(u), rng.choice(w)) for _ in range(k)]
            h = ColoredDigraph(u, w, g.edges | {p if rng.random() < 0.5 else p[::-1]
                                                for p in pairs})
            assert_n3_witnesses(h)
            witness = axiom_report(h).n3.witness
            later += witness is not None and _later_partner(h, witness)
    assert max(sizes) == 61
    assert later >= 5, later
