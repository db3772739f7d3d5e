"""First witnesses and topological orders against scans in token order.

The production checks read neighborhood masks over vertex ranks and take the
least set bit; these tests pin that the result is the first tuple in token
order. Vertices are relabeled to mixed tokens, so that token order, text
order and insertion order all differ.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg import (
    ColoredDigraph,
    check_n1,
    check_n2,
    check_n3,
    check_n3star,
    satisfies_star,
    symmetric_edges,
    topological_order,
)

from tests.oracles import enumerate_bipartite_digraphs, first_witnesses, kahn_least_token

# Token order: 9 02 10 B a x1; text order: 02 10 9 B a x1.
TOKENS = ("a", "9", "10", "B", "x1", "02")

CHECKS = {"n1": check_n1, "n2": check_n2, "n3": check_n3, "n3star": check_n3star,
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


@st.composite
def relabeled_digraphs(draw, oriented=False):
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    names = draw(st.permutations(TOKENS))
    u, w = names[:r], names[r:r + s]
    pairs = [(a, b) for a in u for b in w]
    edges = set()
    for a, b in pairs:
        kind = draw(st.sampled_from(("none", "forward", "backward") if oriented
                                    else ("none", "forward", "backward", "both")))
        if kind in ("forward", "both"):
            edges.add((a, b))
        if kind in ("backward", "both"):
            edges.add((b, a))
    return ColoredDigraph(u, w, edges)


@settings(max_examples=200, deadline=None)
@given(relabeled_digraphs())
def test_first_witnesses_on_random_graphs(g):
    assert_first_witnesses(g)


@settings(max_examples=200, deadline=None)
@given(relabeled_digraphs(oriented=True))
def test_topological_order_on_random_oriented_graphs(g):
    assert_kahn_order(g)
