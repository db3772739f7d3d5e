"""Core graph type, neighborhood queries, and the text format."""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbmg.digraph
from qbmg import (
    ColoredDigraph,
    GraphFormatError,
    QbmgError,
    UnknownVertexError,
    aut_color_preserving,
    blow_up,
    canonical_gamma,
    classical_quotient,
    equivalence_classes,
    format_graph,
    is_thin,
    long_induced_path_or_cycle,
    parse_graph,
    symmetric_edges,
    to_dot,
    token_key,
)
from qbmg.digraph import class_masks
from qbmg.errors import SizeCapError

from tests import oracles, refdata
from tests.test_first_witnesses import relabeled_digraphs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_token_key_orders_numerics_by_value():
    tokens = ["10", "2", "1", "x", "9"]
    assert sorted(tokens, key=token_key) == ["1", "2", "9", "10", "x"]


def test_constructor_rejects_same_color_edge():
    with pytest.raises(QbmgError, match="same color"):
        ColoredDigraph({"1", "2"}, {"3"}, [("1", "2")])


def test_constructor_rejects_loop():
    with pytest.raises(QbmgError, match="loop"):
        ColoredDigraph({"1"}, {"2"}, [("1", "1")])


def test_constructor_rejects_overlapping_classes():
    with pytest.raises(QbmgError, match="overlap"):
        ColoredDigraph({"1"}, {"1"}, [])


def test_constructor_rejects_unknown_endpoint():
    with pytest.raises(UnknownVertexError):
        ColoredDigraph({"1"}, {"2"}, [("1", "9")])


@pytest.mark.parametrize("token, message", [
    ("", "vertex token must be non-empty text, got ''"),
    ("a b", "vertex token 'a b' may not contain whitespace or '#'"),
    ("a\tb", "vertex token 'a\\tb' may not contain whitespace or '#'"),
    ("a#b", "vertex token 'a#b' may not contain whitespace or '#'"),
    (7, "vertex token must be non-empty text, got 7"),
], ids=["empty", "space", "tab", "hash", "int"])
def test_constructor_rejects_bad_tokens(token, message):
    with pytest.raises(QbmgError, match=f"^{re.escape(message)}$"):
        ColoredDigraph({"1", token}, {"2"}, [])
    with pytest.raises(QbmgError, match=f"^{re.escape(message)}$"):
        ColoredDigraph({"1"}, {token}, [])


def test_out_neighbors_on_blowup_base():
    g = refdata.BLOWUP_BASE
    assert g.out_neighbors("3") == {"2", "4"}
    assert g.in_neighbors("2") == {"1", "3"}


def test_out_neighbors_isolated_and_unknown():
    g = ColoredDigraph({"1"}, {"2"}, [])
    assert g.out_neighbors("1") == frozenset()
    with pytest.raises(UnknownVertexError, match="9"):
        g.out_neighbors("9")


def test_out_neighbors_complete_symmetric():
    g = refdata.complete_symmetric(2, 3)
    assert g.out_neighbors("1") == g.color_w


def test_symmetric_edges():
    assert symmetric_edges(refdata.BLOWUP_BASE) == {frozenset({"1", "2"})}
    assert symmetric_edges(ColoredDigraph({"1"}, {"2"}, [])) == set()
    assert len(symmetric_edges(refdata.complete_symmetric(2, 3))) == 6


def test_induced_subgraph():
    g = refdata.BLOWUP_BASE
    sub = g.induced_subgraph({"1", "2"})
    assert sub.edges == {("1", "2"), ("2", "1")}
    assert g.induced_subgraph(g.vertices) == g
    empty = g.induced_subgraph(set())
    assert empty.n_vertices == 0 and empty.n_edges == 0


def test_induced_subgraph_composes():
    g = refdata.BLOWUP_TWICE
    a = g.induced_subgraph({"1", "2", "3", "7"}).induced_subgraph({"1", "2"})
    b = g.induced_subgraph({"1", "2"})
    assert a == b


def test_underlying_undirected():
    # Each directed or symmetric edge collapses to one unordered pair.
    assert set(map(frozenset, refdata.BLOWUP_BASE.edge_list())) == {
        frozenset(p) for p in [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")]
    }
    from qbmg import layered
    g = layered(refdata.TWO_LAYER_M4_SPEC)
    assert len(set(map(frozenset, g.edge_list()))) == 16


def _path_graph(n: int, extra=()) -> ColoredDigraph:
    """Vertices 1..n, odd ones in U, with edges i->i+1 plus ``extra``."""
    vs = [str(i) for i in range(1, n + 1)]
    edges = [(str(i), str(i + 1)) for i in range(1, n)] + list(extra)
    return ColoredDigraph(vs[0::2], vs[1::2], edges)


def test_long_induced_path_detects_p6():
    witness = long_induced_path_or_cycle(_path_graph(6))
    assert witness is not None and len(witness) == 6


def test_long_induced_path_detects_c6():
    witness = long_induced_path_or_cycle(_path_graph(6, [("6", "1")]))
    assert witness is not None and len(witness) >= 6


def test_long_induced_path_none_on_p5():
    assert long_induced_path_or_cycle(_path_graph(5)) is None


def test_long_induced_path_ignores_chorded_path():
    # A 6-path plus a chord is not an induced 6-path; the chord splits it
    # into shorter induced pieces.
    cycle = [("1", "6")]  # now a 6-cycle: still a witness
    assert long_induced_path_or_cycle(_path_graph(6, cycle)) is not None
    chorded = cycle + [("1", "4")]  # chord kills both P6 and C6
    assert long_induced_path_or_cycle(_path_graph(6, chorded)) is None


def test_long_induced_path_equals_the_dfs_on_the_pool(enumerated_pool):
    # Pool graphs have at most 6 vertices; only thin 3+3 ones reach the DFS.
    searched = 0
    for g in enumerated_pool:
        searched += len(class_masks(g)) >= 6
        assert long_induced_path_or_cycle(g) == oracles.induced_path_or_cycle_dfs(g)
    assert searched > 0


def _blown_up(g, data, cap=64):
    for k in range(data.draw(st.integers(0, cap - g.n_vertices))):
        g = blow_up(g, data.draw(st.sampled_from(sorted(g.vertices, key=token_key))), f"t{k}")
    return g


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_long_induced_path_equals_the_dfs_on_blow_ups(family_instances, data):
    # Twins leave the class count alone, so a graph with 6 or more classes
    # is searched at every size up to the cap, and one with fewer never is.
    # P6 and C6 are non-members with a witness.
    bases = [_path_graph(6), _path_graph(6, [("6", "1")])]
    bases += sorted(family_instances.values(), key=lambda h: h.n_vertices)
    g = _blown_up(data.draw(st.sampled_from(bases)), data)
    assert long_induced_path_or_cycle(g) == oracles.induced_path_or_cycle_dfs(g)


def test_long_induced_path_equals_the_dfs_on_a_non_member_with_twins():
    # P6 with a twin of 3 and of 6: 8 vertices, 6 classes, and a witness.
    g = blow_up(blow_up(_path_graph(6), "3", "7"), "6", "8")
    assert len(class_masks(g)) == 6
    witness = long_induced_path_or_cycle(g)
    assert witness is not None and witness == oracles.induced_path_or_cycle_dfs(g)


def _end_blown_up(g: ColoredDigraph, twins: int) -> ColoredDigraph:
    """g with vertex 1 replaced by ``twins`` twins t1, t2, ...; 1 must be in U with out-edges
    only."""
    ts = [f"t{k}" for k in range(1, twins + 1)]
    edges = [(t, b) for a, b in g.edges if a == "1" for t in ts]
    edges += [e for e in g.edges if e[0] != "1"]
    return ColoredDigraph([*ts, *(g.color_u - {"1"})], g.color_w, edges)


def test_long_induced_path_cap():
    # The search counts g's twin classes, and g's vertices only when a member
    # of each class holds a witness: 33 symmetric edges have 66 classes, and
    # P6 with one end blown up into 60 twins has 6 classes, a witness, and 65
    # vertices.
    matching = ColoredDigraph(
        [f"u{k}" for k in range(33)], [f"w{k}" for k in range(33)],
        [e for k in range(33) for e in ((f"u{k}", f"w{k}"), (f"w{k}", f"u{k}"))])
    for g, n in ((matching, 66), (_end_blown_up(_path_graph(6), 60), 65)):
        with pytest.raises(SizeCapError, match=f"capped at 64 vertices, got {n}$"):
            long_induced_path_or_cycle(g)


@pytest.mark.parametrize("g", [
    ColoredDigraph([str(i) for i in range(50)], [str(i) for i in range(50, 100)], []),
    _end_blown_up(ColoredDigraph(("1", "3", "4", "6"), ("2", "5"),
                                 [("1", "2"), ("2", "3"), ("4", "5"), ("5", "6")]), 60),
], ids=["edgeless-50-50", "two-p3-end-blown-up"])
def test_long_induced_path_past_64_vertices_without_a_witness_among_the_classes(g):
    assert g.n_vertices > 64 and long_induced_path_or_cycle(g) is None


def test_parse_format_roundtrip():
    text = format_graph(refdata.BLOWUP_TWICE)
    assert parse_graph(text) == refdata.BLOWUP_TWICE


def test_parse_accepts_comments_and_blanks():
    g = parse_graph("# a graph\n\nqbmg 1\nU: 1\nW: 2\n# inner\ne 1 2  # trailing\n")
    assert g.edges == {("1", "2")}


def test_parse_empty_classes():
    g = parse_graph("qbmg 1\nU:\nW:\n")
    assert g.n_vertices == 0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("qbmg 1\nU: 1\nW: 2\ne 1 9\n")
    assert exc.value.line == 4

    with pytest.raises(GraphFormatError) as exc:
        parse_graph("qbmg 2\nU: 1\nW: 2\n")
    assert exc.value.line == 1

    with pytest.raises(GraphFormatError) as exc:
        parse_graph("qbmg 1\nU: 1 1\nW: 2\n")
    assert exc.value.line == 2

    with pytest.raises(GraphFormatError) as exc:
        parse_graph("qbmg 1\nU: 1\nW: 2\ne 1 2\ne 2 1 extra\n")
    assert exc.value.line == 5


@pytest.mark.parametrize("text, message, line", [
    ("# only a comment\n", "empty input, expected 'qbmg 1' header", None),
    ("qbmg 1\nU: 1\n\n", "unexpected end of input, expected 'W:' class line", 2),
    ("qbmg 1\nW: 1\n", "expected 'U:' class line, got 'W: 1'", 2),
    ("qbmg 1\nU: 1\nW: 2\nx 1 2\n", "expected edge line 'e <tail> <head>', got 'x 1 2'", 4),
    ("qbmg 1\nU: 1\nW: 2\ne 1 1\n", "loop edge at '1'", 4),
])
def test_parse_errors_name_the_line(text, message, line):
    with pytest.raises(GraphFormatError, match=re.escape(message)) as exc:
        parse_graph(text)
    assert exc.value.line == line


@pytest.mark.parametrize("u_class, edge_line, column", [
    ("11", "e 11 1", 6),
    ("1", "  e 1 9   # x", 7),
    ("11", "   e 11 2 3", 11),
    ("11", "e 11", None),
])
def test_parse_error_column_is_the_token_in_the_raw_line(u_class, edge_line, column):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(f"qbmg 1\nU: {u_class}\nW: 2\n{edge_line}\n")
    assert (exc.value.line, exc.value.column) == (4, column)


def test_parse_rejects_a_vertex_in_both_classes_on_the_w_line():
    with pytest.raises(GraphFormatError, match="duplicate vertex '2'") as exc:
        parse_graph("qbmg 1\nU: 1 2\nW: 3 2\ne 1 3\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("**/*.qbmg")),
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_parsed_fixtures_equal_their_validated_rebuild(path):
    oracles.assert_as_if_validated(parse_graph(path.read_text()))


@settings(max_examples=100, deadline=None)
@given(relabeled_digraphs(side=6))
def test_parsed_graphs_equal_their_validated_rebuild(g):
    h = parse_graph(format_graph(g))
    oracles.assert_as_if_validated(h)
    assert h == g


def test_parse_rejects_same_color_edge_with_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("qbmg 1\nU: 1 3\nW: 2\ne 1 3\n")
    assert exc.value.line == 4


def test_parse_rejects_duplicate_edge_at_the_repeat():
    with pytest.raises(GraphFormatError, match="duplicate edge") as exc:
        parse_graph("qbmg 1\nU: 1\nW: 2\ne 1 2\ne 2 1\n# again\ne 1 2\n")
    assert exc.value.line == 7


# Edge lines with two faults each, and the fault that is reported: keyword, then
# arity, then undeclared vertex, then loop, then color, then duplicate. Each entry
# is (lines, message, index of the reported line among them, column).
TWO_FAULTS = [
    (["f 1 3 4"], "expected edge line 'e <tail> <head>', got 'f 1 3 4'", 0, None),
    (["x 1"], "expected edge line 'e <tail> <head>', got 'x 1'", 0, None),
    (["E 9 3"], "expected edge line 'e <tail> <head>', got 'E 9 3'", 0, None),
    (["e 9 3 4"], "edge line needs exactly two endpoints, got 'e 9 3 4'", 0, 7),
    ([" e 1 1 1  # loop"], "edge line needs exactly two endpoints, got 'e 1 1 1'", 0, 8),
    (["e 9"], "edge line needs exactly two endpoints, got 'e 9'", 0, None),
    (["e 9 9"], "edge references undeclared vertex '9'", 0, 3),
    (["e  2   9"], "edge references undeclared vertex '9'", 0, 8),
    (["e 1 1"], "loop edge at '1'", 0, None),
    (["e 3 3", "e 2 4", "e 2 4"], "loop edge at '3'", 0, None),
    (["e 2 4", "e 2 4", "e 3 3"], "duplicate edge ('2', '4')", 1, None),
    (["e 2 1", "e 2 4", "e 2 4"], "edge ('2', '1') joins two vertices of the same color", 0,
     None),
]


@pytest.mark.parametrize("later", [False, True], ids=["first", "later"])
@pytest.mark.parametrize("lines, message, at, column", TWO_FAULTS)
def test_parse_reports_the_first_fault_of_an_edge_line(lines, message, at, column, later):
    # "later" puts two good edge lines, a comment and a blank line first.
    head = ["qbmg 1", "U: 1 2", "W: 3 4"] + (["e 1 3", "# ok", "", "e 4 2"] if later else [])
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("\n".join(head + lines) + "\n")
    line = len(head) + at + 1
    assert (exc.value.line, exc.value.column) == (line, column)
    where = f"line {line}" + (f", column {column}" if column else "")
    assert str(exc.value) == f"{message} ({where})"


def test_dot_output_is_deterministic():
    d1 = to_dot(refdata.BLOWUP_BASE)
    d2 = to_dot(refdata.BLOWUP_BASE)
    assert d1 == d2
    assert '"1" -> "2";' in d1 and '"2" [shape=box];' in d1


def test_derived_graphs_equal_their_validated_rebuild(corpus):
    count = 0
    for g in corpus.values():
        for h in oracles.derived_graphs(g):
            oracles.assert_as_if_validated(h)
            count += 1
    assert count > len(corpus) * 4


# -- the twin classes: one fact of the graph, computed once ----------------------


def record_class_masks(monkeypatch) -> tuple[list[ColoredDigraph], list[tuple[int, ...]]]:
    """From now on: the graphs whose twin classes are computed, in order, and every tuple
    ``class_masks`` returns, through every qbmg module that binds it."""
    filled: list[ColoredDigraph] = []
    returned: list[tuple[int, ...]] = []
    orig = qbmg.digraph.class_masks

    def recorded(g):
        if g._classes is None:
            filled.append(g)
        returned.append(orig(g))
        return returned[-1]

    for name, mod in list(sys.modules.items()):
        if name.startswith("qbmg") and vars(mod).get("class_masks") is orig:
            monkeypatch.setattr(mod, "class_masks", recorded)
    return filled, returned


def assert_twins_match_the_oracle(g: ColoredDigraph) -> None:
    classes = oracles.brute_force_twin_classes(g)
    assert [frozenset(g.tokens(m)) for m in class_masks(g)] == classes
    assert is_thin(g) == (len(classes) == g.n_vertices)


def test_twin_classes_match_the_pairwise_oracle_on_the_pool(enumerated_pool):
    for g in enumerated_pool:
        assert_twins_match_the_oracle(g)


@settings(max_examples=200, deadline=None)
@given(relabeled_digraphs(side=4, late=True))
def test_twin_classes_match_the_pairwise_oracle_on_random_graphs(g):
    assert_twins_match_the_oracle(g)


def test_derived_graphs_compute_their_own_twin_classes(corpus):
    # Every derived graph starts without classes, even when g's are known,
    # and computes its own: an orientation or a quotient has other twins.
    for g in corpus.values():
        class_masks(g)
        derived = [*oracles.derived_graphs(g, max_orientations=4),
                   g.induced_subgraph(g.vertices)]
        if g.n_vertices > 1:
            derived.append(g.induced_subgraph(g.sorted_vertices[1:]))
        for h in derived:
            assert h._classes is None
            assert_twins_match_the_oracle(h)


def test_quotients_gamma_and_aut_i_read_one_tuple(monkeypatch):
    g = refdata.complete_symmetric(2, 3)
    filled, returned = record_class_masks(monkeypatch)
    for read in (classical_quotient, canonical_gamma, aut_color_preserving,
                 equivalence_classes, is_thin):
        read(g)
    assert filled == [g]
    assert len(returned) == 5 and all(classes is g._classes for classes in returned)
    assert [g.tokens(m) for m in g._classes] == [["1", "2"], ["3", "4", "5"]]
