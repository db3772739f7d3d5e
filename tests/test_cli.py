"""Command-line behavior: outputs, determinism, exit codes."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmg import (
    ColoredDigraph,
    aut_color_preserving,
    aut_full,
    blow_up,
    format_graph,
    layered,
    parse_graph,
    random_layered_spec,
    token_key,
)
from qbmg import perms
from qbmg.cli import _json, main
from qbmg.verify import CHECK_NAMES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = FIXTURES / "corpus"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------------

def test_check_member(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "blowup_base.qbmg"))
    assert code == 0
    assert "2-qBMG: yes" in out and "proper: yes" in out


def test_check_non_member_exit_and_witness(capsys):
    code, out, _ = run(capsys, "check",
                       str(FIXTURES / "negative" / "simultaneous_duplication.qbmg"))
    assert code == 1
    assert "2-qBMG: no" in out and "violated by" in out


def test_check_empty_graph_n_trivial(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "empty.qbmg"))
    assert code == 0
    assert "trivial: N" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", "--json",
                       str(FIXTURES / "negative" / "simultaneous_duplication.qbmg"))
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["is_2qbmg"] is False
    assert doc["axioms"]["n1"]["witness"] == ["6", "7", "1", "2"]


def test_check_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.qbmg"
    bad.write_text("qbmg 1\nU: 1\nW: 2\ne 1 9\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 4" in err


def test_check_duplicate_edge_exit_2(tmp_path, capsys):
    bad = tmp_path / "dup.qbmg"
    bad.write_text("qbmg 1\nU: 1\nW: 2\ne 1 2\ne 1 2\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert "duplicate edge" in err and "line 5" in err


def test_check_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check", "no_such_file.qbmg")
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: 'no_such_file.qbmg'\n"


@pytest.mark.parametrize("argv", [("check",), ("aut", "--json")], ids=["check", "aut"])
def test_directory_input_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, argv[0], str(tmp_path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_non_utf8_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bytes.qbmg"
    bad.write_bytes(b"qbmg 1\nU: \xff\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_broken_stdout_is_not_an_input_error(monkeypatch):
    class Broken:
        def write(self, _text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", Broken())
    with pytest.raises(BrokenPipeError):
        main(["check", str(CORPUS / "k23.qbmg")])


# -- aut -----------------------------------------------------------------------

def test_aut_k23(capsys):
    code, out, _ = run(capsys, "aut", str(CORPUS / "k23.qbmg"))
    assert code == 0
    assert "order 12" in out


def test_aut_two_layer_json(capsys):
    code, out, _ = run(capsys, "aut", "--json", str(CORPUS / "two_layer_m4.qbmg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 24
    assert len(doc["orbits"]) == 4
    assert all(isinstance(gen, str) and gen.startswith("p: ") for gen in doc["generators"])


def test_aut_single_edge_trivial(capsys):
    code, out, _ = run(capsys, "aut", str(CORPUS / "single_edge.qbmg"))
    assert code == 0
    assert "order 1" in out


def test_aut_full_flag(capsys):
    code, out, _ = run(capsys, "aut", "--full", str(CORPUS / "sym_matching_2x2.qbmg"))
    assert code == 0
    assert "order 8" in out


def test_aut_stats_go_to_stderr_only(capsys):
    path = str(FIXTURES / "symmetry" / "layered_s2m5_seed1.qbmg")
    _, plain, _ = run(capsys, "aut", path, "--json")
    code, out, err = run(capsys, "aut", path, "--json", "--stats")
    assert code == 0
    assert out == plain
    assert err == ("search: nodes 56 leaves 4 dead_ends 0 base_length 13 "
                   "orbit_lengths 5,1,1,1,4,1,1,1,3,1,1,1,2 refinement_rounds 2\n"
                   "twins: classes 20 of 20 vertices, class product 1, quotient order 120\n")
    code, _, err = run(capsys, "aut", str(CORPUS / "empty.qbmg"), "--stats")
    assert code == 0
    assert err == ("search: nodes 0 leaves 0 dead_ends 0 base_length 0 orbit_lengths - "
                   "refinement_rounds 1\n"
                   "twins: classes 0 of 0 vertices, class product 1, quotient order 1\n")


@pytest.mark.parametrize("k, nodes", [(5, 28), (6, 40), (7, 54)])
def test_aut_stats_on_the_matching_ladder(tmp_path, capsys, k, nodes):
    # k disjoint symmetric edges, the symmetry-closure ladder: one leaf per
    # level whose fundamental orbit grows, with lengths k, 1, k-1, 1, ..., 2.
    u = [str(i) for i in range(1, k + 1)]
    w = [str(k + i) for i in range(1, k + 1)]
    path = str(FIXTURES / "symmetry" / "matching5.qbmg") if k == 5 else _write(
        tmp_path, f"matching{k}.qbmg", u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])
    code, _, err = run(capsys, "aut", path, "--stats")
    assert code == 0
    lengths = ",1,".join(map(str, range(k, 1, -1)))
    assert err == (f"search: nodes {nodes} leaves {k - 1} dead_ends 0 base_length {2 * k - 3} "
                   f"orbit_lengths {lengths} refinement_rounds 1\n"
                   f"twins: classes {2 * k} of {2 * k} vertices, class product 1, "
                   f"quotient order {math.factorial(k)}\n")


def test_aut_full_stats_on_five_symmetric_edges(capsys):
    code, _, err = run(capsys, "aut", str(FIXTURES / "symmetry" / "matching5.qbmg"),
                       "--full", "--stats")
    assert code == 0
    assert err == ("search: nodes 30 leaves 5 dead_ends 0 base_length 9 "
                   "orbit_lengths 10,1,8,1,6,1,4,1,2 refinement_rounds 1\n"
                   "twins: classes 10 of 10 vertices, class product 1, quotient order 3840\n")


def _blow_up_72(tmp_path) -> str:
    # Layered (4, 8), 64 vertices, with a twin for each of the 8 vertices of U_1.
    spec = random_layered_spec(4, 8, 1)
    g = layered(spec)
    for k, u in enumerate(sorted(spec.u_class(1), key=int), 1):
        g = blow_up(g, u, str(64 + k))
    path = tmp_path / "blowup72.qbmg"
    path.write_text(format_graph(g))
    return str(path)


_BLOW_UP_72_SEARCH = ("search: nodes 280 leaves 7 dead_ends 0 base_length 49 orbit_lengths "
                      + ",".join(f"{k},1,1,1,1,1,1,1" for k in range(8, 2, -1))
                      + ",2 refinement_rounds 2\n")


# (graph, the search line, the twins line); both groups search the same
# quotient here, from one cell per class size (and color, for Aut_I).
@pytest.mark.parametrize("full", [False, True], ids=["color-preserving", "full"])
@pytest.mark.parametrize("graph, search, twins", [
    (str(FIXTURES / "symmetry" / "k34.qbmg"),
     "search: nodes 0 leaves 0 dead_ends 0 base_length 0 orbit_lengths - refinement_rounds 1\n",
     "twins: classes 2 of 7 vertices, class product 144, quotient order 1\n"),
    (str(CORPUS / "diamonds_m4.qbmg"),
     "search: nodes 27 leaves 3 dead_ends 0 base_length 7 orbit_lengths 4,1,1,3,1,1,2 "
     "refinement_rounds 2\n",
     "twins: classes 12 of 16 vertices, class product 16, quotient order 24\n"),
    (None, _BLOW_UP_72_SEARCH,
     "twins: classes 64 of 72 vertices, class product 256, quotient order 40320\n"),
], ids=["K34", "diamonds", "blow-up-72"])
def test_aut_stats_label_the_twin_quotient(tmp_path, capsys, full, graph, search, twins):
    path = graph or _blow_up_72(tmp_path)
    flags = ["--full"] if full else []
    _, plain, _ = run(capsys, "aut", path, "--json", *flags)
    code, out, err = run(capsys, "aut", path, "--json", "--stats", *flags)
    assert (code, out, err) == (0, plain, search + twins)
    product, quotient_order = twins.removesuffix("\n").split(", ")[1:]
    assert json.loads(out)["order"] == int(product.split()[-1]) * int(quotient_order.split()[-1])


def test_aut_full_on_a_72_vertex_blow_up(tmp_path, capsys):
    code, out, _ = run(capsys, "aut", "--full", _blow_up_72(tmp_path))
    assert code == 0
    assert out.startswith("all automorphisms: order 10321920\n")


# The check on the 72-vertex blow-up that still reads past a cap: the
# hereditary check walks Aut_I's 10,321,920 elements. The induced path search
# counts its 64 classes, and common_out_neighbor_equivalence reads the full
# group, built around Gamma.
_BLOW_UP_72_CAPPED = {
    "gamma_quotient_hereditary": "group order exceeds the element cap of "
                                 f"{perms.DEFAULT_ELEMENT_CAP}",
}


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_verify_on_a_72_vertex_blow_up_one_check_at_a_time(tmp_path, capsys, check):
    code, out, err = run(capsys, "verify", "--theorems", check, _blow_up_72(tmp_path))
    if check in _BLOW_UP_72_CAPPED:
        assert (code, out, err) == (3, "", f"error: {_BLOW_UP_72_CAPPED[check]}\n")
    else:
        assert (code, out, err) == (0, f"PASS blowup72.qbmg: {check}\n"
                                       "checked 1 graph(s): all passed\n", "")


def _write(tmp_path, name, u, w, edges) -> str:
    path = tmp_path / name
    path.write_text(format_graph(ColoredDigraph(u, w, edges)))
    return str(path)


def test_aut_twelve_edge_matching(tmp_path, capsys):
    # Order 12! is far above the element cap; aut reads the chain only.
    u = [str(i) for i in range(1, 13)]
    w = [str(i) for i in range(13, 25)]
    pairs = list(zip(u, w))
    path = _write(tmp_path, "matching12.qbmg", u, w, pairs + [(b, a) for a, b in pairs])
    code, out, _ = run(capsys, "aut", path)
    assert code == 0
    assert out.startswith("color-preserving automorphisms: order 479001600\n")


def test_verify_fixed_vertex_check_walks_no_element_of_the_full_group(tmp_path, capsys):
    # The full group of 8 symmetric edges has order 2^8 8! = 10,321,920, past
    # the element cap, and the fixed-vertex check passes without an element.
    # The hereditary check still walks Aut_I, which is 12! on 12 edges.
    u, w = [str(i) for i in range(1, 9)], [str(i) for i in range(9, 17)]
    path = _write(tmp_path, "matching8.qbmg", u, w, _symmetric_matching(u, w))
    assert aut_full(parse_graph(Path(path).read_text())).order == 10_321_920
    assert run(capsys, "verify", "--theorems", "fixed_vertex_in_neighborhood", path) == (
        0, "PASS matching8.qbmg: fixed_vertex_in_neighborhood\n"
           "checked 1 graph(s): all passed\n", "")
    u, w = [str(i) for i in range(1, 13)], [str(i) for i in range(13, 25)]
    path = _write(tmp_path, "matching12.qbmg", u, w, _symmetric_matching(u, w))
    assert run(capsys, "verify", "--theorems", "gamma_quotient_hereditary", path) == (
        3, "", f"error: group order exceeds the element cap of {perms.DEFAULT_ELEMENT_CAP}\n")


def test_aut_full_k66(tmp_path, capsys):
    u = [str(i) for i in range(1, 7)]
    w = [str(i) for i in range(7, 13)]
    edges = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    code, out, _ = run(capsys, "aut", "--full", _write(tmp_path, "k66.qbmg", u, w, edges))
    assert code == 0
    assert out.startswith("all automorphisms: order 1036800\n")


def _symmetric_matching(u, w) -> list[tuple[str, str]]:
    return [e for a, b in zip(u, w) for e in ((a, b), (b, a))]


def _k55_case():
    u, w = [str(i) for i in range(1, 6)], [str(i) for i in range(6, 11)]
    edges = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    swaps = [f"p: {a}->{a + 1} {a + 1}->{a}" for a in (9, 8, 7, 6, 4, 3, 2, 1)]
    return (u, w, edges), {"schema": 1, "order": 14400, "generators": swaps,
                           "orbits": [u, w]}, {}


def _matching7_case():
    u, w = [str(i) for i in range(1, 8)], [str(i) for i in range(8, 15)]
    swaps = [f"p: {a}->{a + 1} {a + 1}->{a} {a + 7}->{a + 8} {a + 8}->{a + 7}"
             for a in range(6, 0, -1)]
    calls = {"_schreier_sims": 1, "_symmetric_chain": 1, "canonical_generators": 1}
    return (u, w, _symmetric_matching(u, w)), {"schema": 1, "order": 5040,
                                               "generators": swaps, "orbits": [u, w]}, calls


@pytest.mark.parametrize("case", [_k55_case(), _matching7_case()], ids=["K55", "matching7"])
def test_aut_builds_a_chain_only_when_its_generators_need_one(tmp_path, capsys, monkeypatch,
                                                               case):
    # K_{5,5}'s group is Sym(5) x Sym(5): its generating transpositions are
    # its canonical generators, so no chain is built. The matching's group
    # is searched, and its generators are read off the chain, which the
    # searched generators complete with no random element drawn.
    graph, doc, calls = case
    counts = {}
    for name in ("_schreier_sims", "_symmetric_chain", "_random_elements",
                 "canonical_generators"):
        def counted(*args, _fn=getattr(perms, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(perms, name, counted)
    code, out, _ = run(capsys, "aut", _write(tmp_path, "g.qbmg", *graph), "--json")
    assert code == 0 and counts == calls
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("full", [False, True], ids=["color-preserving", "full"])
def test_aut_orbits_print_in_token_order(tmp_path, capsys, full):
    # 10 sorts after 9 and before the letters: orbits print by token_key,
    # not by text, both in JSON and in text.
    g = ColoredDigraph(("9", "10", "a"), ("2", "11", "b"),
                       _symmetric_matching(("9", "10", "a"), ("b", "11", "2")))
    grp = aut_full(g) if full else aut_color_preserving(g)
    orbits = [sorted(o, key=token_key) for o in grp.orbit_sets()]
    assert orbits != [sorted(o) for o in grp.orbit_sets()]
    path = tmp_path / "mixed.qbmg"
    path.write_text(format_graph(g))
    flags = ["--full"] if full else []
    code, out, _ = run(capsys, "aut", str(path), "--json", *flags)
    assert code == 0 and json.loads(out)["orbits"] == orbits
    code, out, _ = run(capsys, "aut", str(path), *flags)
    assert code == 0
    assert out.splitlines()[-1] == "orbits: " + " ".join("{" + ",".join(o) + "}" for o in orbits)


def _matching_33(tmp_path) -> str:
    # 33 disjoint symmetric edges: 66 vertices and thin, so the search runs
    # on g itself (an edgeless graph would search only its 2-vertex quotient).
    lines = ["qbmg 1", "U: " + " ".join(str(i) for i in range(1, 34)),
             "W: " + " ".join(str(i) for i in range(34, 67))]
    lines += [f"e {i} {i + 33}\ne {i + 33} {i}" for i in range(1, 34)]
    big = tmp_path / "big.qbmg"
    big.write_text("\n".join(lines) + "\n")
    return str(big)


def test_aut_cap_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "aut", _matching_33(tmp_path))
    assert code == 3
    assert "capped at 64 vertices, got 66" in err


def test_aut_full_cap_exit_3_on_a_thin_graph(tmp_path, capsys):
    # No twins, so the full group's search, too, runs on g itself.
    assert run(capsys, "aut", "--full", _matching_33(tmp_path)) == (
        3, "", "error: automorphism search capped at 64 vertices, got 66\n")


def test_aut_large_edgeless_exit_3(tmp_path, capsys):
    # q has two vertices; g's own cap refuses it before any chain is written.
    big = tmp_path / "edgeless.qbmg"
    big.write_text("qbmg 1\nU: " + " ".join(str(i) for i in range(1, 1001))
                   + "\nW: " + " ".join(str(i) for i in range(1001, 2001)) + "\n")
    code, _, err = run(capsys, "aut", str(big))
    assert code == 3
    assert "capped at 128 vertices, got 2000" in err
    # Color-blind, the 2000 vertices are one class: q has one vertex.
    assert run(capsys, "aut", "--full", str(big)) == (
        3, "", "error: full automorphism group capped at 128 vertices, got 2000\n")


def test_verify_thin_orbit_pairs_cap_names_the_full_group(tmp_path, capsys):
    # 65 disjoint symmetric edges: thin, no twins and 130 vertices, past the
    # cap of both groups. The check reads the full group first, so that Aut_I
    # can be read off it, and the full group's cap is the one reported.
    u, w = [str(i) for i in range(1, 66)], [str(i) for i in range(66, 131)]
    path = _write(tmp_path, "matching65.qbmg", u, w, _symmetric_matching(u, w))
    assert run(capsys, "verify", "--theorems", "thin_orbit_pairs", path) == (
        3, "", "error: full automorphism group capped at 128 vertices, got 130\n")


# -- quotient --------------------------------------------------------------------

def test_quotient_canonical_gamma_large_edgeless_exit_3(tmp_path, capsys):
    # One class of 160 isolated vertices: Gamma's chain would hold 2,035,200 ranks.
    big = tmp_path / "edgeless.qbmg"
    big.write_text("qbmg 1\nU: " + " ".join(str(i) for i in range(1, 81))
                   + "\nW: " + " ".join(str(i) for i in range(81, 161)) + "\n")
    code, _, err = run(capsys, "quotient", "--canonical-gamma", str(big))
    assert code == 3
    assert "capped at 1040384 chain ranks, got 2035200" in err


def test_quotient_classical_on_blowup(capsys):
    code, out, _ = run(capsys, "quotient", "--classical", str(CORPUS / "blowup_once.qbmg"))
    assert code == 0
    g = parse_graph(out)
    assert g.n_vertices == 5
    assert "# q_1 <- 1 6" in out


def test_quotient_canonical_gamma_matches_classical_bytes(capsys):
    for name in ("blowup_once.qbmg", "blowup_twice.qbmg", "k23.qbmg",
                 "two_layer_m4.qbmg", "diamonds_m4.qbmg"):
        _, a, _ = run(capsys, "quotient", "--classical", str(CORPUS / name))
        _, b, _ = run(capsys, "quotient", "--canonical-gamma", str(CORPUS / name))
        assert a == b, name


def test_quotient_partition_then_check_fails(tmp_path, capsys):
    code, out, _ = run(capsys, "quotient",
                       "--partition", str(FIXTURES / "partitions" / "nonorbit_blocks.txt"),
                       str(CORPUS / "nonorbit_base.qbmg"))
    assert code == 0
    qfile = tmp_path / "q.qbmg"
    qfile.write_text(out)
    code, out, _ = run(capsys, "check", str(qfile))
    assert code == 1


def test_quotient_singleton_partition_echo(tmp_path, capsys):
    blocks = tmp_path / "singletons.txt"
    blocks.write_text("1\n2\n3\n4\n5\n")
    code, out, _ = run(capsys, "quotient", "--partition", str(blocks),
                       str(CORPUS / "blowup_base.qbmg"))
    assert code == 0
    g = parse_graph(out)
    assert g.n_vertices == 5 and g.n_edges == 5


def test_quotient_color_mixing_partition_exit_2(tmp_path, capsys):
    blocks = tmp_path / "bad.txt"
    blocks.write_text("1 2\n3\n4\n5\n")
    code, _, err = run(capsys, "quotient", "--partition", str(blocks),
                       str(CORPUS / "blowup_base.qbmg"))
    assert code == 2
    assert "mixes colors" in err


def test_quotient_json(capsys):
    code, out, _ = run(capsys, "quotient", "--json", "--classical",
                       str(CORPUS / "k23.qbmg"))
    doc = json.loads(out)
    assert doc["quotient"]["edges"] == [["q_1", "q_3"], ["q_3", "q_1"]]
    assert doc["projection"]["2"] == "q_1"


def test_quotient_orbit_partition_star_product(capsys):
    code, out, _ = run(capsys, "quotient",
                       "--partition", str(FIXTURES / "partitions" / "star_product_orbits.txt"),
                       str(CORPUS / "star_product.qbmg"))
    assert code == 0
    g = parse_graph(out)
    assert g.edges == {("q_1", "q_8"), ("q_1", "q_5"), ("q_2", "q_8"), ("q_5", "q_2")}


# -- generate --------------------------------------------------------------------

def test_generate_layered_from_spec(capsys):
    code, out, _ = run(capsys, "generate", "layered",
                       "--spec", str(FIXTURES / "specs" / "layered_s3m3.spec"))
    assert code == 0
    g = parse_graph(out)
    assert g.n_vertices == 18 and g.n_edges == 27


def test_generate_two_layer_spec_matches_reference_fixture(capsys):
    code, out, _ = run(capsys, "generate", "layered",
                       "--spec", str(FIXTURES / "specs" / "two_layer_m4.spec"))
    assert code == 0
    assert parse_graph(out) == parse_graph((CORPUS / "two_layer_m4.qbmg").read_text())


def test_generate_blowup_reproduces_fixture(capsys):
    code, out, _ = run(capsys, "generate", "blowup",
                       "--in", str(CORPUS / "blowup_base.qbmg"), "--at", "1", "--new", "6")
    assert code == 0
    assert parse_graph(out) == parse_graph((CORPUS / "blowup_once.qbmg").read_text())


def test_generate_two_layer_seeded_deterministic(capsys):
    _, a, _ = run(capsys, "generate", "two-layer", "--m", "1", "--seed", "7")
    _, b, _ = run(capsys, "generate", "two-layer", "--m", "1", "--seed", "7")
    assert a == b
    g = parse_graph(a)
    assert g.n_vertices == 4 and g.n_edges == 4


def test_generate_n2_trivial(capsys):
    code, out, _ = run(capsys, "generate", "n2-trivial", "--m", "2")
    assert code == 0
    from qbmg import axiom_report
    report = axiom_report(parse_graph(out))
    assert report.is_2qbmg and report.n2_trivial


def test_generate_random_spec_pipes_into_layered(tmp_path, capsys):
    code, spec_text, _ = run(capsys, "generate", "random", "--s", "3", "--m", "2",
                             "--seed", "5")
    assert code == 0
    assert "seed=5" in spec_text
    spec_file = tmp_path / "r.spec"
    spec_file.write_text(spec_text)
    code, out, _ = run(capsys, "generate", "layered", "--spec", str(spec_file))
    assert code == 0
    assert parse_graph(out).n_edges == 2 * 9


def test_generate_bad_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("layers s=2 m=2\nf 1 1: 1->5 2->5\n")
    code, _, err = run(capsys, "generate", "layered", "--spec", str(bad))
    assert code == 2


def test_generate_spec_with_a_repeated_table_exit_2(tmp_path, capsys):
    spec = (FIXTURES / "specs" / "layered_s3m3.spec").read_text()
    bad = tmp_path / "repeat.spec"
    bad.write_text(spec + "f 1 1: 1->10 2->11 3->12\n")
    code, _, err = run(capsys, "generate", "layered", "--spec", str(bad))
    assert code == 2 and "line 8" in err


def test_generate_dot_output(capsys):
    code, out, _ = run(capsys, "generate", "two-layer", "--m", "1", "--dot")
    assert code == 0
    assert out.startswith("digraph") and '"1" -> "3";' in out


# -- verify ----------------------------------------------------------------------

def test_verify_corpus_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--corpus", str(CORPUS))
    assert code == 0
    assert "all passed" in out


def test_verify_single_file(capsys):
    code, out, _ = run(capsys, "verify", str(CORPUS / "two_layer_m4.qbmg"))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 12


def test_verify_selected_theorems(capsys):
    code, out, _ = run(capsys, "verify", "--theorems",
                       "membership,route_equivalence",
                       str(CORPUS / "k23.qbmg"))
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("PASS")]) == 2


def test_verify_corrupted_two_layer_fails(tmp_path, capsys):
    text = (CORPUS / "two_layer_m4.qbmg").read_text()
    lines = [l for l in text.splitlines() if l != "e 1 10"]
    corrupted = tmp_path / "corrupted.qbmg"
    corrupted.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(corrupted))
    assert code == 1
    assert "FAIL" in out


def test_verify_non_member_reports_failure(capsys):
    code, out, _ = run(capsys, "verify",
                       str(FIXTURES / "negative" / "simultaneous_duplication.qbmg"))
    assert code == 1
    assert "FAIL" in out and "membership" in out


def test_verify_empty_corpus_warns(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
    assert code == 0
    assert "empty corpus" in err


@pytest.mark.parametrize("corpus", [CORPUS / "no_such_dir", CORPUS / "k23.qbmg"],
                         ids=["missing", "file"])
def test_verify_corpus_must_be_a_directory(capsys, corpus):
    code, out, err = run(capsys, "verify", "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert err == f"error: corpus {corpus} is not a directory\n"


def test_verify_corpus_names_the_malformed_file(tmp_path, capsys):
    (tmp_path / "a.qbmg").write_text((CORPUS / "k23.qbmg").read_text())
    (tmp_path / "b.qbmg").write_text("qbmg 1\nU: 1\nW: 2\ne 1 3\n")
    code, _, err = run(capsys, "verify", "--corpus", str(tmp_path))
    assert code == 2
    assert err == ("error: b.qbmg: edge references undeclared vertex '3' "
                   "(line 4, column 5)\n")
    code, _, err = run(capsys, "verify", str(tmp_path / "b.qbmg"))
    assert code == 2
    assert err == "error: edge references undeclared vertex '3' (line 4, column 5)\n"


def test_verify_corpus_names_the_file_that_hits_a_cap(tmp_path, capsys):
    for name in ("k23.qbmg", "single_edge.qbmg"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    (tmp_path / "matching10.qbmg").write_text((FIXTURES / "caps" / "matching10.qbmg").read_text())
    code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
    assert code == 3
    assert err == "error: matching10.qbmg: group order exceeds the element cap of 1000000\n"
    assert "PASS k23.qbmg" in out and "single_edge" not in out


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"qbmg 1\nU: 1\nW: \xe9\n"),
], ids=["directory", "non-utf8"])
def test_verify_corpus_names_the_unreadable_file(tmp_path, capsys, make):
    (tmp_path / "a.qbmg").write_text((CORPUS / "k23.qbmg").read_text())
    make(tmp_path / "b.qbmg")
    code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
    assert code == 2
    assert "PASS a.qbmg" in out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "b.qbmg") in err


def test_verify_help_lists_the_checks_in_registry_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # The names wrap mid-word at 80 columns; joined again they are the registry, in order.
    assert "comma-separatedsubsetof:" + ",".join(CHECK_NAMES) + "--json" in "".join(out.split())
    assert out == VERIFY_HELP


VERIFY_HELP = """\
usage: qbmg verify [-h] [--corpus DIR] [--theorems LIST] [--json] [path]

positional arguments:
  path             a single graph file

options:
  -h, --help       show this help message and exit
  --corpus DIR     check every *.qbmg file in DIR
  --theorems LIST  comma-separated subset of: membership,route_equivalence,und
                   erlying_p6c6_free,classical_idempotent,classical_equals_can
                   onical_gamma,canonical_gamma_normal,canonical_orbits_are_cl
                   asses,gamma_quotient_hereditary,common_out_neighbor_equival
                   ence,fixed_vertex_in_neighborhood,thin_orbit_pairs,orientat
                   ion_theorems
  --json
"""


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json", str(CORPUS / "empty.qbmg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", str(CORPUS / "k23.qbmg"), "--corpus", str(CORPUS)],
], ids=["neither", "both"])
def test_verify_needs_exactly_one_of_graph_and_corpus(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "verify needs a graph file or --corpus DIR" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["aut", "--nonsense", str(CORPUS / "k23.qbmg")],
    ["verify"],
], ids=["argparse", "main"])
def test_usage_error_leaves_the_parser_reusable(capsys, bad):
    argv = ["verify", "--json", str(CORPUS / "k23.qbmg")]
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == before


def test_verify_unknown_theorem_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "nonsense",
                       str(CORPUS / "empty.qbmg"))
    assert code == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("theorems", ["", "membership,"], ids=["empty", "trailing-comma"])
def test_verify_empty_theorem_name_exit_2(capsys, theorems):
    code, out, err = run(capsys, "verify", "--theorems", theorems, str(CORPUS / "empty.qbmg"))
    assert code == 2 and out == ""
    assert err.startswith("error: unknown checks: ['']; known: membership,")


# The checks that read a search past its cap on 33 disjoint symmetric edges;
# the others need no search there and pass.
_CAPPED_ALONE = {
    "underlying_p6c6_free": "induced path search capped at 64 vertices, got 66",
    **dict.fromkeys(("gamma_quotient_hereditary", "common_out_neighbor_equivalence",
                     "fixed_vertex_in_neighborhood", "thin_orbit_pairs",
                     "orientation_theorems"),
                    "automorphism search capped at 64 vertices, got 66"),
}


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_verify_cap_is_exit_3_never_a_failed_theorem(tmp_path, capsys, check):
    code, out, err = run(capsys, "verify", "--theorems", check, _matching_33(tmp_path))
    if check in _CAPPED_ALONE:
        assert (code, out, err) == (3, "", f"error: {_CAPPED_ALONE[check]}\n")
    else:
        assert code == 0 and out.startswith(f"PASS big.qbmg: {check}\n") and err == ""


# -- the JSON writer -------------------------------------------------------------

# Quotes, backslashes, control characters, non-ASCII and astral text.
_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'))
_SCALARS = (_TEXT | st.integers() | st.integers(-10**60, 10**60) | st.booleans()
            | st.none())
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(_TEXT, max_size=4)
                   | st.tuples(inner, inner) | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_json_writer_equals_json_dumps(doc):
    assert _json(doc, "") == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", {"a": [], "b": {}, "c": ()}, ["x", "y"], [["1", "2"], [], ["3"]],
    ["x", 1, None, True, False, ["y"]], {"order": 2**200, "neg": -(10**30)},
    {"é\"\\\n\x01\u2028": "\U0001f600"},
], ids=repr)
def test_json_writer_equals_json_dumps_on_edge_cases(doc):
    assert _json(doc, "") == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    1.5, {"a": 0.0}, ["x", 2.0], [1, [float("nan")]], {1, 2}, {"a": {"b"}}, {1: "a"},
    {None: "a"}, b"bytes", ["x", b"y"],
], ids=repr)
def test_json_writer_refuses_types_outside_its_set(doc):
    with pytest.raises(TypeError):
        _json(doc, "")
