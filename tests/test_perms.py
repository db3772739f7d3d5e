"""Permutation algebra, text format, and group closure."""

import itertools
import random

import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from qbmg import GraphFormatError, Permutation, QbmgError, format_permutation, parse_permutation
from qbmg.errors import SizeCapError
from qbmg.perms import PermGroup


DOM = ("1", "2", "3", "4")


def test_identity_and_apply():
    p = Permutation.identity(DOM)
    assert p.is_identity()
    assert p("3") == "3"
    with pytest.raises(QbmgError):
        p("9")


def test_from_mapping_fixes_unlisted():
    p = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    assert p("3") == "3" and p("1") == "2"
    assert p.fixed_points() == {"3", "4"}


def test_from_mapping_rejects_foreign_vertices():
    with pytest.raises(QbmgError):
        Permutation.from_mapping({"9": "1", "1": "9"}, DOM)


def test_rejects_non_bijection():
    with pytest.raises(QbmgError):
        Permutation(DOM, ("1", "1", "3", "4"))


def test_compose_applies_right_factor_first():
    a = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    b = Permutation.from_mapping({"2": "3", "3": "2"}, DOM)
    assert (a * b)("3") == a(b("3")) == "1"


def test_inverse():
    p = Permutation.from_mapping({"1": "2", "2": "3", "3": "1"}, DOM)
    assert (p * p.inverse()).is_identity()
    assert p.inverse()("2") == "1"


def test_cycle_string():
    p = Permutation.from_mapping({"1": "2", "2": "1", "3": "4", "4": "3"}, DOM)
    assert p.cycle_string() == "(1 2)(3 4)"
    assert Permutation.identity(DOM).cycle_string() == "()"


def test_permutation_text_roundtrip():
    p = Permutation.from_mapping({"1": "3", "3": "1"}, DOM)
    text = format_permutation(p)
    assert text == "p: 1->3 3->1"
    assert parse_permutation(text, DOM) == p


def test_parse_permutation_errors():
    with pytest.raises(GraphFormatError):
        parse_permutation("1->2", DOM)
    with pytest.raises(GraphFormatError):
        parse_permutation("p: 1=>2", DOM)
    with pytest.raises(GraphFormatError):
        parse_permutation("p: 1->2 1->3", DOM)
    with pytest.raises(GraphFormatError):
        parse_permutation("p: 1->2", DOM)  # not a bijection


def test_group_closure_contains_inverses_and_identity():
    rot = Permutation.from_mapping({"1": "2", "2": "3", "3": "1"}, DOM)
    grp = PermGroup.from_generators([rot])
    assert grp.order == 3
    assert Permutation.identity(DOM) in grp.elements
    assert rot.inverse() in grp.elements


def test_group_from_two_transpositions():
    a = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    b = Permutation.from_mapping({"2": "3", "3": "2"}, DOM)
    grp = PermGroup.from_generators([a, b])
    assert grp.order == 6


def test_group_element_cap(monkeypatch):
    # The chain holds any order; only enumerating the elements is capped.
    a = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    b = Permutation.from_mapping({"2": "3", "3": "2"}, DOM)
    monkeypatch.setattr("qbmg.perms.DEFAULT_ELEMENT_CAP", 4)
    grp = PermGroup.from_generators([a, b])
    assert grp.order == 6
    with pytest.raises(SizeCapError):
        grp.elements
    with pytest.raises(SizeCapError):
        grp.sorted_elements


def test_from_elements_requires_identity_and_closure():
    a = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    with pytest.raises(QbmgError, match="identity"):
        PermGroup.from_elements({a})
    with pytest.raises(QbmgError, match="inverse"):
        rot = Permutation.from_mapping({"1": "2", "2": "3", "3": "1"}, DOM)
        PermGroup.from_elements({Permutation.identity(DOM), rot})


def test_from_elements_rejects_mixed_domains():
    swap = Permutation.from_mapping({"1": "2", "2": "1"}, ("1", "2", "5"))
    with pytest.raises(QbmgError, match="different domains"):
        PermGroup.from_elements({Permutation.identity(DOM), swap}, DOM)


def test_canonical_generators_deterministic():
    a = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    b = Permutation.from_mapping({"3": "4", "4": "3"}, DOM)
    g1 = PermGroup.from_generators([a, b])
    g2 = PermGroup.from_generators([b, a])
    assert [p.images for p in g1.generators] == [p.images for p in g2.generators]
    assert g1.elements == g2.elements


def test_orbit_sets():
    a = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    grp = PermGroup.from_generators([a])
    assert grp.orbit_sets() == [frozenset({"1", "2"}), frozenset({"3"}), frozenset({"4"})]


def test_from_elements_rejects_a_set_not_closed_under_composition():
    # S_5 without one 5-cycle and its inverse holds the identity and every
    # inverse, yet is no group: 118 does not divide 120.
    dom = ("1", "2", "3", "4", "5")
    cycle = Permutation.from_mapping({"1": "2", "2": "3", "3": "4", "4": "5", "5": "1"}, dom)
    almost = {Permutation(dom, img) for img in itertools.permutations(dom)}
    almost -= {cycle, cycle.inverse()}
    assert len(almost) == 118
    with pytest.raises(QbmgError, match="not closed under composition"):
        PermGroup.from_elements(almost)


@pytest.mark.parametrize("seed", range(24))
def test_from_generators_matches_sympy(seed):
    # Independent oracle: sympy's group generated by the same images on points 0..n-1.
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    dom = tuple(str(i) for i in range(1, n + 1))
    arrays = []
    for _ in range(rng.randint(1, 3)):
        arr = list(range(n))
        rng.shuffle(arr)
        arrays.append(arr)
    grp = PermGroup.from_generators([Permutation(dom, [dom[i] for i in arr]) for arr in arrays],
                                    dom)
    oracle = SympyGroup([SympyPermutation(arr) for arr in arrays])
    assert grp.order == oracle.order()
    assert {p.images for p in grp.elements} == {
        tuple(dom[i] for i in q.array_form) for q in oracle.generate()}
    # Membership is a sift through the chain: it must agree with sympy on
    # every permutation of the domain.
    for img in itertools.permutations(range(n)):
        p = Permutation(dom, [dom[i] for i in img])
        assert (p in grp) == oracle.contains(SympyPermutation(list(img)))


def _span(gens, ident):
    """Closure of ``gens`` by breadth-first search over products."""
    span, todo = {ident}, [ident]
    while todo:
        x = todo.pop()
        for s in gens:
            y = s * x
            if y not in span:
                span.add(y)
                todo.append(y)
    return span


@pytest.mark.parametrize("seed", range(24))
def test_canonical_generators_are_the_greedy_scan(seed):
    # Reference: scan the elements in rank order and take each one outside
    # the span of the generators taken so far.
    rng = random.Random(100 + seed)
    n = rng.randint(1, 6)
    dom = tuple(str(i) for i in range(1, n + 1))
    gens = []
    for _ in range(rng.randint(1, 3)):
        arr = list(dom)
        rng.shuffle(arr)
        gens.append(Permutation(dom, arr))
    grp = PermGroup.from_generators(gens, dom)
    ident = Permutation.identity(dom)
    expected: list[Permutation] = []
    span = {ident}
    for p in sorted(_span(gens, ident), key=lambda p: [int(v) for v in p.images]):
        if p not in span:
            expected.append(p)
            span = _span(expected, ident)
    assert list(grp.generators) == expected
    assert list(grp.sorted_elements) == sorted(
        span, key=lambda p: [int(v) for v in p.images])
