"""Permutation algebra, text format, and group closure."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from qbmg import Permutation, QbmgError, format_permutation
from qbmg.errors import SizeCapError
from qbmg.perms import PermGroup, _compose, _symmetric_chain, canonical_generators

from tests.oracles import greedy_descent_generators


DOM = ("1", "2", "3", "4")


def test_identity_and_apply():
    p = Permutation.identity(DOM)
    assert p == Permutation(DOM, DOM)
    assert p("3") == "3"
    with pytest.raises(QbmgError):
        p("9")


def test_from_mapping_fixes_unlisted():
    p = Permutation.from_mapping({"1": "2", "2": "1"}, DOM)
    assert p("3") == "3" and p("4") == "4" and p("1") == "2"


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


@pytest.mark.parametrize("dom", [(), ("1",)], ids=["empty", "one-vertex"])
def test_compose_on_domains_too_small_for_a_gather(dom):
    # A gather of one rank returns a rank, not a tuple, and of none fails.
    e = Permutation.identity(dom)
    assert (e * e).ranks == e.ranks == tuple(range(len(dom)))


def test_inverse():
    p = Permutation.from_mapping({"1": "2", "2": "3", "3": "1"}, DOM)
    assert p * p.inverse() == Permutation.identity(DOM)
    assert p.inverse()("2") == "1"


def test_cycle_string():
    p = Permutation.from_mapping({"1": "2", "2": "1", "3": "4", "4": "3"}, DOM)
    assert p.cycle_string() == "(1 2)(3 4)"
    assert Permutation.identity(DOM).cycle_string() == "()"


def test_format_permutation_lists_the_moved_points():
    p = Permutation.from_mapping({"1": "3", "3": "1"}, DOM)
    assert format_permutation(p) == "p: 1->3 3->1"


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
    assert grp.orbit_sets() == sorted(
        (frozenset(dom[i] for i in o) for o in oracle.orbits()), key=lambda o: min(map(int, o)))
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=12), st.randoms(use_true_random=False))
def test_product_of_symmetric_groups_lists_its_transpositions(labels, rng):
    # Point i lies in block labels[i]; the blocks arrive in any order. The
    # group's generating ranks are then its canonical generators, read with
    # no chain, and they are what the greedy descent finds on the written chain.
    n = len(labels)
    blocks = [sum(1 << i for i, k in enumerate(labels) if k == label) for label in set(labels)]
    rng.shuffle(blocks)
    dom = tuple(str(i) for i in range(1, n + 1))
    grp = PermGroup._from_ranks(dom, (), None, blocks)
    ranks = [p.ranks for p in grp.generators]
    assert grp._levels is None
    levels = _symmetric_chain(n, blocks)[0]
    assert ranks == canonical_generators(levels) == greedy_descent_generators(levels)
    assert [min(i for i, x in enumerate(r) if x != i) for r in ranks] == sorted(
        (i for i, k in enumerate(labels) if k in labels[i + 1:]), reverse=True)


def test_a_chain_from_the_order_keeps_only_the_inverses_its_sifts_read():
    # Sym(12) from a transposition and a 12-cycle, its order given: the two
    # generators leave the chain incomplete, random elements complete it, and
    # fewer inverses are kept than there are representatives. Each
    # representative fixes the points before its level and maps the level's
    # point to its own, and each inverse, kept or computed on read, inverts it.
    n = 12
    ident = tuple(range(n))
    swap, cycle = (1, 0, *ident[2:]), (*ident[1:], 0)
    dom = tuple(str(i) for i in range(1, n + 1))
    levels = PermGroup._from_ranks(dom, (swap, cycle), math.factorial(n)).levels
    assert [len(level) for level in levels] == list(range(n, 0, -1))
    assert sum(len(level.inverses) for level in levels) < sum(map(len, levels))
    for i, level in enumerate(levels):
        for b, u in level.items():
            assert u[:i] == ident[:i] and u[i] == b
            assert _compose(level.inverse(b), u) == ident
