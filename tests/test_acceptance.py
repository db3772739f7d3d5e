"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Three assertions in criteria 4, 5, and 6 encode structural claims about these
graph families that are provably false; each is kept exactly as stated, fails
with a pinned minimal counterexample, and carries an inline proof sketch. All
other assertions pass. See the comments at the failing asserts.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from qbmg import (
    Partition,
    PermGroup,
    Permutation,
    aut_color_preserving,
    composite_maps,
    is_2qbmg,
    is_thin,
    axiom_report,
    is_automorphism,
    layered,
    lifted_group,
    random_layered_spec,
    token_key,
)
from qbmg.verify import run_suite

from tests import refdata
from tests.oracles import brute_force_color_preserving


def _report(n: int, description: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\n{status} criterion {n}: {description} [{elapsed:.2f}s / {budget:.0f}s budget]")


def test_criterion_1_fixture_recognition():
    t0 = time.perf_counter()
    ok = (
        is_2qbmg(refdata.BLOWUP_BASE)
        and is_2qbmg(refdata.BLOWUP_ONCE)
        and is_2qbmg(refdata.BLOWUP_TWICE)
        and not is_2qbmg(refdata.SIMULTANEOUS_DUPLICATION)
    )
    elapsed = time.perf_counter() - t0
    _report(1, "duplication family recognized, simultaneous variant rejected",
            ok, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_complete_symmetric_groups():
    t0 = time.perf_counter()
    ok = True
    for r in range(1, 5):
        for s in range(1, 5):
            g = refdata.complete_symmetric(r, s)
            grp = aut_color_preserving(g)
            ok &= grp.order == math.factorial(r) * math.factorial(s)
            # Generated by transpositions inside each color class.
            dom = tuple(sorted(g.vertices, key=token_key))
            gens = []
            for cls in (sorted(g.color_u, key=token_key), sorted(g.color_w, key=token_key)):
                for i in range(len(cls) - 1):
                    gens.append(Permutation.from_mapping(
                        {cls[i]: cls[i + 1], cls[i + 1]: cls[i]}, dom))
            if gens:
                ok &= PermGroup.from_generators(gens, dom).elements == grp.elements
            else:
                ok &= grp.order == 1
    elapsed = time.perf_counter() - t0
    _report(2, "complete symmetric graphs have the class-transposition groups",
            ok, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_3_two_layer_reference():
    t0 = time.perf_counter()
    spec = refdata.TWO_LAYER_M4_SPEC
    g = layered(spec)
    report = axiom_report(g)
    lifted = lifted_group(spec)
    grp = aut_color_preserving(g)
    orbit_blocks = set(Partition.from_blocks(grp.orbit_sets()).blocks)
    ok = (
        report.is_2qbmg and report.proper and is_thin(g)
        and lifted.order == 24
        and grp.elements == lifted.elements
        and orbit_blocks == {
            frozenset({"1", "2", "3", "4"}), frozenset({"5", "6", "7", "8"}),
            frozenset({"9", "10", "11", "12"}), frozenset({"13", "14", "15", "16"}),
        }
    )
    elapsed = time.perf_counter() - t0
    _report(3, "two-layer reference: thin proper member, group is the lifted "
               "symmetric group of order 24 with the four class orbits",
            ok, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_4_three_layer_reference():
    t0 = time.perf_counter()
    spec = refdata.LAYERED_S3M3_SPEC
    f, g_maps = composite_maps(spec)
    assert f[(1, 2)].as_dict() == refdata.LAYERED_S3M3_F12
    assert f[(2, 3)].as_dict() == refdata.LAYERED_S3M3_F23
    assert f[(1, 3)].as_dict() == refdata.LAYERED_S3M3_F13
    assert g_maps[(1, 3)].as_dict() == refdata.LAYERED_S3M3_G13

    g = layered(spec)
    report = axiom_report(g)
    assert g.n_vertices == 18
    assert report.is_2qbmg and report.proper and is_thin(g)

    lifted = lifted_group(spec)
    assert lifted.order == 6
    for p in lifted.sorted_elements:
        assert is_automorphism(g, p, color_preserving=True)
    aut = aut_color_preserving(g)
    assert lifted.elements <= aut.elements

    proper_subgroup = aut.order > 6
    elapsed = time.perf_counter() - t0
    _report(4, "3-layer reference: composites and lifted group verified; "
               f"lifted group proper in the full group (|Aut_I| = {aut.order})",
            proper_subgroup, elapsed, 10.0)
    assert elapsed < 10.0
    # Unattainable: the color-preserving group of every layered instance is
    # exactly the lifted group. Degrees separate the 2s classes (a vertex of
    # U_i has out-degree s-i+1 and in-degree i-1, dually on the W side), and
    # once the classes are fixed setwise the diagonal and step tables force
    # the whole map from its restriction to the first class. So no layered
    # instance has |Aut_I| > m!. Kept as stated; fails by design.
    assert proper_subgroup, (
        "the lifted group of order 6 is the whole color-preserving group; "
        "a strictly larger group is impossible for this family")


def test_criterion_5_diamond_reference():
    t0 = time.perf_counter()
    from qbmg import n2_trivial_layer
    g = n2_trivial_layer(4, refdata.DIAMOND_M4_ALPHA, refdata.DIAMOND_M4_BETA,
                         refdata.DIAMOND_M4_GAMMA)
    report = axiom_report(g)
    assert report.is_2qbmg and report.n2_trivial
    grp = aut_color_preserving(g)
    assert grp.order == 384
    assert set(Partition.from_blocks(grp.orbit_sets()).blocks) == {
        frozenset({"1", "2", "3", "4"}),
        frozenset({"13", "14", "15", "16"}),
        frozenset({"5", "6", "7", "8", "9", "10", "11", "12"}),
    }
    thin = is_thin(g)
    elapsed = time.perf_counter() - t0
    _report(5, "diamond reference: vacuously bi-transitive member with group "
               f"order 384 and orbits U1, U2, W1|W2; thin = {thin}",
            thin, elapsed, 10.0)
    assert elapsed < 10.0
    # Unattainable: the two middle vertices of each diamond have the same
    # unique source (in-neighbor) and the same unique sink (out-neighbor) by
    # the definition of the chord map, so they are always equivalent and no
    # instance of this family is thin. Thinness is also incompatible with
    # the orbit data: a thin member with an 8-vertex middle orbit feeding a
    # 4-vertex sink orbit would need disjoint stars with fan-out 4/8 by the
    # thin structure statement. Kept as stated; fails by design.
    assert thin, "the diamond family is never thin: each diamond's two middles are equivalent"


def test_criterion_6_theorem_suite_over_corpus(corpus, enumerated_pool):
    t0 = time.perf_counter()
    graphs = list(corpus.values()) + enumerated_pool
    assert len(graphs) >= 200
    failures: Counter[str] = Counter()
    examples: dict[str, str] = {}
    for g in graphs:
        for result in run_suite(g):
            if not result.passed:
                failures[result.name] += 1
                examples.setdefault(result.name, result.detail)
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(6, f"theorem suite over {len(graphs)} graphs: "
               + (f"failures {dict(failures)}" if failures else "all checks passed"),
            ok, elapsed, 300.0)
    for name, detail in examples.items():
        print(f"  first failing detail for {name}: {detail}")
    assert elapsed < 300.0
    # Unattainable in one clause: the claimed identity between a member's
    # color-preserving group and its UW-orientation's is false. The smallest
    # counterexample is 1->{2,3} with 2->1: a thin member whose symmetric
    # edges form a matching, with a trivial group, whose orientation is the
    # out-star where (2 3) acts. One containment always holds; the other
    # does not. Every other property in the suite passes on every graph.
    # Kept as stated; fails by design.
    assert ok, f"suite failures: {dict(failures)}"


def test_criterion_7_oracle_equivalence(enumerated_pool):
    t0 = time.perf_counter()
    mismatches = 0
    for g in enumerated_pool:
        if aut_color_preserving(g).elements != brute_force_color_preserving(g):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    _report(7, f"search equals brute force on all {len(enumerated_pool)} pool graphs",
            ok, elapsed, 120.0)
    assert ok
    assert elapsed < 120.0


def test_criterion_8_existence_of_symmetric_members():
    t0 = time.perf_counter()
    ok = True
    for m in (2, 3, 4):
        for s in (2, 3, 4):
            for seed in (1, 2, 3):
                spec = random_layered_spec(s, m, seed)
                g = layered(spec)
                report = axiom_report(g)
                ok &= g.n_vertices == 2 * m * s
                ok &= report.is_2qbmg and report.proper and is_thin(g)
                grp = lifted_group(spec)
                ok &= grp.order == math.factorial(m)
                ok &= all(is_automorphism(g, p, color_preserving=True)
                          for p in grp.sorted_elements)
    elapsed = time.perf_counter() - t0
    _report(8, "for every m, s in {2,3,4}: a proper thin member on 2ms vertices "
               "whose group contains the symmetric group on m letters",
            ok, elapsed, 60.0)
    assert ok
    assert elapsed < 60.0
