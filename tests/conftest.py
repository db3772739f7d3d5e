"""Shared fixtures: reference graphs and the session-wide corpus."""

from __future__ import annotations

import random

import pytest

from qbmg import (
    ColoredDigraph,
    blow_up,
    is_2qbmg,
    layered,
    n2_trivial_layer,
    random_layered_spec,
    token_key,
)
from qbmg.constructions import default_layered_spec, default_n2_trivial_tables

from tests import refdata
from tests.oracles import enumerate_bipartite_digraphs


@pytest.fixture(scope="session")
def named_fixtures() -> dict[str, ColoredDigraph]:
    """Hand-built 2-qBMGs used throughout the suite (all verified members)."""
    graphs = {
        "blowup_base": refdata.BLOWUP_BASE,
        "blowup_once": refdata.BLOWUP_ONCE,
        "blowup_twice": refdata.BLOWUP_TWICE,
        "two_layer_m4": layered(refdata.TWO_LAYER_M4_SPEC),
        "diamonds_m4": n2_trivial_layer(4, refdata.DIAMOND_M4_ALPHA,
                                        refdata.DIAMOND_M4_BETA, refdata.DIAMOND_M4_GAMMA),
        "layered_s3m3": layered(refdata.LAYERED_S3M3_SPEC),
        "quotient_chain": refdata.QUOTIENT_CHAIN,
        "star_product": refdata.STAR_PRODUCT,
        "nonorbit_base": refdata.NONORBIT_BASE,
        "empty": ColoredDigraph((), (), ()),
        "single_vertex": ColoredDigraph(("1",), (), ()),
        "single_edge": ColoredDigraph(("1",), ("2",), [("1", "2")]),
        "symmetric_edge": ColoredDigraph(("1",), ("2",), [("1", "2"), ("2", "1")]),
        "sym_matching_2x2": ColoredDigraph(
            ("1", "2"), ("3", "4"),
            [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2")]),
    }
    for r in range(1, 5):
        for s in range(1, 5):
            graphs[f"k{r}{s}"] = refdata.complete_symmetric(r, s)
    return graphs


def _family_instances() -> dict[str, ColoredDigraph]:
    graphs: dict[str, ColoredDigraph] = {}
    for m in range(1, 5):
        graphs[f"two_layer_m{m}_paired"] = layered(default_layered_spec(2, m))
        graphs[f"n2_trivial_m{m}_paired"] = n2_trivial_layer(m, *default_n2_trivial_tables(m))
    for s in range(2, 5):
        for m in range(1, 5):
            graphs[f"layered_s{s}m{m}_seed11"] = layered(random_layered_spec(s, m, seed=11))
    return graphs


@pytest.fixture(scope="session")
def family_instances() -> dict[str, ColoredDigraph]:
    return _family_instances()


@pytest.fixture(scope="session")
def corpus(named_fixtures, family_instances) -> dict[str, ColoredDigraph]:
    """Every 2-qBMG the theorem suite runs over: fixtures, families, their
    blow-ups and induced subgraphs, and the exhaustive small-graph pool."""
    graphs: dict[str, ColoredDigraph] = {}
    for name, g in {**named_fixtures, **family_instances}.items():
        if name == "nonorbit_base" or is_2qbmg(g):
            graphs[name] = g

    # Blow-ups: duplicate the least vertex, then the least of the other color.
    base_items = [(n, g) for n, g in graphs.items() if g.n_vertices and g.n_vertices <= 20]
    for name, g in base_items:
        v1 = min(g.vertices, key=token_key)
        b1 = blow_up(g, v1, "b1")
        graphs[f"{name}_blown1"] = b1
        other = g.color_w if v1 in g.color_u else g.color_u
        if other:
            v2 = min(other, key=token_key)
            graphs[f"{name}_blown2"] = blow_up(b1, v2, "b2")

    # Induced subgraphs: seeded samples of half-size vertex subsets.
    rng = random.Random(2024)
    for name, g in base_items:
        verts = sorted(g.vertices, key=token_key)
        if len(verts) < 3:
            continue
        for k in range(2):
            sub = rng.sample(verts, max(2, len(verts) // 2))
            graphs[f"{name}_induced{k}"] = g.induced_subgraph(sub)
    return graphs


@pytest.fixture(scope="session")
def enumerated_pool() -> list[ColoredDigraph]:
    """All 2-qBMGs on fixed labeled classes with |U|, |W| <= 3 (18670 graphs)."""
    pool: list[ColoredDigraph] = []
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for g in enumerate_bipartite_digraphs(r, s):
                if is_2qbmg(g):
                    pool.append(g)
    return pool
