"""Reference instances shared across the test suite.

The two-layer, diamond, and 3-layer tables are hand-checked reference data;
the expected group orders, orbit structures, and composite maps asserted in
the tests were computed independently with the brute-force oracles in
``tests.oracles`` before being frozen here.
"""

from __future__ import annotations

from qbmg import BijectionTable, ColoredDigraph, LayeredSpec

# -- blow-up family -----------------------------------------------------------

BLOWUP_BASE = ColoredDigraph(
    {"1", "3", "5"}, {"2", "4"},
    [("1", "2"), ("2", "1"), ("3", "2"), ("3", "4"), ("4", "5")],
)

# One duplication of vertex 1 (as 6), then of vertex 2 (as 7).
BLOWUP_ONCE = ColoredDigraph(
    {"1", "3", "5", "6"}, {"2", "4"},
    list(BLOWUP_BASE.edges) + [("6", "2"), ("2", "6")],
)
BLOWUP_TWICE = ColoredDigraph(
    {"1", "3", "5", "6"}, {"2", "4", "7"},
    list(BLOWUP_ONCE.edges)
    + [("7", "1"), ("7", "6"), ("1", "7"), ("3", "7"), ("6", "7")],
)

# Duplicating 1 and 2 at the same time misses the edges between the two new
# vertices; the resulting graph is not a 2-qBMG.
SIMULTANEOUS_DUPLICATION = ColoredDigraph(
    {"1", "3", "5", "6"}, {"2", "4", "7"},
    list(BLOWUP_BASE.edges)
    + [("6", "2"), ("2", "6"), ("7", "1"), ("1", "7"), ("3", "7")],
)

# -- two-layer reference instance, m = 4 --------------------------------------
# Classes U1={1..4}, U2={5..8}, W1={9..12}, W2={13..16}. Its color-preserving
# group is exactly the lifted symmetric group on U1, of order 24. The tables
# are alpha = f[1][1], gamma = f[2][2] and beta = g[1][2].

TWO_LAYER_M4_SPEC = LayeredSpec(
    2, 4,
    (BijectionTable.from_mapping({"1": "10", "2": "9", "3": "12", "4": "11"}),
     BijectionTable.from_mapping({"5": "14", "6": "13", "7": "15", "8": "16"})),
    (BijectionTable.from_mapping({"9": "8", "10": "6", "11": "7", "12": "5"}),),
)

# -- diamond (N2-trivial) reference instance, m = 4 ---------------------------
# Classes U1={1..4}, W1={5..8}, W2={9..12}, U2={13..16}. The middle table is
# order-paired onto W1 = {5..8}; any invertible choice produces four disjoint
# source/two-middles/sink diamonds, with group order 384 and three orbits
# U1, U2, W1 | W2.

DIAMOND_M4_ALPHA = BijectionTable.from_mapping({"1": "6", "2": "5", "3": "8", "4": "7"})
DIAMOND_M4_BETA = BijectionTable.from_mapping({"5": "13", "6": "14", "7": "15", "8": "16"})
DIAMOND_M4_GAMMA = BijectionTable.from_mapping({"9": "13", "10": "14", "11": "15", "12": "16"})

# -- 3-layer reference instance, s = m = 3 ------------------------------------
# Classes U1={1,2,3}, U2={4,5,6}, U3={7,8,9}, W1={10,11,12}, W2={13,14,15},
# W3={16,17,18}.

LAYERED_S3M3_SPEC = LayeredSpec(
    3, 3,
    (
        BijectionTable.from_mapping({"1": "11", "2": "12", "3": "10"}),
        BijectionTable.from_mapping({"4": "13", "5": "15", "6": "14"}),
        BijectionTable.from_mapping({"7": "16", "8": "18", "9": "17"}),
    ),
    (
        BijectionTable.from_mapping({"10": "4", "11": "6", "12": "5"}),
        BijectionTable.from_mapping({"13": "8", "14": "9", "15": "7"}),
    ),
)

# Expected composite maps for the 3-layer instance.
LAYERED_S3M3_F12 = {"1": "14", "2": "15", "3": "13"}
LAYERED_S3M3_F23 = {"4": "18", "5": "16", "6": "17"}
LAYERED_S3M3_F13 = {"1": "17", "2": "16", "3": "18"}
LAYERED_S3M3_G13 = {"10": "8", "11": "9", "12": "7"}


def complete_symmetric(r: int, s: int) -> ColoredDigraph:
    """K_{r,s} with every edge symmetric; classes 1..r and r+1..r+s."""
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    edges = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    return ColoredDigraph(u, w, edges)


# -- reconstructed quotient demonstrations ------------------------------------

# A 2-qBMG whose quotient by the orbit partition {1},{8},{2,3,4},{5,6,7} of the
# order-3 rotation (2 3 4)(5 6 7) is the 4-vertex chain-with-chord
# q_1 -> q_8 -> q_2 -> q_5 plus q_1 -> q_5.
QUOTIENT_CHAIN = ColoredDigraph(
    {"1", "2", "3", "4"}, {"5", "6", "7", "8"},
    [("1", "8"), ("8", "2"), ("8", "3"), ("8", "4"),
     ("2", "5"), ("3", "6"), ("4", "7"),
     ("1", "5"), ("1", "6"), ("1", "7")],
)

# A 2-qBMG with color-preserving group of order 36 and orbits {1}, {8},
# {2,3,4}, {5,6,7}; its quotient by those orbits has edges q_1->q_8,
# q_1->q_5, q_2->q_8, q_5->q_2 and a trivial color-preserving group.
STAR_PRODUCT = ColoredDigraph(
    {"1", "2", "3", "4"}, {"5", "6", "7", "8"},
    [("1", "8"), ("1", "5"), ("1", "6"), ("1", "7"),
     ("2", "8"), ("3", "8"), ("4", "8")]
    + [(w, u) for w in ("5", "6", "7") for u in ("2", "3", "4")],
)

# A 2-qBMG with a hand-picked non-orbit partition whose quotient breaks
# bi-transitivity: blocks {1},{2},{3},{4},{5 6}.
NONORBIT_BASE = ColoredDigraph(
    {"1", "2", "3"}, {"4", "5", "6"},
    [("4", "1"), ("4", "2"), ("2", "5"), ("6", "3")],
)
NONORBIT_BLOCKS = (("1",), ("2",), ("3",), ("4",), ("5", "6"))

# -- a member past the orientation cap ----------------------------------------

# Thirteen connected members, pairwise non-isomorphic and each without a
# nontrivial color-preserving automorphism: a symmetric edge u0 <-> w0 plus
# the one-way edges listed ("u1w0" is u1 -> w0). Their disjoint union has a
# trivial Aut_I and a symmetric matching of 13 edges, so every one of its
# 2^13 orientations is its own orbit.
_RIGID_PIECES = (
    "", "u0w1", "u0w1 w2u0", "u1w0", "u1w0 u1w1", "u0w1 u1w0 u1w1",
    "u1w1 w2u0 w2u1", "u0w2 u1w0 u1w1 u1w2", "u0w1 u0w2 u1w1 w0u1 w2u1",
    "u1w0 w0u2", "u1w1 u2w0 u2w1", "u0w1 u1w0 u1w1 w0u2",
    "u0w1 u1w0 u1w1 u2w1 w0u2",
)
RIGID_MATCHING = ColoredDigraph(
    {f"{v}c{c}" for c, piece in enumerate(_RIGID_PIECES)
     for v in ("u0", *(e[i:i + 2] for e in piece.split() for i in (0, 2))) if v[0] == "u"},
    {f"{v}c{c}" for c, piece in enumerate(_RIGID_PIECES)
     for v in ("w0", *(e[i:i + 2] for e in piece.split() for i in (0, 2))) if v[0] == "w"},
    [(f"{e[:2]}c{c}", f"{e[2:]}c{c}") for c, piece in enumerate(_RIGID_PIECES)
     for e in ("u0w0", "w0u0", *piece.split())],
)

# Twelve copies of a member with no nontrivial color-preserving automorphism
# and two symmetric edges: u0 <-> w0, u1 <-> w1, u0 -> w1 and w0 -> u1.
# Aut_I permutes the copies (order 12!) and so moves symmetric edges two at
# a time, never just two. Copy c is u0 = c+1, u1 = c+13, w0 = c+25 and
# w1 = c+37, so all u0 <-> w0 edges come first in token order. Finding the
# least orientation of each of its 455 orbits then keeps up to C(12, 6)
# partial images a step, past the orientation check's image cap.
COPIED_PAIRS = ColoredDigraph(
    [str(c + k) for c in range(1, 13) for k in (0, 12)],
    [str(c + k) for c in range(1, 13) for k in (24, 36)],
    [e for c in range(1, 13) for e in (
        (str(c), str(c + 24)), (str(c + 24), str(c)), (str(c + 12), str(c + 36)),
        (str(c + 36), str(c + 12)), (str(c), str(c + 36)), (str(c + 24), str(c + 12)))],
)
