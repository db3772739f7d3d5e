"""Automorphism groups of colored digraphs.

The search backtracks over an equitable refinement of the vertex set: cells
start from an initial cell list (one per color and class size, or per
class size alone when color-switching maps are wanted), then split
repeatedly on the multiset of neighbor cells, read as one popcount per
cell, until stable.
Automorphisms map cells to themselves, so the candidate images of a vertex
are one mask per search node: its own cell, less the images used, cut by
the neighbor masks of its placed neighbors' images. The search works on the
graph's vertex ranks and neighbor masks, the numbering ``perms`` shares,
from start to end.
Vertices are assigned in connectivity order (after McKay & Piperno, "Practical
graph isomorphism, II", 2014): the least vertex by (cell size, cell id,
rank), then always the least unplaced neighbor of a placed vertex, so each
choice is checked against its neighbors' images at once and the choices in
disjoint parts are not multiplied together.

That order is also the base of the search, which looks for a strong
generating set rather than for every element (Leon, "Permutation group
algorithms based on partitions, I", 1991): level by level from the last base
point to the first, one automorphism per new orbit point, so a group of any
order costs a few leaves per level. The orbits of the generators found so
far are rank masks, merged at each leaf. The group keeps those generators,
the order their orbit lengths multiply to and the merged orbits; its
stabilizer chain is built from them only when something reads it (see
``perms``).

Both groups take the paper's structure as their route: the product Gamma
of the symmetric groups on the twin classes is normal in the group, with
quotient the automorphisms of the twin quotient q that keep class size
(and, for Aut_I, color, with the classes split by color). So only q is
searched, and the stats and the 64-vertex search cap count q (q is the
graph itself when it has no twins); when a chain is read, Gamma's is
written down and the lifts of q's generators are adjoined to it. The graph
itself is capped at 128 vertices, which bounds that chain and
``canonical_gamma``'s; both read ``class_masks``, one pass per graph.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

from .digraph import ColoredDigraph, bits, class_masks, low_bit
from .errors import SizeCapError
from .perms import PermGroup

__all__ = [
    "SearchStats",
    "aut_color_preserving",
    "aut_full",
    "canonical_gamma",
]

DEFAULT_VERTEX_CAP = 64
# Any stabilizer chain on n points holds at most n(n+1)/2 rank tuples of
# length n, and Gamma_I's written chain alone reaches n^3/4 on an edgeless
# graph; 128 vertices keep that near a million ranks. canonical_gamma's chain
# may hold as many ranks as the edgeless 128-vertex graph's, C(128, 2) * 128.
DEFAULT_LIFT_CAP = 2 * DEFAULT_VERTEX_CAP
_GAMMA_RANK_CAP = math.comb(DEFAULT_LIFT_CAP, 2) * DEFAULT_LIFT_CAP


# -- equitable refinement -----------------------------------------------------


def _refine(g: ColoredDigraph, cells: list[int], stats: SearchStats) -> list[int]:
    """Split cells on (cell, sorted neighbor-cell multisets) until stable.

    ``cells[v]`` is the cell id of rank v. Cell ids are assigned by sorting
    the signatures, so they are canonical for the graph and the initial
    coloring. A neighbor-cell multiset is read as one popcount per cell, and
    written as each cell id repeated that many times, in ascending cell id:
    the sorted tuple of the neighbors' cells. A singleton cell cannot split,
    so its signature is the cell alone: it is the only signature starting
    with that cell, so it sorts to the same place. Each pass counts as one
    round.
    """
    while True:
        stats.refinement_rounds += 1
        members = dict.fromkeys(sorted(set(cells)), 0)
        for v, c in enumerate(cells):
            members[c] |= 1 << v
        ids = [((c,), m) for c, m in members.items()]  # (the 1-tuple of a cell id, its mask)
        sigs = [(c,) if members[c].bit_count() == 1 else
                (c, sum([t * (o & m).bit_count() for t, m in ids if o & m], ()),
                 sum([t * (i & m).bit_count() for t, m in ids if i & m], ()))
                for c, o, i in zip(cells, g.out_masks, g.in_masks)]
        fresh = {s: k for k, s in enumerate(sorted(set(sigs)))}
        cells = [fresh[s] for s in sigs]
        if len(fresh) == len(members):
            return cells


@dataclass
class SearchStats:
    """Counts from one automorphism search.

    A node is one assignment the search visits below a fixed base prefix; a
    leaf is a complete assignment, that is, a strong generator; a dead end is
    a partial assignment that no candidate image extends. The base is the
    assignment order cut after its last point with an orbit longer than 1,
    and ``orbit_lengths`` are its fundamental orbit lengths, whose product is
    the order of the group searched: both groups search the twin quotient q,
    which is the graph itself when it has no twins, and the lengths multiply
    to |Aut(q)|. A refinement round is one pass of the equitable refinement.
    ``classes`` counts the twin classes q is built from (split by color for
    the color-preserving group) and ``class_product`` is prod |C|!, the
    order of the group that permutes twins within their classes.
    """

    nodes: int = 0
    leaves: int = 0
    dead_ends: int = 0
    base_length: int = 0
    orbit_lengths: tuple[int, ...] = ()
    refinement_rounds: int = 0
    classes: int = 0
    class_product: int = 1


def _assignment_order(g: ColoredDigraph, cells: list[int]) -> list[int]:
    """Ranks in the order the search assigns them.

    Each vertex minimises (cell size, cell id, rank) among the unplaced
    vertices adjacent to a placed one; when a component is used up, the next
    vertex is the minimum over all unplaced vertices. Choices in disjoint
    parts then stay apart instead of multiplying out, and every assigned
    vertex after the first of its component is constrained by a neighbor.
    """
    size = Counter(cells)
    key = [(size[c], c, v) for v, c in enumerate(cells)]
    order: list[int] = []
    placed = 0
    for start in sorted(key):
        frontier = [start]
        while frontier:
            v = heapq.heappop(frontier)[2]
            if placed >> v & 1:
                continue
            placed |= 1 << v
            order.append(v)
            for w in bits((g.out_masks[v] | g.in_masks[v]) & ~placed):
                heapq.heappush(frontier, key[w])
    return order


def _color_cells(g: ColoredDigraph) -> list[int]:
    """The color classes as initial cells: 0 for U, 1 for W."""
    return [0 if g.u_mask >> v & 1 else 1 for v in range(g.n_vertices)]


def _search_automorphisms(g: ColoredDigraph, cells: list[int], stats: SearchStats
                          ) -> tuple[list[tuple[int, ...]], int, tuple[int, ...]]:
    """Strong generators (rank tuples), order and orbit masks of the automorphisms keeping
    each cell.

    ``cells[v]`` is the initial cell id of rank v; the search refines them
    first, which costs one round when they are already equitable, and ends
    there when every refined cell is a single vertex.

    Vertices are numbered by token rank, and the assignment order is the base
    v_0..v_{n-1}; at depth k the placed vertices are exactly v_0..v_{k-1}, so
    each position keeps its cell mask and its placed out- and in-neighbors.
    The images of v_k that fit are one mask: the cell less the used images,
    cut to the in-masks of the out-neighbors' images and the out-masks of the
    in-neighbors' images, keeping c only when c's out- and in-neighbors among
    the used images are exactly those images. They are tried least first.

    Going from level n-1 down to 0, the generators S found so far all fix
    v_0..v_{i-1}. A fitting image c of v_i, with v_0..v_{i-1} fixed, is tried
    only when it is not in v_i's S-orbit and not in an S-orbit already found
    dead; the search then looks for one leaf that fixes v_0..v_{i-1} and maps
    v_i to c. A leaf joins S and merges the S-orbits it joins, which are kept
    as masks; without one, c's S-orbit is dead. S is then a strong generating
    set, and v_i's S-orbit at the end of level i is its fundamental orbit.
    The S-orbits at the end are the group's orbits, returned least rank first
    as ``PermGroup.orbit_masks`` lists them.
    """
    n = g.n_vertices
    if n > DEFAULT_VERTEX_CAP:
        raise SizeCapError(
            f"automorphism search capped at {DEFAULT_VERTEX_CAP} vertices, got {n}")
    cells = _refine(g, cells, stats)
    cell_mask = dict.fromkeys(cells, 0)
    for v, c in enumerate(cells):
        cell_mask[c] |= 1 << v
    if len(cell_mask) == n:
        stats.base_length, stats.orbit_lengths = 0, ()
        return [], 1, tuple(1 << v for v in range(n))
    base = _assignment_order(g, cells)
    out_mask, in_mask = g.out_masks, g.in_masks
    # Position k's cell mask, and its out- and in-neighbors placed before it.
    shape, placed = [], 0
    for v in base:
        shape.append((cell_mask[cells[v]], list(bits(out_mask[v] & placed)),
                      list(bits(in_mask[v] & placed))))
        placed |= 1 << v
    image = list(range(n))

    def fitting(k: int, used: int) -> int:
        # The images of base[k] that extend the images of base[:k], whose mask is ``used``.
        cell, outs, ins = shape[k]
        cand, out_images, in_images = cell & ~used, 0, 0
        for b in outs:
            a = image[b]
            cand &= in_mask[a]
            out_images |= 1 << a
        for b in ins:
            a = image[b]
            cand &= out_mask[a]
            in_images |= 1 << a
        fit = cand
        while cand:
            low = cand & -cand
            c = low.bit_length() - 1
            if out_mask[c] & used != out_images or in_mask[c] & used != in_images:
                fit ^= low
            cand ^= low
        return fit

    def extend(k: int, used: int) -> bool:
        stats.nodes += 1
        if k == n:
            stats.leaves += 1
            return True
        fit = fitting(k, used)
        if not fit:
            stats.dead_ends += 1
        v = base[k]
        while fit:
            low = fit & -fit
            image[v] = low.bit_length() - 1
            if extend(k + 1, used | low):
                return True
            fit ^= low
        return False

    strong: list[tuple[int, ...]] = []
    orbit = [1 << v for v in range(n)]  # orbit[a]: a's S-orbit
    lengths = [1] * n
    prefix = placed
    for i in range(n - 1, -1, -1):
        v = base[i]
        prefix ^= 1 << v  # v_0..v_{i-1}, each its own image from here on
        todo, dead = fitting(i, prefix), 0
        while todo := todo & ~orbit[v] & ~dead:
            low = todo & -todo
            c = image[v] = low.bit_length() - 1
            if not extend(i + 1, prefix | low):
                dead |= orbit[c]
                continue
            strong.append(tuple(image))
            for a in base[i:]:
                b = image[a]
                if not orbit[a] >> b & 1:
                    merged = orbit[a] | orbit[b]
                    for y in bits(merged):
                        orbit[y] = merged
        lengths[i] = orbit[v].bit_count()

    stats.base_length = max((i + 1 for i, size in enumerate(lengths) if size > 1), default=0)
    stats.orbit_lengths = tuple(lengths[:stats.base_length])
    return strong, math.prod(lengths), tuple(dict.fromkeys(orbit))


def _aut_by_twins(g: ColoredDigraph, classes: tuple[int, ...], cells: list[int], group: str,
                  stats: SearchStats | None) -> PermGroup:
    """The automorphisms of g that keep each cell, through the twin quotient q = g/C.

    ``classes`` are rank masks, least rank first, of twin classes of g, and
    ``cells[k]`` is class k's initial cell. Any automorphism maps the classes
    onto classes of the same size and cell, so Gamma = prod Sym(C) is normal
    in the group and the group over Gamma is the automorphisms of q keeping
    each cell. So only q is searched; each strong generator of q's group
    lifts to g by mapping the members of class k, in rank order, to those of
    its image. The group is generated by the lifts and the transpositions of
    consecutive class members, with the order |Aut(q)| prod |C|!; its chain,
    on first read, adjoins the lifts to Gamma's, which is written down. When
    every class is a single vertex, q is g itself, and g is searched from
    the cells with no lift and no written chain. Otherwise q's vertex k is
    named by class k's least token.
    When ``stats`` is given, the search adds its counts to it and sets the
    base and orbit fields, which describe q's group, and the twin fields.
    ``group`` names the group in the message that refuses g past
    ``DEFAULT_LIFT_CAP`` vertices; the search caps q at ``DEFAULT_VERTEX_CAP``.
    """
    n = g.n_vertices
    if n > DEFAULT_LIFT_CAP:
        raise SizeCapError(f"{group} group capped at {DEFAULT_LIFT_CAP} vertices, got {n}")
    stats = stats or SearchStats()
    stats.classes, stats.class_product = len(classes), 1
    if len(classes) == n:  # g is thin: every class is one vertex, so q is g
        strong, order, orbits = _search_automorphisms(g, cells, stats)
        return PermGroup._from_ranks(g.sorted_vertices, strong, order, orbits=orbits)
    stats.class_product = math.prod(math.factorial(m.bit_count()) for m in classes)
    members = [list(bits(m)) for m in classes]
    class_of = {a: k for k, xs in enumerate(members) for a in xs}
    # Twins share their neighbors, so one member's out-mask gives its class's;
    # the set keeps each neighboring class once.
    q_out = [sum({1 << class_of[b] for b in bits(g.out_masks[xs[0]])}) for xs in members]
    q_u = sum(1 << k for k, m in enumerate(classes) if m & g.u_mask)
    q = ColoredDigraph._from_masks(tuple(g.sorted_vertices[xs[0]] for xs in members), q_u, q_out)
    strong, q_order, q_orbits = _search_automorphisms(q, cells, stats)
    lifts = []
    for x in strong:
        image = [0] * n
        for here, there in zip(members, map(members.__getitem__, x)):
            for a, b in zip(here, there):
                image[a] = b
        lifts.append(tuple(image))
    # An orbit is the union of the classes over one q-orbit; the classes are
    # ordered by least rank, so the unions are too.
    orbits = tuple(sum(map(classes.__getitem__, bits(m))) for m in q_orbits)
    return PermGroup._from_ranks(g.sorted_vertices, lifts, q_order * stats.class_product,
                                 classes, orbits)


def aut_color_preserving(g: ColoredDigraph, stats: SearchStats | None = None) -> PermGroup:
    """The full group of color-preserving automorphisms.

    With C the equivalence classes split by color, Gamma_I = prod Sym(C) is
    normal in Aut_I and Aut_I / Gamma_I is Aut_w(q), the automorphisms of
    the twin quotient q = g/C that keep color and class size: one
    ``_aut_by_twins`` call, with one cell per (color, class size). g itself
    is searched when no two vertices of one color are twins.
    """
    n, u, classes = g.n_vertices, g.u_mask, class_masks(g)
    if len(classes) < n:  # a thin g's classes are single vertices, split already
        classes = tuple(sorted((p for m in classes for p in (m & u, m & ~u) if p), key=low_bit))
    cells = [(0 if m & u else n) + m.bit_count() for m in classes]  # (color, size)
    return _aut_by_twins(g, classes, cells, "color-preserving", stats)


def aut_full(g: ColoredDigraph, stats: SearchStats | None = None) -> PermGroup:
    """All digraph automorphisms, color-preserving or not.

    Any automorphism maps twin classes onto twin classes of the same size,
    so this is one ``_aut_by_twins`` call on ``class_masks(g)``, with one
    cell per class size and no color: on disconnected graphs an automorphism
    may preserve colors on one component and switch them on another, and
    the isolated vertices of both colors are one class. On a connected graph
    every automorphism maps U onto U or onto W, since all edges cross U-W
    and a connected bipartite graph has one bipartition, so there the
    color-preserving subgroup has index 1 or 2.
    """
    classes = class_masks(g)
    return _aut_by_twins(g, classes, [m.bit_count() for m in classes], "full automorphism", stats)


def canonical_gamma(g: ColoredDigraph) -> PermGroup:
    """The product of full symmetric groups, one per equivalence class.

    It is generated by the transpositions of consecutive class members, and
    its stabilizer chain, when read, is written down, not computed; the
    order is the product of the class factorials and the orbits are exactly
    the classes.
    When isolated vertices of both colors share the isolated class, some
    elements swap vertices across colors; they are still automorphisms.
    The cap is checked here, when the group is built, against the length the
    chain would have if something read it: a group whose chain would be
    longer than the edgeless ``DEFAULT_LIFT_CAP``-vertex graph's is refused,
    even by callers that read only its orbits.
    """
    masks = class_masks(g)
    ranks = sum(math.comb(m.bit_count(), 2) for m in masks) * g.n_vertices
    if ranks > _GAMMA_RANK_CAP:
        raise SizeCapError(
            f"class product group capped at {_GAMMA_RANK_CAP} chain ranks, got {ranks}")
    order = math.prod(math.factorial(m.bit_count()) for m in masks)
    return PermGroup._from_ranks(g.sorted_vertices, (), order, masks)
