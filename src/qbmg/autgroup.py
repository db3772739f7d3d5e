"""Automorphism groups of colored digraphs.

The search backtracks over an equitable refinement of the vertex set: cells
start from the color classes (or from one cell when color-switching maps are
wanted), then split repeatedly on the multiset of neighbor cells until stable.
Automorphisms map cells to themselves, so candidate images are drawn from the
vertex's own cell and filtered by adjacency with the partial assignment.
Vertices are assigned in connectivity order (after McKay & Piperno, "Practical
graph isomorphism, II", 2014): the least vertex by (cell size, cell id,
token), then always the least unplaced neighbor of a placed vertex, so each
choice is checked against its neighbors' images at once and the choices in
disjoint parts are not multiplied together. All elements are enumerated;
orders beyond the element cap fail loudly.

The automorphism test itself, ``is_automorphism``, lives in ``perms``; it is
re-exported here under the same name.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .digraph import ColoredDigraph, token_key
from .errors import PreconditionError, QbmgError, SizeCapError
from .perms import DEFAULT_ELEMENT_CAP, PermGroup, Permutation, is_automorphism
from .quotients import Partition, equivalence_classes, gamma_quotient

__all__ = [
    "SearchStats",
    "is_automorphism",
    "aut_color_preserving",
    "aut_full",
    "orbits",
    "canonical_gamma",
    "is_normal",
    "inherited_group",
]

DEFAULT_VERTEX_CAP = 64


# -- equitable refinement -----------------------------------------------------


def _refine(g: ColoredDigraph, initial: dict[str, int]) -> dict[str, int]:
    """Split cells on (cell, sorted neighbor-cell multisets) until stable.

    Cell ids are assigned by sorting the signatures, so they are canonical for
    the graph and the initial coloring.
    """
    cells = dict(initial)
    n_cells = len(set(cells.values()))
    while True:
        sigs = {}
        for v in g.sorted_vertices:
            out_sig = tuple(sorted(cells[x] for x in g.out_neighbors(v)))
            in_sig = tuple(sorted(cells[x] for x in g.in_neighbors(v)))
            sigs[v] = (cells[v], out_sig, in_sig)
        fresh = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        cells = {v: fresh[sigs[v]] for v in sigs}
        new_count = len(fresh)
        if new_count == n_cells:
            return cells
        n_cells = new_count


@dataclass
class SearchStats:
    """Counts from one automorphism search.

    A node is one partial assignment the search visits, the empty one
    included; a leaf is a complete assignment (an automorphism); a dead end is
    a partial assignment that no candidate image extends.
    """

    nodes: int = 0
    leaves: int = 0
    dead_ends: int = 0


def _assignment_order(g: ColoredDigraph, cells: dict[str, int],
                      by_cell: dict[int, list[str]]) -> list[str]:
    """Vertices in the order the search assigns them.

    Each vertex minimises (cell size, cell id, token) among the unplaced
    vertices adjacent to a placed one; when a component is used up, the next
    vertex is the minimum over all unplaced vertices. Choices in disjoint
    parts then stay apart instead of multiplying out, and every assigned
    vertex after the first of its component is constrained by a neighbor.
    """
    key = {v: (len(by_cell[cells[v]]), cells[v], token_key(v)) for v in g.sorted_vertices}
    order: list[str] = []
    placed: set[str] = set()
    for start in sorted(key, key=key.__getitem__):
        if start in placed:
            continue
        frontier = [(key[start], start)]
        while frontier:
            _, v = heapq.heappop(frontier)
            if v in placed:
                continue
            placed.add(v)
            order.append(v)
            for w in g.out_neighbors(v) | g.in_neighbors(v):
                if w not in placed:
                    heapq.heappush(frontier, (key[w], w))
    return order


def _search_automorphisms(g: ColoredDigraph, *, respect_colors: bool,
                          stats: SearchStats) -> list[Permutation]:
    if g.n_vertices > DEFAULT_VERTEX_CAP:
        raise SizeCapError(
            f"automorphism search capped at {DEFAULT_VERTEX_CAP} vertices, got {g.n_vertices}")
    vs = g.sorted_vertices
    if respect_colors:
        initial = {v: (0 if v in g.color_u else 1) for v in vs}
    else:
        initial = {v: 0 for v in vs}
    cells = _refine(g, initial)

    by_cell: dict[int, list[str]] = {}
    for v in vs:
        by_cell.setdefault(cells[v], []).append(v)
    order = _assignment_order(g, cells, by_cell)

    out = {v: g.out_neighbors(v) for v in vs}
    inn = {v: g.in_neighbors(v) for v in vs}
    slot = {v: i for i, v in enumerate(vs)}
    found: list[Permutation] = []
    assigned: list[str] = []
    images: list[str] = []
    image_of = list(vs)
    used: set[str] = set()

    def backtrack(i: int) -> None:
        stats.nodes += 1
        if i == len(order):
            found.append(Permutation._trusted(vs, tuple(image_of)))
            if len(found) > DEFAULT_ELEMENT_CAP:
                raise SizeCapError(
                    f"automorphism group order exceeds the element cap of {DEFAULT_ELEMENT_CAP}")
            return
        v = order[i]
        out_v = out[v]
        in_v = inn[v]
        extended = False
        for c in by_cell[cells[v]]:
            if c in used:
                continue
            ok = True
            for a, b in zip(assigned, images):
                if ((a in out_v) != (b in out[c])) or ((a in in_v) != (b in inn[c])):
                    ok = False
                    break
            if not ok:
                continue
            extended = True
            assigned.append(v)
            images.append(c)
            image_of[slot[v]] = c
            used.add(c)
            backtrack(i + 1)
            assigned.pop()
            images.pop()
            used.discard(c)
        if not extended:
            stats.dead_ends += 1

    backtrack(0)
    stats.leaves += len(found)
    return found


def aut_color_preserving(g: ColoredDigraph, stats: SearchStats | None = None) -> PermGroup:
    """The full group of color-preserving automorphisms, elements enumerated.

    When ``stats`` is given, the search adds its counts to it.
    """
    elements = _search_automorphisms(g, respect_colors=True, stats=stats or SearchStats())
    return PermGroup.from_elements(elements, g.vertices)


def aut_full(g: ColoredDigraph, stats: SearchStats | None = None) -> PermGroup:
    """All digraph automorphisms, color-preserving or not.

    On disconnected graphs an automorphism may preserve colors on one component
    and switch them on another, so this runs a color-blind search rather than
    gluing a switching coset onto the color-preserving group. Each leaf is a
    digraph automorphism, since every assignment is tested against every
    assigned pair in both directions; on a connected graph it maps U onto U
    or onto W, since all edges cross U-W and a connected bipartite graph has
    one bipartition, so there the color-preserving subgroup has index 1 or 2.
    When ``stats`` is given, the search adds its counts to it.
    """
    elements = _search_automorphisms(g, respect_colors=False, stats=stats or SearchStats())
    return PermGroup.from_elements(elements, g.vertices)


def orbits(grp: PermGroup, vertices) -> Partition:
    """Orbit partition of a group on the given vertex set (= its domain)."""
    verts = frozenset(vertices)
    if verts != set(grp.domain):
        raise QbmgError("orbit computation needs the group's own domain")
    return Partition.from_blocks(grp.orbit_sets())


def canonical_gamma(g: ColoredDigraph) -> PermGroup:
    """The product of full symmetric groups, one per equivalence class.

    Generated by all transpositions inside each class; the order is the
    product of the class factorials and the orbits are exactly the classes.
    When isolated vertices of both colors share the isolated class, some
    generators swap vertices across colors; they are still automorphisms.
    """
    classes = equivalence_classes(g)
    dom = g.sorted_vertices
    gens: list[Permutation] = []
    for block in classes.blocks:
        members = sorted(block, key=token_key)
        anchor = members[0]
        for other in members[1:]:
            gens.append(Permutation.from_mapping({anchor: other, other: anchor}, dom))
    if not gens:
        return PermGroup.trivial(dom)
    return PermGroup.from_generators(gens, dom)


def is_normal(sub: PermGroup, grp: PermGroup) -> bool:
    """Conjugation test on generators; requires sub's generators to lie in grp."""
    if sub.domain != grp.domain:
        raise QbmgError("subgroup and group act on different domains")
    if any(s not in grp for s in sub.generators):
        raise QbmgError("claimed subgroup is not contained in the group")
    return all(a.compose(s).compose(a.inverse()) in sub
               for a in grp.generators for s in sub.generators)


def inherited_group(g: ColoredDigraph, norm: PermGroup) -> PermGroup:
    """The action of the color-preserving group on the orbits of a normal subgroup.

    Returns a group of permutations of the quotient's vertices, generated by
    the orbit images of Aut_I's generators, with order |Aut_I| / |norm|.
    Each image is a color-preserving automorphism of the quotient: an element
    of Aut_I maps the orbits of a normal subgroup onto orbits, edges to edges,
    and each color class onto itself. Raises when norm is not normal in Aut_I,
    or when some element outside norm fixes every orbit (then cosets do not
    map to distinct quotient permutations and the advertised order is
    impossible).
    """
    aut = aut_color_preserving(g)
    if not is_normal(norm, aut):
        raise PreconditionError("the given subgroup is not normal in the color-preserving group")
    result = gamma_quotient(g, norm)
    project = result.projection
    q_dom = tuple(sorted(result.quotient.vertices, key=token_key))
    images = [Permutation.from_mapping({project[v]: project[a(v)] for v in a.domain}, q_dom)
              for a in aut.generators]
    induced = PermGroup.from_generators(images, q_dom)
    expected = aut.order // norm.order
    if induced.order != expected:
        raise PreconditionError(
            f"the orbit action has {induced.order} distinct permutations but "
            f"|Aut_I|/|norm| = {expected}: some element outside the subgroup "
            "fixes every orbit, so the inherited group is not faithful here")
    return induced
