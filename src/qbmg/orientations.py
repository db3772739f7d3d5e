"""Orientations of colored digraphs: the UW-orientation, enumeration, topological order.

An orientation keeps exactly one direction from each symmetric edge and all
other edges unchanged. The UW-orientation keeps the direction running from
color class U to color class W; it never loses a color-preserving
automorphism, though it can gain some. ``check_orientation_theorems`` tests
the group identity together with membership of every orientation when the
symmetric edges form a matching.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .axioms import is_2qbmg, is_thin, satisfies_star
from .autgroup import aut_color_preserving
from .digraph import ColoredDigraph, bits, low_bit, symmetric_edges
from .errors import QbmgError, SizeCapError
from .perms import PermGroup

__all__ = [
    "uw_orientation",
    "enumerate_orientations",
    "TopoResult",
    "topological_order",
    "OrientationReport",
    "check_orientation_theorems",
]

ORIENTATION_CAP = 20


def uw_orientation(g: ColoredDigraph) -> ColoredDigraph:
    """Drop the W-to-U direction of every symmetric edge; idempotent."""
    edges = {
        (t, h) for (t, h) in g.edges
        if not ((h, t) in g.edges and t in g.color_w)
    }
    return g.with_edges(edges)


def enumerate_orientations(g: ColoredDigraph) -> Iterator[ColoredDigraph]:
    """Yield all 2^s orientations, s the number of symmetric edges (capped at 20).

    Deterministic order: symmetric pairs sorted by token, then a binary
    counter where bit k = 0 keeps the direction leaving the pair's smaller
    token. Lazy, so a property test can stop at the first failure.
    """
    vs = g.sorted_vertices
    pairs = [(vs[a], vs[b]) for a, o in enumerate(g.out_masks)
             for b in bits(o & g.in_masks[a]) if a < b]
    if len(pairs) > ORIENTATION_CAP:
        raise SizeCapError(
            f"orientation enumeration capped at {ORIENTATION_CAP} symmetric edges, "
            f"got {len(pairs)}")
    base = {(t, h) for (t, h) in g.edges if (h, t) not in g.edges}
    for mask in range(1 << len(pairs)):
        edges = set(base)
        for k, (a, b) in enumerate(pairs):
            edges.add((b, a) if mask >> k & 1 else (a, b))
        yield g.with_edges(edges)


class TopoResult(NamedTuple):
    """Either a topological order or a directed cycle witness."""

    order: tuple[str, ...] | None
    cycle: tuple[str, ...] | None


def topological_order(g: ColoredDigraph) -> TopoResult:
    """Kahn's procedure with token-order tie-breaking; input must be oriented."""
    if symmetric_edges(g):
        raise QbmgError("topological order is defined for oriented graphs only")
    indeg = [i.bit_count() for i in g.in_masks]
    heap = [v for v, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in bits(g.out_masks[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) == len(indeg):
        return TopoResult(tuple(g.sorted_vertices[v] for v in order), None)
    return TopoResult(None, _find_cycle(g, sum(1 << v for v, d in enumerate(indeg) if d > 0)))


def _find_cycle(g: ColoredDigraph, inside: int) -> tuple[str, ...]:
    """Find a directed cycle among the ranks Kahn's procedure never released.

    Every such vertex keeps an unprocessed in-neighbor, which is itself
    unreleased, so walking backward must eventually repeat a vertex.
    """
    path: list[int] = []
    v = low_bit(inside)
    while v not in path:
        path.append(v)
        v = low_bit(g.in_masks[v] & inside)
    cycle = path[path.index(v):]
    cycle.reverse()
    return tuple(g.sorted_vertices[v] for v in cycle)


@dataclass(frozen=True)
class OrientationReport:
    """Results of the orientation checks on a single 2-qBMG."""

    star_holds: bool
    thin: bool
    orientations_checked: int
    all_orientations_are_2qbmg: bool | None  # None when (*) fails and the check is skipped
    all_orientations_acyclic: bool | None    # None when neither (*) nor thinness holds
    uw_group_preserved: bool
    group_order: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_orientation_theorems(g: ColoredDigraph, aut_g: PermGroup) -> OrientationReport:
    """Verify the orientation facts on one 2-qBMG, given ``aut_g = aut_color_preserving(g)``.

    The caller vouches for both: ``g`` is a 2-qBMG and ``aut_g`` is its
    color-preserving group; neither is re-checked here.

    (a) When symmetric edges form a matching, every orientation must again be
        a 2-qBMG, and must be acyclic with a topological order. Acyclicity is
        also required when the graph is thin, even without the matching
        property; a failure there is reported but only counts as a violation
        in the matching case.
    (b) Always: the UW-orientation is checked for having exactly the same
        color-preserving automorphisms as the graph itself. Containment in
        one direction is guaranteed (an automorphism maps symmetric pairs to
        symmetric pairs, and colors pick the kept direction), so equal orders
        decide it. The reverse containment can genuinely fail: dropping the
        back-edges can make previously distinguishable vertices
        interchangeable. The smallest example is 1->{2,3} with 2->1, where
        the orientation gains (2 3).

    A failure of (a), or of the acyclicity checks, indicates a bug in this
    package rather than a property of the input.
    """
    violations: list[str] = []
    star = bool(satisfies_star(g))
    thin = is_thin(g)

    checked = 0
    all_member: bool | None = True if star else None
    all_acyclic: bool | None = True if star or thin else None
    if star or thin:
        for o in enumerate_orientations(g):
            checked += 1
            if star and not is_2qbmg(o):
                all_member = False
                violations.append(f"orientation #{checked} is not a 2-qBMG")
                break
            if topological_order(o).order is None:
                all_acyclic = False
                if star:
                    violations.append(f"orientation #{checked} has a directed cycle")
                break

    # Without symmetric edges the UW-orientation is g itself.
    aut_o = aut_color_preserving(uw_orientation(g)) if symmetric_edges(g) else aut_g
    preserved = aut_g.order == aut_o.order
    if not preserved:
        violations.append(
            f"UW-orientation changes the color-preserving group: "
            f"{aut_g.order} vs {aut_o.order}")
    return OrientationReport(
        star_holds=star,
        thin=thin,
        orientations_checked=checked,
        all_orientations_are_2qbmg=all_member,
        all_orientations_acyclic=all_acyclic,
        uw_group_preserved=preserved,
        group_order=aut_g.order,
        violations=tuple(violations),
    )
