"""Orientations of colored digraphs: the UW-orientation, enumeration, topological order.

An orientation keeps exactly one direction from each symmetric edge and all
other edges unchanged. Symmetric pair k is (a, b), a's token before b's,
pairs in token order; flip mask bit k set reverses pair k to run b -> a, and
orientation #N is the one with flip mask N - 1. The UW-orientation keeps the
direction running from color class U to color class W; it never loses a
color-preserving automorphism, though it can gain some. Whether it gains
some is read off its own equitable refinement (McKay and Piperno, "Practical
graph isomorphism, II", 2014) where it can be: every automorphism of the
UW-orientation o maps each refined cell of o onto itself, so when no U->W
edge of a symmetric pair shares its pair of cells with a one-way U->W edge,
it maps the symmetric pairs onto themselves and is an automorphism of the
graph too. When every U->W edge lies on a symmetric pair, no cells hold a
one-way one, so o is not even built. Only otherwise is o's group searched,
from those cells.

``check_orientation_theorems`` tests the group identity together with
membership and acyclicity of every orientation when the symmetric edges form
a matching. Acyclicity is tested on the in-masks, by peeling off sources
until none is left; ``topological_order`` gives the order or a cycle itself,
for callers that want one. A color-preserving automorphism h maps
orientation o onto the isomorphic orientation h(o), so both properties hold
on all 2^s orientations iff they hold on one orientation per orbit of the
group on flip masks. The check tests the least mask of each orbit only, in
ascending order, and the least failing mask is the least of its orbit: the
first failing representative is the first failing orientation. The
representatives are generated orderly (Read, "Every one a winner", 1978)
with a smallest-image search over a stabilizer chain of the action on pairs
(Linton, "Finding the smallest image of a set", 2004), never by a walk over
all 2^s masks. The action is read off the rank tuples the group was
generated from; of the group itself only its order is read, never its
stabilizer chain. The action permutes its orbits O on pairs, so it lies in
the product of the Sym(O). When every generator fixes each vertex off the
pairs, only the identity fixes every pair, so the action has the group's
order; when that order is the product of the |O|!, the action is that
product. A set is then least in its orbit iff in each O its points come
after the points outside it, with no image search and no Schreier-Sims. The
chain is written down only for a smallest-image search, which maps each
least set to its orbit's least mask when some pair starts in W.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

from .axioms import is_2qbmg, is_thin, satisfies_star
from .autgroup import SearchStats, _color_cells, _refine, _search_automorphisms
from .digraph import ColoredDigraph, bits, low_bit, symmetric_pairs
from .errors import QbmgError, SizeCapError
from .perms import PermGroup, _orbit_masks, _schreier_sims, _sift, _symmetric_chain

__all__ = [
    "uw_orientation",
    "enumerate_orientations",
    "orientation_representatives",
    "TopoResult",
    "topological_order",
    "OrientationReport",
    "check_orientation_theorems",
]

# Orientations one call may build: 2^s in enumerate_orientations, orbit
# representatives in check_orientation_theorems.
ORIENTATION_CAP = 4096
# Partial images the search for the representatives may build (about 4 s).
IMAGE_CAP = 500_000


def uw_orientation(g: ColoredDigraph) -> ColoredDigraph:
    """Drop the W-to-U direction of every symmetric edge; idempotent."""
    return g.with_out_masks([o if g.u_mask >> t & 1 else o & ~i
                             for t, (o, i) in enumerate(zip(g.out_masks, g.in_masks))])


def _orienter(g: ColoredDigraph, pairs: list[tuple[int, int]]) -> Callable[[int], ColoredDigraph]:
    """The map from a flip mask to its orientation of g."""
    base = [o & ~i for o, i in zip(g.out_masks, g.in_masks)]

    def orient(mask: int) -> ColoredDigraph:
        out = base.copy()
        for k, (a, b) in enumerate(pairs):
            t, h = (b, a) if mask >> k & 1 else (a, b)
            out[t] |= 1 << h
        return g.with_out_masks(out)

    return orient


def enumerate_orientations(g: ColoredDigraph) -> Iterator[ColoredDigraph]:
    """Yield all 2^s orientations, s the number of symmetric edges, by flip mask.

    The masks count up from 0, so the k-th orientation yielded (from 1) is
    #k. Lazy, so a property test can stop at the first failure. Raises
    ``SizeCapError`` when 2^s exceeds ``ORIENTATION_CAP``.
    """
    pairs = symmetric_pairs(g)
    if 1 << len(pairs) > ORIENTATION_CAP:
        raise SizeCapError(
            f"orientation enumeration capped at {ORIENTATION_CAP} orientations, "
            f"got 2^{len(pairs)}")
    return map(_orienter(g, pairs), range(1 << len(pairs)))


def orientation_representatives(g: ColoredDigraph, aut_g: PermGroup) -> list[int]:
    """The least flip mask of each orbit of ``aut_g`` on g's orientations, ascending.

    ``aut_g`` must consist of color-preserving automorphisms of g. Raises
    ``SizeCapError`` beyond ``ORIENTATION_CAP`` orbits or ``IMAGE_CAP``
    partial images.

    The search runs on points, most significant first: point i is pair
    s-1-i. A point set c holds the pairs that run W -> U. A color-preserving
    automorphism permutes the points, and bit s-1-i of a flip mask is point
    i of c xor of ``flip``, which holds the pairs whose first end is in W.

    The least sets c of the orbits come first, orderly: when c is least and
    not full, c with its last missing point added is least too, because
    complements reverse the order and a greatest set stays greatest without
    its last point. So they grow as a tree from the full set, a node's
    children dropping one point after its last missing one, and only least
    children are kept. Each is then mapped to its orbit's least mask.
    """
    return _representatives(g, aut_g, symmetric_pairs(g))


def _representatives(g: ColoredDigraph, aut_g: PermGroup,
                     pairs: list[tuple[int, int]]) -> list[int]:
    """``orientation_representatives(g, aut_g)``, given ``pairs = symmetric_pairs(g)``."""
    s = len(pairs)
    point = {pair: s - 1 - k for k, pair in enumerate(pairs)}
    gens = []
    for x in aut_g.generating_ranks:
        img = [0] * s
        for (a, b), i in point.items():
            img[i] = point[(x[a], x[b]) if x[a] < x[b] else (x[b], x[a])]
        gens.append(tuple(img))
    if all(img == tuple(range(s)) for img in gens):  # every orbit is one mask
        if 1 << s > ORIENTATION_CAP:
            raise _representatives_capped(s)
        return list(range(1 << s))
    # When every generator fixes each vertex off the pairs, only the identity
    # fixes all pairs, so the action has the group's order.
    off = (1 << g.n_vertices) - 1 & ~_ends(pairs)
    on_pairs = all(x[v] == v for x in aut_g.generating_ranks for v in bits(off))
    chain = _Chain(s, gens, aut_g.order if on_pairs else None)
    full = (1 << s) - 1
    least, todo = [], [full]
    while todo:
        c = todo.pop()
        least.append(c)
        if len(least) > ORIENTATION_CAP:
            raise _representatives_capped(s)
        for i in range((full & ~c).bit_length(), s):
            child = c & ~(1 << i)
            if chain.is_least(child):
                todo.append(child)
    flip = sum(1 << i for (a, _), i in point.items() if not g.u_mask >> a & 1)
    masks = []
    for c in least:
        m = (chain.least_image(c, flip) if flip else c) ^ flip
        masks.append(sum(1 << (s - 1 - i) for i in bits(m)))
    return sorted(masks)


def _ends(pairs: list[tuple[int, int]]) -> int:
    """The rank mask of the vertices on the pairs."""
    ends = 0
    for a, b in pairs:
        ends |= 1 << a | 1 << b
    return ends


def _representatives_capped(s: int) -> SizeCapError:
    return SizeCapError(f"orientation check capped at {ORIENTATION_CAP} orbit representatives, "
                        f"on {s} symmetric edges")


class _Chain:
    """Least images of point sets under a group on points 0..n-1, from its stabilizer chain.

    Sets compare as their membership bits, point 0 first. The search picks
    the preimage of point 0, 1, ... in turn from the level's orbit and keeps
    every distinct partial image that is least so far (Linton). Points x, y
    with (x y) in the group form blocks. Two preimages in one block that a
    partial image marks alike lead to the same images, since the swap of
    the two fixes every point before them; so the search tries one
    preimage per block and bit.

    ``order`` is the group's order when known. When the group is the
    product of Sym(O) over its orbits O, its order the product of the |O|!,
    the blocks are its orbits. If ``order`` says so, the chain is written
    down on first read, which only a ``least_image`` call makes; else it is
    computed by Schreier-Sims.
    """

    def __init__(self, n: int, gens: list[tuple[int, ...]], order: int | None):
        self.orbits = _orbit_masks(n, gens)
        product = math.prod(math.factorial(o.bit_count()) for o in self.orbits)
        if order != product:
            self.levels = _schreier_sims(n, gens, order)
        self.images = 0
        self.symmetric = order == product or math.prod(map(len, self.levels)) == product
        self.block = [0] * n  # the block of each point, as a mask
        if self.symmetric:
            for o in self.orbits:
                for x in bits(o):
                    self.block[x] = o
        for x in range(n):
            if not self.block[x]:
                mask = 1 << x
                for y in range(x + 1, n):
                    swap = list(range(n))
                    swap[x], swap[y] = y, x
                    if not self.block[y] and _sift(self.levels, tuple(swap)) is None:
                        mask |= 1 << y
                for y in bits(mask):
                    self.block[y] = mask
        self.blocks = [b for b in set(self.block) if b & (b - 1)]

    @cached_property
    def levels(self):
        """The chain of the product of the Sym(O), written down when ``order`` says it is one."""
        return _symmetric_chain(len(self.block), self.orbits)[0]

    def is_least(self, c: int) -> bool:
        """Whether c is least in its orbit.

        It is not when a block has a point of c before a point outside c:
        swapping the two gives a lesser image. In a product of symmetric
        groups on the blocks that test decides it.
        """
        for mask in self.blocks:
            ones, zeros = c & mask, mask & ~c
            if ones and zeros.bit_length() - 1 > low_bit(ones):
                return False
        return self.symmetric or self.least_image(c) == c

    def least_image(self, c: int, flip: int = 0) -> int:
        """The least image of c when point i compares as its bit xor bit i of ``flip``.

        Raises ``SizeCapError`` once the calls on this chain have kept more
        than ``IMAGE_CAP`` partial images.
        """
        block, todo = self.block, {c}
        for i, level in enumerate(self.levels):
            want = flip >> i & 1
            hit: set[int] = set()
            miss: set[int] = set()
            for t in todo:
                seen = set()
                for b in level:
                    key = (block[b], t >> b & 1)
                    if key not in seen:
                        seen.add(key)
                        inv = level.inverse(b)
                        image = t if b == i else sum(1 << inv[q] for q in bits(t))
                        (hit if key[1] == want else miss).add(image)
            self.images += len(todo)
            if self.images > IMAGE_CAP:
                raise SizeCapError(
                    f"orientation check capped at {IMAGE_CAP} partial images "
                    f"in the search for orbit representatives")
            todo = hit or miss
        (least,) = todo
        return least


class TopoResult(NamedTuple):
    """Either a topological order or a directed cycle witness."""

    order: tuple[str, ...] | None
    cycle: tuple[str, ...] | None


def topological_order(g: ColoredDigraph) -> TopoResult:
    """Kahn's procedure with token-order tie-breaking; input must be oriented."""
    if any(o & i for o, i in zip(g.out_masks, g.in_masks)):
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


def _acyclic(g: ColoredDigraph) -> bool:
    """Whether the oriented graph g has no directed cycle.

    Peels off the sources of what is left until nothing is left, or until no
    source remains: then every vertex left has an in-neighbor left, so a
    cycle runs through them.
    """
    inn = g.in_masks
    left, todo = (1 << len(inn)) - 1, range(len(inn))
    while todo:
        kept = [v for v in todo if inn[v] & left]
        if len(kept) == len(todo):
            return False
        left, todo = sum(1 << v for v in kept), kept
    return True


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
    orientations_checked: int  # orbit representatives built and tested
    orientations_total: int    # 2^s, s the number of symmetric edges
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
        property. Both are tested on the least orientation of each orbit of
        ``aut_g`` only, in flip-mask order, stopping at the first failure; a
        matching-case violation names it as ``orientation #N``, N its flip
        mask plus one, which is also the first failing orientation of
        ``enumerate_orientations``. Without symmetric edges the only
        orientation is g, which is not recognised again. A cycle on a thin
        graph is reported last, after the UW verdict, without naming the
        orientation.
    (b) Always: the UW-orientation is checked for having exactly the same
        color-preserving automorphisms as the graph itself. Containment in
        one direction is guaranteed (an automorphism maps symmetric pairs to
        symmetric pairs, and colors pick the kept direction), so equal orders
        decide it. The reverse containment can genuinely fail: dropping the
        back-edges can make previously distinguishable vertices
        interchangeable. The smallest example is 1->{2,3} with 2->1, where
        the orientation gains (2 3). When every U->W edge lies on a
        symmetric pair, the groups are equal and the orientation is not
        built. Otherwise its color classes are refined first. When the cell
        pairs of its U->W edges that come from symmetric pairs are disjoint
        from those of its one-way U->W edges, every automorphism of the
        orientation keeps the symmetric pairs, so the two groups are equal
        and no search runs; otherwise the orientation's group is searched
        from the refined cells.

    A failure of (a), or of the acyclicity checks, indicates a bug in this
    package rather than a property of the input.
    """
    violations: list[str] = []
    star = bool(satisfies_star(g))
    thin = is_thin(g)

    pairs = symmetric_pairs(g)
    orient = _orienter(g, pairs)
    checked = 0
    all_member: bool | None = True if star else None
    all_acyclic: bool | None = True if star or thin else None
    if star or thin:
        for mask in _representatives(g, aut_g, pairs):
            o = orient(mask)
            checked += 1
            if star and pairs and not is_2qbmg(o):
                all_member = False
                violations.append(f"orientation #{mask + 1} is not a 2-qBMG")
                break
            if not _acyclic(o):
                all_acyclic = False
                if star:
                    violations.append(f"orientation #{mask + 1} has a directed cycle")
                break

    # Without symmetric edges the UW-orientation is g itself.
    order_o = _uw_order(g, aut_g) if pairs else aut_g.order
    preserved = aut_g.order == order_o
    if not preserved:
        violations.append(
            f"UW-orientation changes the color-preserving group: "
            f"{aut_g.order} vs {order_o}")
    if thin and all_acyclic is False:
        violations.append("an orientation of a thin graph has a cycle")
    return OrientationReport(
        star_holds=star,
        orientations_checked=checked,
        orientations_total=1 << len(pairs),
        all_orientations_are_2qbmg=all_member,
        all_orientations_acyclic=all_acyclic,
        uw_group_preserved=preserved,
        group_order=aut_g.order,
        violations=tuple(violations),
    )


def _uw_order(g: ColoredDigraph, aut_g: PermGroup) -> int:
    """The order of the color-preserving group of g's UW-orientation."""
    if not any(g.out_masks[a] & ~g.in_masks[a] for a in bits(g.u_mask)):
        return aut_g.order  # no one-way U->W edge: any cells keep the symmetric pairs
    o = uw_orientation(g)
    stats = SearchStats()
    cells = _refine(o, _color_cells(o), stats)
    if _cells_keep_symmetric_pairs(g, cells):
        return aut_g.order
    return _search_automorphisms(o, cells, stats)[1]


def _cells_keep_symmetric_pairs(g: ColoredDigraph, cells: list[int]) -> bool:
    """Whether the cells tell the U->W edges of symmetric pairs from the one-way ones.

    ``cells`` is an equitable refinement of the UW-orientation's color
    classes, whose U->W edges are g's. Each automorphism of the orientation
    fixes every cell, so it maps a U->W edge to one with the same pair of
    cells; when no pair of cells holds edges of both kinds, it maps the
    symmetric pairs onto themselves, and so g onto g.
    """
    symmetric, one_way = set(), set()
    for a in bits(g.u_mask):
        back = g.in_masks[a]
        for b in bits(g.out_masks[a]):
            (symmetric if back >> b & 1 else one_way).add((cells[a], cells[b]))
    return symmetric.isdisjoint(one_way)
