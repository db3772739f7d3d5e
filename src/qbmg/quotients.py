"""Vertex equivalence, quotient digraphs, and orbit-pair structure of thin graphs.

Two vertices are equivalent (twins) when they have the same out-neighbors and
the same in-neighbors, and each graph keeps its classes (``class_masks``). All
isolated vertices fall into one class, which may straddle the two colors; it
is the only class allowed to do so.

That waiver is stated once, in the block rule of ``partition_quotient``: a
block may mix colors only when all its vertices are isolated. Orbit quotients
test their group's generating ranks as ``perms.is_automorphism`` does and
leave the colors to that rule, since an automorphism that moves an
edge-bearing vertex across the classes puts it in a mixed orbit.

Everything here is computed on rank masks: one private core, ``_quotient``,
builds every quotient from block masks, without revalidation, and classes and
orbits are read as masks (``class_masks``, ``PermGroup.orbit_masks``).
``Partition`` is the input type at the public edge, where blocks arrive as
tokens: ``partition_quotient``, ``parse_partition``, ``quotient --partition``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .digraph import ColoredDigraph, bits, class_masks, low_bit, rank_index, token_key
from .errors import GraphFormatError, NotAutomorphismError, PartitionError, PreconditionError
from .perms import PermGroup, _maps_edges, is_automorphism

__all__ = [
    "Partition",
    "QuotientResult",
    "equivalence_classes",
    "partition_quotient",
    "classical_quotient",
    "gamma_quotient",
    "parse_partition",
    "format_partition",
]


def _block_key(block: frozenset[str]) -> tuple:
    return token_key(min(block, key=token_key))


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty vertex blocks, ordered by their smallest member token."""

    blocks: tuple[frozenset[str], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for b in self.blocks:
            if not b:
                raise PartitionError("empty block")
            if seen & b:
                raise PartitionError(
                    f"blocks overlap on {sorted(seen & b, key=token_key)}")
            seen |= b
        ordered = tuple(sorted(self.blocks, key=_block_key))
        object.__setattr__(self, "blocks", ordered)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]]) -> "Partition":
        return cls(tuple(frozenset(b) for b in blocks))

    @classmethod
    def singletons(cls, vertices: Iterable[str]) -> "Partition":
        return cls(tuple(frozenset((v,)) for v in vertices))

    @property
    def support(self) -> frozenset[str]:
        return frozenset().union(*self.blocks) if self.blocks else frozenset()

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


@dataclass(frozen=True)
class QuotientResult:
    """A quotient digraph together with the vertex projection onto it."""

    quotient: ColoredDigraph
    projection: dict[str, str]


def equivalence_classes(g: ColoredDigraph) -> Partition:
    """Partition vertices by (out-neighborhood, in-neighborhood)."""
    return Partition.from_blocks(map(g.tokens, class_masks(g)))


def partition_quotient(g: ColoredDigraph, partition: Partition) -> QuotientResult:
    """Collapse each block to one vertex; blocks are adjacent when any members are.

    The vertex of a block is ``q_x``, x its least token. Every block must lie
    inside one color class, except a block of isolated vertices, which may
    mix colors and is then colored U in the quotient. Monochromatic blocks
    keep their color.
    """
    _check_support(g, partition.support)
    return _quotient(g, [sum(1 << g.rank[v] for v in block) for block in partition.blocks])


def _check_support(g: ColoredDigraph, support: frozenset[str]) -> None:
    """Raise PartitionError unless ``support`` is g's vertex set."""
    if support != g.vertices:
        missing = g.vertices - support
        extra = support - g.vertices
        detail = []
        if missing:
            detail.append(f"uncovered vertices {sorted(missing, key=token_key)}")
        if extra:
            detail.append(f"unknown vertices {sorted(extra, key=token_key)}")
        raise PartitionError("partition does not match the vertex set: " + "; ".join(detail))


def _quotient(g: ColoredDigraph, masks: Sequence[int]) -> QuotientResult:
    """``partition_quotient`` by blocks given as disjoint rank masks that cover g."""
    vs, out, inn, u_mask = g.sorted_vertices, g.out_masks, g.in_masks, g.u_mask
    names = ["q_" + vs[low_bit(m)] for m in masks]
    q_vs = tuple(sorted(names, key=token_key))
    q_rank = rank_index(q_vs)
    to_q = [0] * len(vs)  # each rank's quotient rank
    q_u = 0
    for m, name in zip(masks, names):
        q = q_rank[name]
        for a in bits(m):
            to_q[a] = q
        if m & u_mask and m & ~u_mask and any(out[a] | inn[a] for a in bits(m)):
            raise PartitionError(
                f"block {g.tokens(m)} mixes colors and contains an edge-bearing vertex")
        if m & u_mask:
            q_u |= 1 << q
    q_out = [0] * len(q_vs)
    for a, o in enumerate(out):
        for b in bits(o):
            q_out[to_q[a]] |= 1 << to_q[b]
    return QuotientResult(ColoredDigraph._from_masks(q_vs, q_u, q_out),
                          {v: q_vs[to_q[a]] for a, v in enumerate(vs)})


def classical_quotient(g: ColoredDigraph) -> QuotientResult:
    """Quotient over the equivalence classes; the result is always thin."""
    return _quotient(g, class_masks(g))


def gamma_quotient(g: ColoredDigraph, grp: PermGroup) -> QuotientResult:
    """Quotient over the orbit partition of a color-preserving automorphism group.

    Every generator must be an automorphism of g: the generating ranks are
    tested, and a fault is named by a canonical generator. The colors are
    left to the block rule of ``partition_quotient``: an orbit may mix colors
    only when all its vertices are isolated, which lets the product group
    over the equivalence classes act on a color-straddling isolated class.
    """
    _check_generators(g, grp)
    return _quotient(g, grp.orbit_masks())


def _check_generators(g: ColoredDigraph, grp: PermGroup) -> None:
    """``gamma_quotient``'s test that grp acts on g's vertices by automorphisms."""
    if grp.domain != g.sorted_vertices or not all(
            _maps_edges(g.out_masks, x) for x in grp.generating_ranks):
        for p in grp.generators:
            if not is_automorphism(g, p):
                raise NotAutomorphismError(f"generator {p.cycle_string()} is not an automorphism")
        if grp.domain != g.sorted_vertices:
            _check_support(g, frozenset(grp.domain))


def _orbit_pair_shapes(g: ColoredDigraph, orbit_masks: Iterable[int]) -> list[tuple]:
    """(U-orbit, W-orbit, shape) for each edged pair of monochromatic orbits (rank masks).

    A shape is ``_classify_pair``'s. The caller vouches that g is a thin 2-qBMG
    and that the orbits come from a group of automorphisms of g, color-preserving
    or not; orbits that straddle the colors are skipped. Raises PreconditionError
    when a pair fits neither shape, which contradicts the thin structure theorem.
    """
    u_orbits, w_orbits = [], []
    for m in orbit_masks:
        if not m & g.w_mask:
            u_orbits.append(m)
        elif not m & g.u_mask:
            w_orbits.append(m)
    shapes = ((um, wm, _classify_pair(g, um, wm)) for um in u_orbits for wm in w_orbits)
    return [found for found in shapes if found[2] is not None]


_BUG = "; this contradicts the thin structure theorem and indicates a bug"


def _classify_pair(g: ColoredDigraph, um: int, wm: int
                   ) -> tuple[str, int | None, str | None] | None:
    """(kind, fan-out, source side) of the edges between a U-orbit and a W-orbit
    (rank masks um, wm), if any."""
    out, inn = g.out_masks, g.in_masks
    forward = [out[a] & wm for a in bits(um)]
    backward = [out[b] & um for b in bits(wm)]
    if not any(forward) and not any(backward):
        return None
    if any(out[a] & inn[a] & wm for a in bits(um)):
        # A perfect symmetric matching: one edge each way at every vertex, all symmetric.
        if (len(forward) == len(backward)
                and all(m.bit_count() == 1 for m in forward + backward)
                and all(out[a] & inn[a] & wm for a in bits(um))):
            return "SYMMETRIC_MATCHING", None, None
        misfit = "has symmetric edges but is not a perfect symmetric matching"
    elif any(forward) and any(backward):
        misfit = "has oriented edges in both directions"
    else:
        # Stars: every source has the same fan-out and every sink one in-edge from the sources.
        fans, side, srcs, sinks = ((forward, "U", um, wm) if any(forward)
                                   else (backward, "W", wm, um))
        d = fans[0].bit_count()
        if (all(m.bit_count() == d for m in fans)
                and all((inn[b] & srcs).bit_count() == 1 for b in bits(sinks))):
            return "STARS", d, side
        misfit = "is not a disjoint union of stars covering the sink orbit"
    raise PreconditionError(f"orbit pair ({g.tokens(um)}, {g.tokens(wm)}) {misfit}{_BUG}")


# -- partition text format: one line per block, whitespace-separated tokens --


def parse_partition(text: str) -> Partition:
    blocks: list[frozenset[str]] = []
    seen: set[str] = set()
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        toks = stripped.split()
        if len(set(toks)) != len(toks):
            raise GraphFormatError("block repeats a vertex", line=i)
        block = frozenset(toks)
        if seen & block:
            raise GraphFormatError(
                f"blocks overlap on {sorted(seen & block, key=token_key)}", line=i)
        seen |= block
        blocks.append(block)
    return Partition.from_blocks(blocks)


def format_partition(p: Partition) -> str:
    return "\n".join(
        " ".join(sorted(b, key=token_key)) for b in p.blocks
    ) + ("\n" if p.blocks else "")
