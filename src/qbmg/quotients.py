"""Vertex equivalence, quotient digraphs, and orbit-pair structure of thin graphs.

Two vertices are equivalent when they have the same out-neighbors and the same
in-neighbors. All isolated vertices therefore fall into one class, which may
straddle the two colors; it is the only class allowed to do so.

That waiver is stated once, in the block rule of ``partition_quotient``: a
block may mix colors only when all its vertices are isolated. Orbit quotients
check their group's generators with ``perms.is_automorphism`` and leave the
colors to that rule, since an automorphism that moves an edge-bearing vertex
across the classes puts it in a mixed orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .digraph import ColoredDigraph, token_key
from .errors import GraphFormatError, NotAutomorphismError, PartitionError, PreconditionError
from .perms import PermGroup, is_automorphism

__all__ = [
    "Partition",
    "QuotientResult",
    "equivalence_classes",
    "partition_quotient",
    "classical_quotient",
    "gamma_quotient",
    "OrbitPairShape",
    "classify_monochromatic_orbit_pairs",
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
    groups: dict[tuple[int, int], set[str]] = {}
    for v, sig in zip(g.sorted_vertices, zip(g.out_masks, g.in_masks)):
        groups.setdefault(sig, set()).add(v)
    return Partition.from_blocks(groups.values())


def _quotient_name(block: frozenset[str]) -> str:
    return "q_" + min(block, key=token_key)


def partition_quotient(g: ColoredDigraph, partition: Partition) -> QuotientResult:
    """Collapse each block to one vertex; blocks are adjacent when any members are.

    Every block must lie inside one color class, except a block of isolated
    vertices, which may mix colors and is then colored U in the quotient.
    Monochromatic blocks keep their color.
    """
    if partition.support != g.vertices:
        missing = g.vertices - partition.support
        extra = partition.support - g.vertices
        detail = []
        if missing:
            detail.append(f"uncovered vertices {sorted(missing, key=token_key)}")
        if extra:
            detail.append(f"unknown vertices {sorted(extra, key=token_key)}")
        raise PartitionError("partition does not match the vertex set: " + "; ".join(detail))

    name_of: dict[str, str] = {}
    q_u: list[str] = []
    q_w: list[str] = []
    for block in partition.blocks:
        name = _quotient_name(block)
        in_u = block & g.color_u
        in_w = block & g.color_w
        if in_u and in_w:
            if any(not g.is_isolated(v) for v in block):
                raise PartitionError(
                    f"block {sorted(block, key=token_key)} mixes colors and "
                    "contains an edge-bearing vertex")
            q_u.append(name)
        elif in_u:
            q_u.append(name)
        else:
            q_w.append(name)
        for v in block:
            name_of[v] = name

    q_edges = {(name_of[t], name_of[h]) for (t, h) in g.edges}
    return QuotientResult(ColoredDigraph(q_u, q_w, q_edges), name_of)


def classical_quotient(g: ColoredDigraph) -> QuotientResult:
    """Quotient over the equivalence classes; the result is always thin."""
    return partition_quotient(g, equivalence_classes(g))


def gamma_quotient(g: ColoredDigraph, grp: PermGroup) -> QuotientResult:
    """Quotient over the orbit partition of a color-preserving automorphism group.

    Every generator must be an automorphism of g. The colors are left to the
    block rule of ``partition_quotient``: an orbit may mix colors only when
    all its vertices are isolated, which lets the product group over the
    equivalence classes act on a color-straddling isolated class.
    """
    for p in grp.generators:
        if not is_automorphism(g, p):
            raise NotAutomorphismError(f"generator {p.cycle_string()} is not an automorphism")
    return partition_quotient(g, Partition.from_blocks(grp.orbit_sets()))


@dataclass(frozen=True)
class OrbitPairShape:
    """Shape of the subgraph induced on one (U-orbit, W-orbit) pair.

    ``kind`` is "STARS" (one side all sources, the other all sinks, constant
    fan-out ``fan_out`` with fan_out * |source orbit| = |sink orbit|) or
    "SYMMETRIC_MATCHING" (a perfect matching of symmetric edges).
    """

    u_orbit: frozenset[str]
    w_orbit: frozenset[str]
    kind: str
    fan_out: int | None
    source_side: str | None  # "U" or "W" for STARS, None for matchings


def classify_monochromatic_orbit_pairs(g: ColoredDigraph,
                                       orbit_sets: Iterable[frozenset[str]]
                                       ) -> list[OrbitPairShape]:
    """Shape classification over all edged (U-orbit, W-orbit) pairs of a thin 2-qBMG.

    The caller vouches that g is a thin 2-qBMG and that the orbits come from
    some group of automorphisms of g, color-preserving or not; orbits that
    straddle the color classes are not eligible as a pair side and are
    skipped. Raises PreconditionError when a pair fits neither shape, since
    that contradicts the structure theorem for thin graphs.
    """
    orbits = list(orbit_sets)
    u_orbits = [o for o in orbits if o <= g.color_u]
    w_orbits = [o for o in orbits if o <= g.color_w]
    shapes: list[OrbitPairShape] = []
    for uo in u_orbits:
        for wo in w_orbits:
            forward = {(t, h) for (t, h) in g.edges if t in uo and h in wo}
            backward = {(t, h) for (t, h) in g.edges if t in wo and h in uo}
            if not forward and not backward:
                continue
            shapes.append(_classify_pair(uo, wo, forward, backward))
    return shapes


def _classify_pair(uo: frozenset[str], wo: frozenset[str],
                   forward: set[tuple[str, str]],
                   backward: set[tuple[str, str]]) -> OrbitPairShape:
    sym = {(t, h) for (t, h) in forward if (h, t) in backward}
    if sym:
        # Must be a perfect symmetric matching between the two orbits.
        if len(forward) == len(backward) == len(sym) == len(uo) == len(wo):
            tails = {t for (t, _) in sym}
            heads = {h for (_, h) in sym}
            if tails == uo and heads == wo:
                return OrbitPairShape(uo, wo, "SYMMETRIC_MATCHING", None, None)
        raise PreconditionError(
            f"orbit pair ({sorted(uo, key=token_key)}, {sorted(wo, key=token_key)}) "
            "has symmetric edges but is not a perfect symmetric matching; this "
            "contradicts the thin structure theorem and indicates a bug")
    if forward and backward:
        raise PreconditionError(
            f"orbit pair ({sorted(uo, key=token_key)}, {sorted(wo, key=token_key)}) "
            "has oriented edges in both directions; this contradicts the thin "
            "structure theorem and indicates a bug")
    edges = forward or backward
    src_orbit, dst_orbit = (uo, wo) if forward else (wo, uo)
    side = "U" if forward else "W"
    degrees = {}
    for (t, _) in edges:
        degrees[t] = degrees.get(t, 0) + 1
    fan_outs = set(degrees.values())
    in_degs: dict[str, int] = {}
    for (_, h) in edges:
        in_degs[h] = in_degs.get(h, 0) + 1
    if (
        len(fan_outs) == 1
        and set(degrees) == set(src_orbit)
        and set(in_degs) == set(dst_orbit)
        and set(in_degs.values()) == {1}
    ):
        d = fan_outs.pop()
        if d * len(src_orbit) == len(dst_orbit):
            return OrbitPairShape(uo, wo, "STARS", d, side)
    raise PreconditionError(
        f"orbit pair ({sorted(uo, key=token_key)}, {sorted(wo, key=token_key)}) "
        "is not a disjoint union of stars covering the sink orbit; this "
        "contradicts the thin structure theorem and indicates a bug")


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
