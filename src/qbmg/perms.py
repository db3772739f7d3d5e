"""Vertex permutations and finite permutation groups, with stabilizer chains on request.

A permutation is a rank tuple over its token-sorted domain: a vertex's rank
is its position in the domain, and ``ranks[i]`` is the rank of the image of
rank i, the image-array form over points 0..n-1. Tokens are read through one
rank index per domain (``digraph.rank_index``), shared by every permutation
and graph over that domain, so products, inverses, group elements and the
automorphism test never touch a token.

A group keeps the rank tuples it was generated from and, when its builder
knows them, its order and its orbits. Its orbits and its order are read from
those alone, and so are the canonical generators of a product of symmetric
groups generated by its blocks' transpositions. The first read of anything
else (membership, other canonical generators, the elements) builds a
stabilizer chain whose base is the whole domain in rank order (Sims; Seress,
*Permutation Group Algorithms*, 2003, ch. 4-5): level i holds the orbit of
rank i under the pointwise stabilizer of ranks 0..i-1, with one coset
representative per orbit point, whose inverse is computed when a sift first
reads it. Levels whose orbit is a single point are kept; domains are small.
Schreier-Sims builds the chain. With a known order it sifts the generating
ranks, then random elements made from them, until the orbit lengths multiply
to that order; the deterministic scan of every Schreier generator runs only
for an unknown order, or when the random elements stop adding to the chain.
Membership is a sift through the levels, and the order, when not given, is
the product of the orbit lengths.

A group's elements have one order: their rank tuples, compared
lexicographically. The generator list is canonical: each next generator is
the least element outside the span of those before, found by one greedy
descent through the chain. The elements themselves are enumerated only on
request, already in that order, and only up to ``DEFAULT_ELEMENT_CAP``;
beyond it the request fails loudly.
"""

from __future__ import annotations

import math
import random
from itertools import count, pairwise
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .digraph import ColoredDigraph, bits, rank_index, token_key
from .errors import InternalCheckError, NotAutomorphismError, QbmgError, SizeCapError

__all__ = [
    "Permutation",
    "PermGroup",
    "format_permutation",
    "is_automorphism",
]

DEFAULT_ELEMENT_CAP = 10**6

_Ranks = tuple[int, ...]


class Permutation:
    """A bijection on a fixed vertex domain, stored as a rank tuple.

    ``domain`` is token-sorted and ``ranks[i]`` is the rank of the image of
    ``domain[i]``; every other view is derived from the two.
    """

    __slots__ = ("domain", "ranks", "_index")

    def __init__(self, domain: Iterable[str], images: Iterable[str]):
        self._set_images(tuple(sorted(domain, key=token_key)), tuple(images))

    def _set_images(self, domain: tuple[str, ...], images: tuple[str, ...]) -> None:
        """Set the fields from token images, which must permute the sorted ``domain``."""
        if len(domain) != len(images):
            raise QbmgError("domain and image lists differ in length")
        index = rank_index(domain)
        ranks = tuple(index.get(v, -1) for v in images)
        if -1 in ranks or len(set(ranks)) != len(domain):
            raise QbmgError("images are not a permutation of the domain")
        self.domain, self.ranks, self._index = domain, ranks, index

    @classmethod
    def _trusted(cls, domain: tuple[str, ...], ranks: _Ranks,
                 index: dict[str, int]) -> "Permutation":
        """Build without checks: ``ranks`` permutes 0..n-1 and ``index`` is ``domain``'s."""
        p = cls.__new__(cls)
        p.domain, p.ranks, p._index = domain, ranks, index
        return p

    @classmethod
    def identity(cls, domain: Iterable[str]) -> "Permutation":
        dom = tuple(sorted(domain, key=token_key))
        return cls._trusted(dom, tuple(range(len(dom))), rank_index(dom))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str], domain: Iterable[str]) -> "Permutation":
        """Build from a partial mapping; unlisted domain vertices stay fixed."""
        dom = tuple(sorted(domain, key=token_key))
        extra = set(mapping) - set(dom)
        if extra:
            raise QbmgError(f"mapping moves vertices outside the domain: {sorted(extra, key=token_key)}")
        p = cls.__new__(cls)
        p._set_images(dom, tuple(mapping.get(v, v) for v in dom))
        return p

    @property
    def images(self) -> tuple[str, ...]:
        """The image of each domain vertex, in domain order."""
        return tuple(map(self.domain.__getitem__, self.ranks))

    def __call__(self, v: str) -> str:
        try:
            return self.domain[self.ranks[self._index[v]]]
        except KeyError:
            raise QbmgError(f"vertex {v!r} is not in this permutation's domain") from None

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.domain, self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(v) == self(other(v))."""
        if self.domain != other.domain:
            raise QbmgError("cannot compose permutations over different domains")
        return Permutation._trusted(self.domain, _compose(self.ranks, other.ranks), self._index)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        return Permutation._trusted(self.domain, _invert(self.ranks), self._index)

    def cycles(self) -> list[tuple[str, ...]]:
        """Nontrivial cycles, each starting at its least vertex, sorted."""
        seen = [False] * len(self.ranks)
        out: list[tuple[str, ...]] = []
        for i, x in enumerate(self.ranks):
            if seen[i] or x == i:
                continue
            cyc = [i]
            seen[i] = True
            while x != i:
                cyc.append(x)
                seen[x] = True
                x = self.ranks[x]
            out.append(tuple(map(self.domain.__getitem__, cyc)))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.ranks == other.ranks and self.domain == other.domain

    def __hash__(self) -> int:
        return hash(self.ranks)

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_string()}"


def is_automorphism(g: ColoredDigraph, p: Permutation, color_preserving: bool = False) -> bool:
    """True when p maps edges to edges; with the flag, p must also fix each class setwise.

    For a bijection on a finite vertex set, mapping edges into edges already
    makes the edge map a bijection.
    """
    if p.domain != g.sorted_vertices:
        raise NotAutomorphismError("permutation domain does not match the graph's vertex set")
    x = p.ranks
    if not _maps_edges(g.out_masks, x):
        return False
    return not color_preserving or all(g.u_mask >> x[v] & 1 for v in bits(g.u_mask))


def _maps_edges(out: list[int], x: _Ranks) -> bool:
    """Whether the rank tuple x maps every edge of the out-masks ``out`` to an edge."""
    return all(out[x[t]] >> x[h] & 1 for t, m in enumerate(out) for h in bits(m))


# -- permutation text format: ``p: a->b c->d ...`` (unlisted vertices fixed) --


def format_permutation(p: Permutation) -> str:
    dom = p.domain
    return "p: " + " ".join(f"{dom[i]}->{dom[x]}" for i, x in enumerate(p.ranks) if i != x)


class PermGroup:
    """A finite permutation group: generating rank tuples, plus a stabilizer chain on request.

    ``generating_ranks`` are the rank tuples the group was built from, the
    blocks' transpositions last.
    ``levels[i]`` maps each point b of the orbit of rank i under the
    pointwise stabilizer of ranks 0..i-1 to u, which maps i to b and fixes
    ranks 0..i-1, and gives u^-1 as ``levels[i].inverse(b)``; a point is a
    vertex's rank in ``domain``.
    The chain and the canonical ``generators`` are built on first read.
    """

    __slots__ = ("domain", "generating_ranks", "_order", "_blocks", "_levels",
                 "_generators", "_orbits")

    def __init__(self, domain: tuple[str, ...], generating_ranks: tuple[_Ranks, ...],
                 blocks: tuple[int, ...]):
        self.domain = domain
        self.generating_ranks = generating_ranks
        self._blocks = blocks
        self._order: int | None = None
        self._levels: tuple[dict[int, tuple[_Ranks, _Ranks]], ...] | None = None
        self._generators: tuple[Permutation, ...] | None = None
        self._orbits: tuple[int, ...] | None = None

    @property
    def levels(self) -> tuple[dict[int, tuple[_Ranks, _Ranks]], ...]:
        """The stabilizer chain, built by Schreier-Sims on first read."""
        if self._levels is None:
            n = len(self.domain)
            self._levels = _schreier_sims(n, self.generating_ranks, self._order,
                                          _symmetric_chain(n, self._blocks))
        return self._levels

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """The canonical generating list, built on first use.

        It is the blocks' transpositions when they alone generate the group,
        else it is read off the chain.
        """
        if self._generators is None:
            ranks = self.generating_ranks
            if len(ranks) != sum(b.bit_count() - 1 for b in self._blocks):
                ranks = canonical_generators(self.levels)
            dom, index = self.domain, rank_index(self.domain)
            self._generators = tuple(Permutation._trusted(dom, x, index) for x in ranks)
        return self._generators

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = math.prod(len(level) for level in self.levels)
        return self._order

    @property
    def sorted_elements(self) -> tuple[Permutation, ...]:
        """Every element in rank-tuple order, enumerated on each read.

        Raises ``SizeCapError`` when the order exceeds ``DEFAULT_ELEMENT_CAP``,
        read at call time.
        """
        dom, index = self.domain, rank_index(self.domain)
        return tuple(Permutation._trusted(dom, x, index) for x in self._element_ranks())

    def _element_ranks(self) -> Iterator[_Ranks]:
        """Every element's rank tuple, in order, with the cap of ``sorted_elements``."""
        if self.order > DEFAULT_ELEMENT_CAP:
            raise SizeCapError(f"group order exceeds the element cap of {DEFAULT_ELEMENT_CAP}")
        return _walk(self.levels)

    @property
    def elements(self) -> frozenset[Permutation]:
        return frozenset(self.sorted_elements)

    @classmethod
    def from_generators(cls, generators: Iterable[Permutation],
                        domain: Iterable[str] | None = None) -> "PermGroup":
        gens = list(generators)
        if domain is None:
            if not gens:
                raise QbmgError("cannot infer a domain from an empty generator list")
            domain = gens[0].domain
        dom = tuple(sorted(domain, key=token_key))
        if any(p.domain != dom for p in gens):
            raise QbmgError("generators act on different domains")
        return cls._from_ranks(dom, [p.ranks for p in gens])

    @classmethod
    def _from_ranks(cls, domain: tuple[str, ...], generators: Iterable[_Ranks],
                    order: int | None = None, blocks: Iterable[int] = (),
                    orbits: tuple[int, ...] | None = None) -> "PermGroup":
        """The group generated by rank tuples over ``domain`` and by Sym(B) for each block B.

        ``order`` must be the group's order when given; it is then read
        without a chain, and Schreier-Sims sifts random elements until the
        chain reaches it, since a chain whose orbits are all full is
        complete. Building the chain of a group whose given order is larger
        than its own raises ``InternalCheckError``.
        ``orbits``, when given, must be ``orbit_masks()``'s answer; it is
        then read as is.
        ``blocks`` are disjoint rank masks; the transpositions of their
        consecutive members follow ``generators``, and the product of their
        symmetric groups, whose chain ``_symmetric_chain`` writes down, is
        where Schreier-Sims starts.
        """
        # The order is set here, not passed: bench/spans.py wraps ``__init__``
        # with three positional parameters.
        blocks = tuple(blocks)
        grp = cls(domain, (*generators, *_transpositions(len(domain), blocks)), blocks)
        grp._order, grp._orbits = order, orbits
        return grp

    def __contains__(self, p: Permutation) -> bool:
        return p.domain == self.domain and _sift(self.levels, p.ranks) is None

    def orbit_masks(self) -> tuple[int, ...]:
        """Orbits on the domain as rank masks, least rank first; as built, else computed on
        first use."""
        if self._orbits is None:
            self._orbits = _orbit_masks(len(self.domain), self.generating_ranks)
        return self._orbits

    def orbit_sets(self) -> list[frozenset[str]]:
        """Orbits of the group on its domain, in order of their least vertex."""
        return [frozenset(map(self.domain.__getitem__, bits(m))) for m in self.orbit_masks()]

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, generators={len(self.generators)})"


# -- stabilizer chains on rank tuples: x[i] is the rank of the image of rank i --

# Random Schreier-Sims: the product replacement pool and its warm-up moves,
# the seed, and how many random elements in a row may sift before the
# deterministic scan takes over.
_POOL, _WARMUP, _SEED, _MISSES = 10, 25, 1, 30


class _Level(dict):
    """Level i of a chain: each orbit point b maps to its representative u, which fixes
    ranks 0..i-1 and maps i to b. ``inverse(b)`` is u^-1, computed on first read and kept
    in ``inverses``, which its builder sets."""

    __slots__ = ("inverses",)

    def inverse(self, b: int) -> _Ranks:
        inv = self.inverses.get(b)
        if inv is None:
            inv = self.inverses[b] = _invert(self[b])
        return inv


def _compose(a: _Ranks, b: _Ranks) -> _Ranks:
    """a after b, as one gather."""
    return itemgetter(*b)(a) if len(b) > 1 else tuple(map(a.__getitem__, b))


def _invert(a: _Ranks) -> _Ranks:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _sift(levels, x: _Ranks, start: int = 0) -> tuple[_Ranks, int] | None:
    """Strip x through ``levels[start:]``.

    Returns None when x is a member, else the residue and the level whose
    orbit misses the residue's image; the residue fixes every point before
    that level.
    """
    for i in range(start, len(levels)):
        b = x[i]
        if b != i:
            level = levels[i]
            if b not in level:
                return x, i
            x = _compose(level.inverse(b), x)
    return None


def _random_elements(gens: tuple[_Ranks, ...], n: int) -> Iterator[_Ranks]:
    """Endless elements of <gens> by product replacement with an accumulator, from a fixed
    seed (Celler, Leedham-Green, Murray, Niemeyer and O'Brien, 1995; Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, §3.2.2)."""
    rng, r = random.Random(_SEED), max(_POOL, len(gens))
    pool, acc = [gens[k % len(gens)] for k in range(r)], tuple(range(n))
    for step in count(-_WARMUP):
        k = rng.getrandbits(24)  # one draw picks i != j and the side
        i, j = k % r, k // r % (r - 1)
        j += j >= i
        # pool[i] becomes pool[i] pool[j] or pool[j] pool[i], each one gather
        pool[i] = itemgetter(*pool[j])(pool[i]) if k >> 23 else itemgetter(*pool[i])(pool[j])
        if step >= 0:
            acc = itemgetter(*pool[i])(acc)
            yield acc


def _orbit(x: int, gens: Iterable[_Ranks]) -> set[int]:
    """The orbit of point x under the group the rank tuples ``gens`` generate."""
    orbit, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for s in gens:
            z = s[y]
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


def _orbit_masks(n: int, gens: list[_Ranks]) -> tuple[int, ...]:
    """The orbits of <gens> on 0..n-1 as bit masks, least point first."""
    out: list[int] = []
    seen = 0
    for i in range(n):
        if not seen >> i & 1:
            out.append(sum(1 << x for x in _orbit(i, gens)))
            seen |= out[-1]
    return tuple(out)


def _cycle_masks(x: _Ranks) -> tuple[int, ...]:
    """The cycles of x as bit masks, least point first: ``_orbit_masks(len(x), [x])``."""
    out, seen = [], 0
    for i in range(len(x)):
        if not seen >> i & 1:
            cycle, j = 1 << i, x[i]
            while j != i:
                cycle, j = cycle | 1 << j, x[j]
            out.append(cycle)
            seen |= cycle
    return tuple(out)


def _symmetric_chain(n: int, blocks: Iterable[int]):
    """The complete chain, base 0..n-1, of the product of Sym(B) over disjoint rank masks B.

    The pointwise stabilizer of 0..a-1 is the product of the symmetric groups
    on the members of each block from a on, so level a of block B holds the
    members b >= a of B, each reached by the transposition (a b), which is
    its own inverse. The transpositions of consecutive members form a strong
    generating set, each paired with its first moved point. Returns
    ``(levels, strong)``.
    """
    ident = tuple(range(n))
    levels = tuple(_Level({i: ident}) for i in range(n))
    for i, level in enumerate(levels):
        level.inverses = {i: ident}
    strong: list[tuple[_Ranks, int]] = []
    for block in blocks:
        members = list(bits(block))
        for k, a in enumerate(members):
            for b in members[k + 1:]:
                swap = list(ident)
                swap[a], swap[b] = b, a
                levels[a][b] = levels[a].inverses[b] = tuple(swap)
            if k + 1 < len(members):
                strong.append((levels[a][members[k + 1]], a))
    return levels, strong


def _transpositions(n: int, blocks: Iterable[int]) -> tuple[_Ranks, ...]:
    """The transpositions of consecutive members of each rank mask, on 0..n-1.

    They generate the product of Sym(B) over the blocks B, whose orbits are
    the blocks. By first moved point, greatest first, they are its canonical
    generators: at each level a the descent takes a's swap with the next member.
    """
    out = []
    for a, b in sorted((pair for block in blocks for pair in pairwise(bits(block))),
                       reverse=True):
        swap = list(range(n))
        swap[a], swap[b] = b, a
        out.append(tuple(swap))
    return tuple(out)


def _schreier_sims(n: int, generators: Iterable[_Ranks], order: int | None = None,
                   known=None):
    """The levels of a complete chain of <generators> with base 0..n-1.

    A generator that does not sift becomes a strong generator; one that fixes
    0..j-1 and moves j belongs to levels 0..j. With ``order`` the chain is
    complete once its orbit lengths multiply to it, since every orbit is then
    full; the product is read once and updated for each level an adjoin
    grows. Until then, random elements of the group are sifted and each
    residue is adjoined (random Schreier-Sims, which a known order makes Las
    Vegas: Seress, *Permutation Group Algorithms*, 2003, §4.3). After
    ``_MISSES`` of them in a row sift, or when the order is not given, the
    deterministic scan decides: deepest level first, every Schreier generator
    u_c^-1 s u_b of a level is sifted through the levels below it; a residue
    becomes a strong generator, and the scan resumes at the level where the
    residue stopped. ``tested[i][b]`` counts level i's generators already
    tried with orbit point b, so no pair is sifted twice. A given order that
    the finished scan does not reach raises ``InternalCheckError``.

    ``known`` is ``(levels, strong)``, a complete chain of a subgroup H with
    its strong generators, each with its first moved point; it is the
    starting chain (by default the trivial group's), extended in place.
    Representatives are never replaced, so a Schreier generator of H's own
    points and generators lies in H and still sifts: those pairs start out
    tested (Leon, "Permutation group algorithms based on partitions, I",
    1991).
    """
    levels, strong = known or _symmetric_chain(n, ())
    size = math.prod(len(level) for level in levels)  # the order the chain spans so far
    if known and size == order:
        return levels
    gens: list[list[_Ranks]] = [[] for _ in range(n)]  # level i's: first moved point >= i
    for s, first in strong:
        for i in range(first + 1):
            gens[i].append(s)
    tested = [dict.fromkeys(level, len(g)) for level, g in zip(levels, gens)]
    top = -1

    def adjoin(x: _Ranks, j: int) -> bool:
        nonlocal size, top
        top = max(top, j)
        for i in range(j + 1):
            level, level_gens = levels[i], gens[i]
            level_gens.append(x)
            if i < j and len(level) == 1:  # x and the level's generators all fix i
                continue
            before = len(level)
            fresh = []
            for b, u in list(level.items()):
                if x[b] not in level:
                    level[x[b]] = _compose(x, u)
                    fresh.append(x[b])
            for c in fresh:
                gather = itemgetter(*level[c])
                for s in level_gens:
                    if s[c] not in level:
                        level[s[c]] = gather(s)
                        fresh.append(s[c])
            size = size // before * len(level)
        return size == order

    generators = tuple(generators)
    for x in generators:
        stripped = _sift(levels, x)
        if stripped is not None and adjoin(*stripped):
            return levels
    if order is not None and size != order and generators:
        misses = 0
        for x in _random_elements(generators, n):
            stripped = _sift(levels, x)
            if stripped is not None and adjoin(*stripped):
                return levels
            misses = 0 if stripped else misses + 1
            if misses == _MISSES:
                break
    i = top
    while i >= 0:
        level, done, level_gens = levels[i], tested[i], gens[i]
        resume = None
        for b, u in list(level.items()):
            for k in range(done.get(b, 0), len(level_gens)):
                done[b] = k + 1
                su = _compose(level_gens[k], u)
                stripped = _sift(levels, _compose(level.inverse(su[i]), su), i + 1)
                if stripped is not None:
                    if adjoin(*stripped):
                        return levels
                    resume = stripped[1]
                    break
            if resume is not None:
                break
        i = i - 1 if resume is None else resume
    if order is not None and size != order:
        raise InternalCheckError(f"the chain's orbits multiply to {size}, not the given "
                                 f"order {order}")
    return levels


def _walk(levels) -> Iterator[_Ranks]:
    """Every element of the chain's group, in image-tuple order.

    An element is u_0 u_1 ... u_{n-1} with u_i from level i; every point
    before level i is already placed by the factors before u_i, so ordering
    each level's choices by the image they give point i orders the elements.
    """
    moving = [level for level in levels if len(level) > 1]

    def walk(k: int, x: _Ranks) -> Iterator[_Ranks]:
        if k == len(moving):
            yield x
            return
        level = moving[k]
        for b in sorted(level, key=x.__getitem__):
            yield from walk(k + 1, _compose(x, level[b]))

    return walk(0, tuple(range(len(levels))))


def canonical_generators(levels) -> list[_Ranks]:
    """The deterministic generating list of the chain's group G, as rank tuples.

    Each next generator is min_lex(G∖H), H the span of those before. Let L be
    the least level with G_(L) <= H, G_(i) being the stabilizer of points
    0..i-1. Every generator so far fixes 0..L-2, so G_(L) <= H <= G_(L-1),
    and H holds u_b G_(L) exactly for the points b of the H-orbit of L-1.
    Choosing images point by point, the least element of G∖H takes the
    least image at every level except L-1; there it takes the least point
    outside that orbit. So no chain of H is needed, only one orbit: the point
    alone until a generator is found at its level.
    """
    moving = [i for i, level in enumerate(levels) if len(level) > 1]
    gens: list[_Ranks] = []
    for k in range(len(moving) - 1, -1, -1):
        i = moving[k]
        level, orbit = levels[i], {i}
        while len(orbit) < len(level):
            x = level[min(b for b in level if b not in orbit)]
            for j in moving[k + 1:]:
                b = min(levels[j], key=x.__getitem__)
                if b != j:
                    x = _compose(x, levels[j][b])
            gens.append(x)
            orbit = _orbit(i, gens)
    return gens
