"""Vertex permutations and finite permutation groups stored by explicit elements.

Groups at the scale this package targets (a few hundred vertices, orders up to
one million) are materialized as full element sets. Anything larger fails
loudly instead of silently switching to a different representation.

A group's elements have one order: image tuples, compared by each image's
rank in the token-sorted domain. ``from_elements`` sorts once and keeps the
result as the group's ``sorted_elements``.

One routine does all closure: a Dimino step grows the span of some
generators, a group H, to <H, p> by whole right cosets H*r. A generator list
is closed by repeating it under the element cap. The canonical generating
list of an element set comes from repeating it over the elements in that
order, and that scan also proves the set a group: the span may never leave
the set, and a finite set closed under composition is a group.
Products and inverses of permutations skip the input checks of the public
constructor, since their images are a permutation of the same sorted domain
by construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .digraph import ColoredDigraph, token_key
from .errors import GraphFormatError, NotAutomorphismError, QbmgError, SizeCapError

__all__ = [
    "Permutation",
    "PermGroup",
    "parse_permutation",
    "format_permutation",
    "is_automorphism",
]

DEFAULT_ELEMENT_CAP = 10**6


class Permutation:
    """A bijection on a fixed vertex domain."""

    __slots__ = ("domain", "images", "_map", "_hash")

    def __init__(self, domain: Iterable[str], images: Iterable[str]):
        dom = tuple(sorted(domain, key=token_key))
        img = tuple(images)
        if len(dom) != len(img):
            raise QbmgError("domain and image lists differ in length")
        if set(img) != set(dom):
            raise QbmgError("images are not a permutation of the domain")
        self._set(dom, img)

    def _set(self, domain: tuple[str, ...], images: tuple[str, ...]) -> None:
        self.domain = domain
        self.images = images
        self._map = dict(zip(domain, images))
        self._hash = hash((domain, images))

    @classmethod
    def _trusted(cls, domain: tuple[str, ...], images: tuple[str, ...]) -> "Permutation":
        """Build without checks: ``domain`` is token-sorted and ``images`` a permutation of it."""
        p = cls.__new__(cls)
        p._set(domain, images)
        return p

    @classmethod
    def identity(cls, domain: Iterable[str]) -> "Permutation":
        dom = tuple(sorted(domain, key=token_key))
        return cls(dom, dom)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str], domain: Iterable[str]) -> "Permutation":
        """Build from a partial mapping; unlisted domain vertices stay fixed."""
        dom = tuple(sorted(domain, key=token_key))
        extra = set(mapping) - set(dom)
        if extra:
            raise QbmgError(f"mapping moves vertices outside the domain: {sorted(extra, key=token_key)}")
        return cls(dom, tuple(mapping.get(v, v) for v in dom))

    def __call__(self, v: str) -> str:
        try:
            return self._map[v]
        except KeyError:
            raise QbmgError(f"vertex {v!r} is not in this permutation's domain") from None

    def as_dict(self) -> dict[str, str]:
        return dict(self._map)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(v) == self(other(v))."""
        if self.domain != other.domain:
            raise QbmgError("cannot compose permutations over different domains")
        return Permutation._trusted(self.domain, tuple(self._map[w] for w in other.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = {w: v for v, w in self._map.items()}
        return Permutation._trusted(self.domain, tuple(inv[v] for v in self.domain))

    def is_identity(self) -> bool:
        return self.domain == self.images

    def fixed_points(self) -> frozenset[str]:
        return frozenset(v for v in self.domain if self._map[v] == v)

    def cycles(self) -> list[tuple[str, ...]]:
        """Nontrivial cycles, each starting at its least vertex, sorted."""
        seen: set[str] = set()
        out: list[tuple[str, ...]] = []
        for v in self.domain:
            if v in seen or self._map[v] == v:
                continue
            cyc = [v]
            seen.add(v)
            w = self._map[v]
            while w != v:
                cyc.append(w)
                seen.add(w)
                w = self._map[w]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.domain == other.domain and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_string()}"


def is_automorphism(g: ColoredDigraph, p: Permutation, color_preserving: bool = False) -> bool:
    """True when p maps edges to edges; with the flag, p must also fix each class setwise.

    For a bijection on a finite vertex set, mapping edges into edges already
    makes the edge map a bijection.
    """
    if p.domain != g.sorted_vertices:
        raise NotAutomorphismError("permutation domain does not match the graph's vertex set")
    edges = g.edges
    if any((p(t), p(h)) not in edges for (t, h) in edges):
        return False
    return not color_preserving or {p(v) for v in g.color_u} == g.color_u


# -- permutation text format: ``p: a->b c->d ...`` (unlisted vertices fixed) --


def parse_permutation(text: str, domain: Iterable[str]) -> Permutation:
    body = text.strip()
    if not body.startswith("p:"):
        raise GraphFormatError(f"expected permutation line 'p: a->b ...', got {text!r}", line=1)
    mapping: dict[str, str] = {}
    for tok in body[2:].split():
        if "->" not in tok:
            raise GraphFormatError(f"bad mapping token {tok!r}, expected 'a->b'",
                                   line=1, column=text.find(tok) + 1)
        a, b = tok.split("->", 1)
        if not a or not b:
            raise GraphFormatError(f"bad mapping token {tok!r}", line=1)
        if a in mapping:
            raise GraphFormatError(f"vertex {a!r} mapped twice", line=1)
        mapping[a] = b
    try:
        return Permutation.from_mapping(mapping, domain)
    except QbmgError as exc:
        raise GraphFormatError(str(exc), line=1) from exc


def format_permutation(p: Permutation) -> str:
    moved = [v for v in p.domain if p(v) != v]
    return "p: " + " ".join(f"{v}->{p(v)}" for v in moved)


class PermGroup:
    """A finite permutation group: generators plus the enumerated element set."""

    __slots__ = ("domain", "generators", "elements", "_sorted_elements")

    def __init__(self, domain: tuple[str, ...], generators: tuple[Permutation, ...],
                 elements: frozenset[Permutation]):
        self.domain = domain
        self.generators = generators
        self.elements = elements
        self._sorted_elements: tuple[Permutation, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def sorted_elements(self) -> tuple[Permutation, ...]:
        if self._sorted_elements is None:
            self._sorted_elements = _by_rank(self.elements, self.domain)
        return self._sorted_elements

    @classmethod
    def trivial(cls, domain: Iterable[str]) -> "PermGroup":
        ident = Permutation.identity(domain)
        return cls(ident.domain, (), frozenset((ident,)))

    @classmethod
    def from_generators(cls, generators: Iterable[Permutation],
                        domain: Iterable[str] | None = None) -> "PermGroup":
        gens = list(generators)
        if domain is None:
            if not gens:
                raise QbmgError("cannot infer a domain from an empty generator list")
            domain = gens[0].domain
        ident = Permutation.identity(domain)
        if any(p.domain != ident.domain for p in gens):
            raise QbmgError("generators act on different domains")
        span: set[Permutation] = {ident}
        closing: list[Permutation] = []
        for p in gens:
            if p not in span:
                _dimino_step(span, closing, p)
        return cls.from_elements(span, ident.domain)

    @classmethod
    def from_elements(cls, elements: Iterable[Permutation],
                      domain: Iterable[str] | None = None) -> "PermGroup":
        elems = frozenset(elements)
        if not elems:
            raise QbmgError("a group needs at least the identity element")
        some = next(iter(elems))
        dom = tuple(sorted(domain, key=token_key)) if domain is not None else some.domain
        if Permutation.identity(dom) not in elems:
            raise QbmgError("element set does not contain the identity")
        if any(p.domain != dom for p in elems):
            raise QbmgError("elements act on different domains")
        ordered = _by_rank(elems, dom)
        grp = cls(dom, tuple(canonical_generators(ordered, elems)), elems)
        grp._sorted_elements = ordered
        return grp

    def __contains__(self, p: Permutation) -> bool:
        return p in self.elements

    def orbit_sets(self) -> list[frozenset[str]]:
        """Orbits of the group on its domain, via union over the generators."""
        parent = {v: v for v in self.domain}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in self.generators:
            for v in self.domain:
                a, b = find(v), find(p(v))
                if a != b:
                    parent[a] = b
        buckets: dict[str, set[str]] = {}
        for v in self.domain:
            buckets.setdefault(find(v), set()).add(v)
        return sorted((frozenset(s) for s in buckets.values()),
                      key=lambda s: token_key(min(s, key=token_key)))

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, generators={len(self.generators)})"


def _dimino_step(span: set[Permutation], gens: list[Permutation], p: Permutation, *,
                 members: frozenset[Permutation] | None = None) -> None:
    """Grow ``span``, the group generated by ``gens``, to <gens, p> in place.

    The span H grows by whole right cosets H*r (Dimino): a coset is added for
    each product r*s, r a coset representative and s a generator, that is not
    yet in the span; p is appended to ``gens``. With ``members`` the span must
    stay inside that element set, and p's inverse must lie in it; otherwise the
    span may not grow beyond ``DEFAULT_ELEMENT_CAP`` elements, read at call time.
    """
    if members is not None and p.inverse() not in members:
        raise QbmgError(f"element set is not closed under inverse at {p!r}")
    gens.append(p)
    subgroup = tuple(span)
    pending = [p]
    while pending:
        r = pending.pop()
        if r in span:
            continue
        if members is None and len(span) + len(subgroup) > DEFAULT_ELEMENT_CAP:
            raise SizeCapError(f"group order exceeds the element cap of {DEFAULT_ELEMENT_CAP}")
        for h in subgroup:
            x = h.compose(r)
            if members is not None and x not in members:
                raise QbmgError("element set is not closed under composition")
            span.add(x)
        pending.extend(r.compose(s) for s in gens)


def _by_rank(elements: Iterable[Permutation], domain: tuple[str, ...]) -> tuple[Permutation, ...]:
    """The elements in image-tuple order, each token compared by its rank in ``domain``."""
    rank = {v: i for i, v in enumerate(domain)}
    return tuple(sorted(elements, key=lambda p: [rank[v] for v in p.images]))


def canonical_generators(ordered: tuple[Permutation, ...],
                         members: frozenset[Permutation]) -> list[Permutation]:
    """A deterministic generating list: greedy scan over ``ordered``, the elements by rank.

    ``members`` holds the same elements. Each element not yet in the span of
    the generators so far becomes a generator, and a Dimino step grows the
    span by it. Raises when the span grows beyond ``members``, which are then
    not closed under composition.
    """
    span: set[Permutation] = {ordered[0]}  # the identity, whose images are the domain, sorts first
    gens: list[Permutation] = []
    for p in ordered:
        if p not in span:
            _dimino_step(span, gens, p, members=members)
    return gens
