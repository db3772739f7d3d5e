"""Membership axioms for 2-colored quasi best match graphs.

A loopless cross-color digraph is a 2-qBMG when it satisfies:

  N1  for independent vertices u, v there are no w, t with u->t, v->w, t->w;
  N2  bi-transitivity: every directed walk u->v->w->t has the chord u->t;
  N3  vertices sharing an out-neighbor have nested out-neighborhoods.

An equivalent characterization replaces N3 by N3*: same-color vertices u, v
with a common out-neighbor and no two-edge connection between them (u->x->v
or v->x->u) must have equal in-neighborhoods and nested out-neighborhoods.
``is_2qbmg`` evaluates both routes and raises if they ever disagree, which
would indicate a checker bug rather than bad input.

Witnesses are the lexicographically first violating tuple under vertex-token
order, so reports are reproducible across runs. The checks run on the graph's
neighborhood masks, whose bit order is token order, so the first witness is
always the least set bit.

N1 and N2 are decided by unions of masks, each built with one OR per edge.
Let co[t] be the union of in(w) over w in out(t): the vertices sharing an
out-neighbor with t. N1 fails at u iff the union of co[t] over t in out(u)
meets the vertices independent of u. Let two[v] be the union of out(w) over
w in out(v). N2 fails at u iff the union of two[v] over v in out(u) leaves
out(u). A union has a bit exactly when some term of the scan over v, then w,
then t does, so the first failing u is the one the scan would find. The
witness is then read off at that u alone, least bit first: the scan's tuple.

N3 and N3* only constrain pairs with a common out-neighbor, so they visit
the pairs u < v with v in co[u], least v first: the scan over all pairs less
the pairs that cannot fail, so the first witness is the scan's. Two such
vertices are in-neighbors of one vertex, hence of one color, and N3* needs no
color test.

``axiom_report`` and ``is_2qbmg`` build co once and pass it to N1, N3 and
N3*.

Quantification note: in a bipartite digraph the only possible coincidences in
the N2 walk are u = w and v = t, and both make the chord an edge of the walk
itself, so reading the quantifiers over distinct or arbitrary vertices gives
the same verdict. Triviality flags, by contrast, count degenerate patterns:
a symmetric edge already yields a three-edge walk, hence a graph containing
one is never N2-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .digraph import ColoredDigraph, bits, class_masks, low_bit
from .errors import InternalCheckError

__all__ = [
    "Verdict",
    "AxiomReport",
    "satisfies_star",
    "is_thin",
    "axiom_report",
    "is_2qbmg",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one axiom check; carries a violating witness when false."""

    holds: bool
    witness: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a false verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.holds


_TRUE = Verdict(True)


def _joins(sets: Sequence[int], masks: Sequence[int]) -> Iterator[int]:
    """Entry i: the union of ``masks[j]`` over the set bits j of ``sets[i]``, lazily."""
    for s in sets:  # ``bits`` inlined: this runs once per edge
        acc = 0
        while s:
            low = s & -s
            acc |= masks[low.bit_length() - 1]
            s ^= low
        yield acc


def _co(g: ColoredDigraph) -> list[int]:
    """Entry t: every v with v->w and t->w for some w; t itself when out(t) is not empty."""
    return list(_joins(g.out_masks, g.in_masks))


def _n1(g: ColoredDigraph, co: Sequence[int]) -> Verdict:
    """No pattern u->t, v->w, t->w over an independent pair u, v.

    Witness: lexicographically first violating (u, v, w, t).
    """
    vs, out, inn = g.sorted_vertices, g.out_masks, g.in_masks
    for u, reach in enumerate(_joins(out, co)):
        bad = reach & ~(out[u] | inn[u] | 1 << u)
        if bad:
            v, out_u = low_bit(bad), out[u]
            w = next(w for w in bits(out[v]) if inn[w] & out_u)
            return Verdict(False, (vs[u], vs[v], vs[w], vs[low_bit(inn[w] & out_u)]))
    return _TRUE


def _n2(g: ColoredDigraph) -> Verdict:
    """Every directed walk u->v->w->t has the chord u->t.

    Witness: lexicographically first chordless (u, v, w, t).
    """
    vs, out = g.sorted_vertices, g.out_masks
    two = list(_joins(out, out))  # two[v]: every t with v->w->t for some w
    for u, (out_u, three) in enumerate(zip(out, _joins(out, two))):
        if three & ~out_u:
            v = next(v for v in bits(out_u) if two[v] & ~out_u)
            w = next(w for w in bits(out[v]) if out[w] & ~out_u)
            return Verdict(False, (vs[u], vs[v], vs[w], vs[low_bit(out[w] & ~out_u)]))
    return _TRUE


def _n3(g: ColoredDigraph, co: Sequence[int]) -> Verdict:
    """Vertices with a common out-neighbor have nested out-neighborhoods.

    Witness: first pair (u, v) with overlapping, incomparable out-sets.
    """
    vs, out = g.sorted_vertices, g.out_masks
    for u, (out_u, co_u) in enumerate(zip(out, co)):
        pairs = co_u & -(2 << u)  # the v > u sharing an out-neighbor with u
        while pairs:  # ``bits`` inlined: this runs once per such pair
            low = pairs & -pairs
            pairs ^= low
            v = low.bit_length() - 1
            common = out_u & out[v]
            if common != out_u and common != out[v]:
                return Verdict(False, (vs[u], vs[v]))
    return _TRUE


def _n3star(g: ColoredDigraph, co: Sequence[int]) -> Verdict:
    """The N3* condition on unmediated same-color pairs with a common out-neighbor.

    For such u, v: equal in-neighborhoods and nested out-neighborhoods.
    Witness: first violating pair (u, v).
    """
    vs, out, inn = g.sorted_vertices, g.out_masks, g.in_masks
    for u, (out_u, co_u) in enumerate(zip(out, co)):
        in_u = inn[u]
        pairs = co_u & -(2 << u)  # the v > u sharing an out-neighbor with u
        while pairs:  # ``bits`` inlined: this runs once per such pair
            low = pairs & -pairs
            pairs ^= low
            v = low.bit_length() - 1
            out_v, in_v = out[v], inn[v]
            if (out_u & in_v) or (out_v & in_u):
                continue
            common = out_u & out_v
            if in_u != in_v or (common != out_u and common != out_v):
                return Verdict(False, (vs[u], vs[v]))
    return _TRUE


def satisfies_star(g: ColoredDigraph) -> Verdict:
    """Symmetric edges form a matching: no two share an endpoint.

    Witness: the first vertex lying on two or more symmetric edges.
    """
    for v, (o, i) in enumerate(zip(g.out_masks, g.in_masks)):
        if (o & i).bit_count() >= 2:
            return Verdict(False, (g.sorted_vertices[v],))
    return _TRUE


def is_thin(g: ColoredDigraph) -> bool:
    """True when every twin class is a single vertex: no two share both neighborhoods.

    Two isolated vertices already make a graph non-thin.
    """
    return len(class_masks(g)) == g.n_vertices


def _n1_trivial(g: ColoredDigraph) -> bool:
    # The hypothesis pattern u->t, v->w, t->w exists iff some directed
    # two-edge walk exists (take v to be the walk's middle vertex).
    return not any(o and i for o, i in zip(g.out_masks, g.in_masks))


def _n2_trivial(g: ColoredDigraph) -> bool:
    # A three-edge walk exists iff some edge has an in-neighbor before it
    # and an out-neighbor after it.
    has_out = sum(1 << v for v, o in enumerate(g.out_masks) if o)
    return not any(i and o & has_out for o, i in zip(g.out_masks, g.in_masks))


def _n3_trivial(g: ColoredDigraph) -> bool:
    # Two distinct vertices share an out-neighbor iff some in-degree is >= 2.
    return all(i.bit_count() <= 1 for i in g.in_masks)


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts for all four axioms plus triviality flags.

    ``proper`` means the graph is a 2-qBMG whose N2 hypotheses actually arise
    somewhere, so bi-transitivity is not satisfied vacuously.
    """

    n1: Verdict
    n2: Verdict
    n3: Verdict
    n3star: Verdict
    n1_trivial: bool
    n2_trivial: bool
    n3_trivial: bool
    is_2qbmg: bool
    proper: bool

    @property
    def n_trivial(self) -> bool:
        return self.n1_trivial and self.n2_trivial and self.n3_trivial


def axiom_report(g: ColoredDigraph) -> AxiomReport:
    """Evaluate everything: all four axioms, both membership routes, flags.

    The per-axiom entry point: each verdict carries its first witness.
    """
    co = _co(g)
    n1 = _n1(g, co)
    n2 = _n2(g)
    n3 = _n3(g, co)
    n3s = _n3star(g, co)
    member = bool(n1) and bool(n2) and bool(n3)
    member_star = bool(n1) and bool(n2) and bool(n3s)
    if member != member_star:
        raise InternalCheckError(
            f"recognizer routes disagree on {g!r}: "
            f"N1^N2^N3={member} but N1^N2^N3*={member_star}"
        )
    n2_triv = _n2_trivial(g)
    return AxiomReport(
        n1=n1,
        n2=n2,
        n3=n3,
        n3star=n3s,
        n1_trivial=_n1_trivial(g),
        n2_trivial=n2_triv,
        n3_trivial=_n3_trivial(g),
        is_2qbmg=member,
        proper=member and not n2_triv,
    )


def is_2qbmg(g: ColoredDigraph) -> bool:
    """Fast membership check; cross-checks the N3 and N3* routes when reached.

    Short-circuits on an N1 or N2 failure, where both routes are false for
    the same reason and nothing is learned by evaluating the third axiom.
    """
    co = _co(g)
    if not _n1(g, co) or not _n2(g):
        return False
    n3 = bool(_n3(g, co))
    n3s = bool(_n3star(g, co))
    if n3 != n3s:
        raise InternalCheckError(
            f"recognizer routes disagree on {g!r}: N3={n3} but N3*={n3s} under N1 and N2"
        )
    return n3
