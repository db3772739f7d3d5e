"""Immutable 2-colored digraph values, neighborhood queries, and the graph text format.

Vertices are opaque text tokens. The bipartition into color classes U and W is
part of the value, never inferred, and every edge must cross the two classes.
All values are immutable after construction, so they are safe to share between
threads and to use as dict keys.

A graph numbers its vertices once: a vertex's rank is its position in token
order, and the rank index is shared with every graph and permutation over the
same vertex set (``rank_index``). The graph is stored as ``int`` masks over the
ranks: the color class U and each vertex's out- and in-neighborhood, and, once
``class_masks`` has read them, its twin classes. The token sets ``color_u``,
``color_w`` and ``edges`` are views derived from the masks. Since rank order is
token order, the least set bit of a mask is its least token, and walking the
masks emits the edges sorted. Outside input is validated once, by the token
constructor or, for text, by ``parse_graph`` as it reads the lines; parsed and
derived graphs are built from masks.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator

from .errors import GraphFormatError, QbmgError, SizeCapError, UnknownVertexError

__all__ = [
    "token_key",
    "ColoredDigraph",
    "symmetric_edges",
    "long_induced_path_or_cycle",
    "parse_graph",
    "format_graph",
    "to_dot",
]


def token_key(token: str) -> tuple:
    """Sort key for vertex tokens: numeric tokens by value, then the rest by text.

    Tokens are conventionally decimal integers, and "10" should sort after "9".
    """
    if token.isdigit():
        return (0, len(token), token)
    return (1, 0, token)


@functools.lru_cache(maxsize=256)
def rank_index(domain: tuple[str, ...]) -> dict[str, int]:
    """Each token of the token-sorted ``domain`` to its rank; shared, never mutated."""
    return {v: i for i, v in enumerate(domain)}


def bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def low_bit(mask: int) -> int:
    """The least set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _token_column(line: str, k: int) -> int:
    """The 1-based column of token k (from 0) of ``line``; a trailing comment moves none."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line)][k]


def _check_token(token: str) -> str:
    if not isinstance(token, str) or not token:
        raise QbmgError(f"vertex token must be non-empty text, got {token!r}")
    if any(c.isspace() for c in token) or "#" in token:
        raise QbmgError(f"vertex token {token!r} may not contain whitespace or '#'")
    return token


class ColoredDigraph:
    """A loopless digraph on two disjoint color classes, all edges cross-color.

    Symmetric edges (both directions present) are allowed; parallel edges are
    not representable. Isolated vertices are permitted. A graph is its masks:
    vertex i is ``sorted_vertices[i]``, ``rank`` maps it back to i, bit j of
    ``out_masks[i]``/``in_masks[i]`` is set when j is an out-/in-neighbor of
    i, and ``u_mask`` holds U's ranks. ``color_u``, ``color_w``, ``edges``
    and ``vertices`` are token views derived from the masks on each access.

    Only the token constructor validates. Parsed and derived graphs are built
    from masks by ``_from_masks``; both end in ``_set_masks``, which unsets the twin classes.
    """

    __slots__ = ("sorted_vertices", "rank", "u_mask", "out_masks", "in_masks", "_classes")

    def __init__(
        self,
        color_u: Iterable[str],
        color_w: Iterable[str],
        edges: Iterable[tuple[str, str]],
    ):
        u = frozenset(_check_token(t) for t in color_u)
        w = frozenset(_check_token(t) for t in color_w)
        if overlap := u & w:
            raise QbmgError(f"color classes overlap on {sorted(overlap, key=token_key)}")
        vs = tuple(sorted(u | w, key=token_key))
        rank = rank_index(vs)
        u_mask = sum(1 << rank[v] for v in u)
        out = [0] * len(vs)
        for (t, h) in edges:
            t, h = str(t), str(h)
            if t not in rank:
                raise UnknownVertexError(t)
            if h not in rank:
                raise UnknownVertexError(h)
            if t == h:
                raise QbmgError(f"loop edge at {t!r}")
            a, b = rank[t], rank[h]
            if (u_mask >> a & 1) == (u_mask >> b & 1):
                raise QbmgError(f"edge ({t!r}, {h!r}) joins two vertices of the same color")
            out[a] |= 1 << b
        self._set_masks(vs, u_mask, out)

    @classmethod
    def _from_masks(cls, vs: tuple[str, ...], u_mask: int, out: list[int]) -> "ColoredDigraph":
        """Build without checks: ``vs`` is token-sorted and ``out``'s edges cross ``u_mask``."""
        g = cls.__new__(cls)
        g._set_masks(vs, u_mask, out)
        return g

    def _set_masks(self, vs: tuple[str, ...], u_mask: int, out: list[int]) -> None:
        inn = [0] * len(vs)
        for a, o in enumerate(out):  # ``bits`` inlined: this runs for every edge built
            bit = 1 << a
            while o:
                low = o & -o
                inn[low.bit_length() - 1] |= bit
                o ^= low
        self.sorted_vertices = vs
        self.rank = rank_index(vs)
        self.u_mask = u_mask
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)
        self._classes = None  # the twin classes, filled by ``class_masks``

    # -- token views ----------------------------------------------------------

    @property
    def color_u(self) -> frozenset[str]:
        return frozenset(self.tokens(self.u_mask))

    @property
    def color_w(self) -> frozenset[str]:
        return frozenset(self.tokens(self.w_mask))

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edge_list())

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.sorted_vertices)

    @property
    def w_mask(self) -> int:
        return ~self.u_mask & ((1 << len(self.sorted_vertices)) - 1)

    def tokens(self, mask: int) -> list[str]:
        """The tokens of the ranks in ``mask``, in rank (= token) order."""
        return list(map(self.sorted_vertices.__getitem__, bits(mask)))

    def edge_list(self) -> list[tuple[str, str]]:
        """Every edge as a token pair, in rank (= token) order of tail, then head."""
        vs = self.sorted_vertices
        return [(vs[a], vs[b]) for a, o in enumerate(self.out_masks) for b in bits(o)]

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.sorted_vertices)

    @property
    def n_edges(self) -> int:
        return sum(o.bit_count() for o in self.out_masks)

    def __contains__(self, v: str) -> bool:
        return v in self.rank

    def _rank_of(self, v: str) -> int:
        try:
            return self.rank[v]
        except KeyError:
            raise UnknownVertexError(v) from None

    def out_neighbors(self, v: str) -> frozenset[str]:
        return frozenset(self.tokens(self.out_masks[self._rank_of(v)]))

    def in_neighbors(self, v: str) -> frozenset[str]:
        return frozenset(self.tokens(self.in_masks[self._rank_of(v)]))

    # -- derived graphs -----------------------------------------------------

    def induced_subgraph(self, vs: Iterable[str]) -> "ColoredDigraph":
        """Restrict to a vertex subset, keeping edges with both endpoints inside."""
        keep = sorted({self._rank_of(v) for v in vs})
        new = {a: i for i, a in enumerate(keep)}
        inside = sum(1 << a for a in keep)
        return ColoredDigraph._from_masks(
            tuple(self.sorted_vertices[a] for a in keep),
            sum(1 << i for i, a in enumerate(keep) if self.u_mask >> a & 1),
            [sum(1 << new[b] for b in bits(self.out_masks[a] & inside)) for a in keep],
        )

    def with_out_masks(self, out: list[int]) -> "ColoredDigraph":
        """Same vertices and colors, the edges of ``out``, which must cross the colors."""
        return ColoredDigraph._from_masks(self.sorted_vertices, self.u_mask, out)

    # -- equality -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return (self.sorted_vertices, self.u_mask, self.out_masks) == (
            other.sorted_vertices, other.u_mask, other.out_masks)

    def __hash__(self) -> int:
        return hash((self.sorted_vertices, self.u_mask, self.out_masks))

    def __repr__(self) -> str:
        return (f"ColoredDigraph(|U|={self.u_mask.bit_count()}, "
                f"|W|={self.w_mask.bit_count()}, |E|={self.n_edges})")


def symmetric_pairs(g: ColoredDigraph) -> list[tuple[int, int]]:
    """The symmetric edges as rank pairs (a, b), a < b, in rank order."""
    return [(a, b) for a, o in enumerate(g.out_masks) for b in bits(o & g.in_masks[a]) if a < b]


def class_masks(g: ColoredDigraph) -> tuple[int, ...]:
    """The twin classes, vertices with the same out- and in-neighbors, as rank masks, least
    rank first; all isolated vertices are one class. Computed once per graph, on first use."""
    if g._classes is None:
        groups: dict[tuple[int, int], int] = {}
        for a, sig in enumerate(zip(g.out_masks, g.in_masks)):
            groups[sig] = groups.get(sig, 0) | 1 << a
        g._classes = tuple(groups.values())
    return g._classes


def symmetric_edges(g: ColoredDigraph) -> set[frozenset[str]]:
    """All unordered pairs {u, w} with both directed edges present."""
    vs = g.sorted_vertices
    return {frozenset((vs[a], vs[b])) for a, b in symmetric_pairs(g)}


_PATH_CYCLE_CAP = 64
_PATH_CYCLE_MIN = 6  # a 2-qBMG's underlying graph has no induced path or cycle this long


def long_induced_path_or_cycle(g: ColoredDigraph) -> list[str] | None:
    """Search g's underlying graph for an induced path or cycle on at least 6 vertices.

    Returns the vertex sequence of one such subgraph (cycle witnesses close back
    to the first vertex implicitly), or None. This is a cross-check tool with a
    bounded DFS over induced paths, in rank order. Each DFS is capped at 64
    vertices: the one over a member of each twin class counts the classes, and
    the one over g, run only when the first finds a witness, counts g's vertices.
    """
    # Twins have equal neighborhoods, and no two vertices of an induced path
    # or cycle on 5 or more do, so such a subgraph has one vertex per class,
    # and any twin can stand in for it: g has one iff the subgraph induced on
    # each class's least member has. That is searched first, and g itself,
    # for the rank-order witness, only when it has one.
    least = sum(m & -m for m in class_masks(g))
    if least.bit_count() < _PATH_CYCLE_MIN:
        return None
    adj = [o | i for o, i in zip(g.out_masks, g.in_masks)]
    for within in dict.fromkeys((least, (1 << g.n_vertices) - 1)):
        if (n := within.bit_count()) > _PATH_CYCLE_CAP:
            raise SizeCapError(
                f"induced path search capped at {_PATH_CYCLE_CAP} vertices, got {n}")
        if (found := _induced_path_dfs(adj, within)) is None:
            return None
    return [g.sorted_vertices[v] for v in found]


def _induced_path_dfs(adj: list[int], within: int) -> list[int] | None:
    """The first induced path or cycle on 6 or more of the ranks in ``within``, in rank order,
    in the undirected graph whose neighbor masks are ``adj``."""
    path: list[int] = []
    on_path = 0

    def extend() -> list[int] | None:
        nonlocal on_path
        if len(path) >= _PATH_CYCLE_MIN:
            return list(path)
        last = path[-1]
        first = path[0]
        ends = 1 << last | 1 << first
        for nxt in bits(adj[last] & within & ~on_path):
            if adj[nxt] & on_path & ~ends:
                continue
            if adj[nxt] >> first & 1 and len(path) >= 2:
                # nxt touches both ends and nothing in between: induced cycle.
                if len(path) + 1 >= _PATH_CYCLE_MIN:
                    return path + [nxt]
                continue
            path.append(nxt)
            on_path |= 1 << nxt
            found = extend()
            path.pop()
            on_path &= ~(1 << nxt)
            if found:
                return found
        return None

    for start in bits(within):
        path = [start]
        on_path = 1 << start
        found = extend()
        if found:
            return found
    return None


# -- text format ------------------------------------------------------------
#
#   qbmg 1
#   U: <id> <id> ...
#   W: <id> <id> ...
#   e <tail> <head>        (one line per directed edge)
#
# '#' starts a comment; blank lines are ignored.


def _edge_line_error(ln: int, body: str, raw: str, rank: dict[str, int],
                     u_mask: int) -> GraphFormatError:
    """The first fault of an edge line that ``parse_graph`` rejected, in the order keyword,
    arity, undeclared vertex, loop, color; a line with none of these repeats an edge."""
    parts = body.split()
    if parts[0] != "e":
        return GraphFormatError(f"expected edge line 'e <tail> <head>', got {body!r}", line=ln)
    if len(parts) != 3:
        column = _token_column(raw, 3) if len(parts) > 3 else None
        return GraphFormatError(f"edge line needs exactly two endpoints, got {body!r}",
                                line=ln, column=column)
    tail, head = parts[1], parts[2]
    for v in (tail, head):
        if v not in rank:
            return GraphFormatError(f"edge references undeclared vertex {v!r}", line=ln,
                                    column=_token_column(raw, parts.index(v, 1)))
    if tail == head:
        return GraphFormatError(f"loop edge at {tail!r}", line=ln)
    a, b = rank[tail], rank[head]
    if (u_mask >> a & 1) == (u_mask >> b & 1):
        return GraphFormatError(
            f"edge ({tail!r}, {head!r}) joins two vertices of the same color", line=ln)
    return GraphFormatError(f"duplicate edge ({tail!r}, {head!r})", line=ln)


def parse_graph(text: str) -> ColoredDigraph:
    """Parse the qbmg text format; raise GraphFormatError with the offending line."""
    lines: list[tuple[int, str]] = []
    raw_lines = text.splitlines()
    for i, raw in enumerate(raw_lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped))
    if not lines:
        raise GraphFormatError("empty input, expected 'qbmg 1' header")

    idx = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal idx
        if idx >= len(lines):
            raise GraphFormatError(f"unexpected end of input, expected {what}",
                                   line=lines[-1][0])
        item = lines[idx]
        idx += 1
        return item

    ln, header = take("'qbmg 1' header")
    if header.split() != ["qbmg", "1"]:
        raise GraphFormatError(f"expected header 'qbmg 1', got {header!r}", line=ln)

    def class_line(prefix: str) -> tuple[int, list[str]]:
        ln, body = take(f"'{prefix}:' class line")
        if not body.startswith(prefix + ":"):
            raise GraphFormatError(f"expected '{prefix}:' class line, got {body!r}", line=ln)
        return ln, body[len(prefix) + 1:].split()

    u_ln, u_tokens = class_line("U")
    w_ln, w_tokens = class_line("W")
    # Tokens come from str.split() on comment-free lines: non-empty, without
    # whitespace or '#', so _check_token could not fail on them.
    declared: set[str] = set()
    for ln, toks in ((u_ln, u_tokens), (w_ln, w_tokens)):
        for t in toks:
            if t in declared:
                raise GraphFormatError(f"duplicate vertex {t!r}", line=ln)
            declared.add(t)
    vs = tuple(sorted(declared, key=token_key))
    rank = rank_index(vs)
    u_mask = sum(1 << rank[t] for t in u_tokens)
    out = [0] * len(vs)
    for ln, body in lines[idx:]:
        try:
            e, tail, head = body.split()
            a, b = rank[tail], rank[head]
        except (ValueError, KeyError):
            raise _edge_line_error(ln, body, raw_lines[ln - 1], rank, u_mask) from None
        # A loop joins two vertices of the same color, so one test covers it.
        if e != "e" or not (u_mask >> a ^ u_mask >> b) & 1 or out[a] >> b & 1:
            raise _edge_line_error(ln, body, raw_lines[ln - 1], rank, u_mask)
        out[a] |= 1 << b

    return ColoredDigraph._from_masks(vs, u_mask, out)


def format_graph(g: ColoredDigraph, comments: Iterable[str] = ()) -> str:
    """Serialize deterministically: sorted classes, sorted edges."""
    out = []
    for c in comments:
        out.append(f"# {c}")
    out.append("qbmg 1")
    out.append(("U: " + " ".join(g.tokens(g.u_mask))).rstrip())
    out.append(("W: " + " ".join(g.tokens(g.w_mask))).rstrip())
    out.extend(f"e {t} {h}" for (t, h) in g.edge_list())
    return "\n".join(out) + "\n"


def to_dot(g: ColoredDigraph) -> str:
    """Plain DOT emission, no layout logic, as ``digraph qbmg``. U vertices are circles, W boxes."""
    lines = ["digraph qbmg {"]
    lines.extend(f'  "{v}" [shape=circle];' for v in g.tokens(g.u_mask))
    lines.extend(f'  "{v}" [shape=box];' for v in g.tokens(g.w_mask))
    lines.extend(f'  "{t}" -> "{h}";' for (t, h) in g.edge_list())
    lines.append("}")
    return "\n".join(lines) + "\n"
