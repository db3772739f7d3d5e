"""Immutable 2-colored digraph values, neighborhood queries, and the graph text format.

Vertices are opaque text tokens. The bipartition into color classes U and W is
part of the value, never inferred, and every edge must cross the two classes.
All values are immutable after construction, so they are safe to share between
threads and to use as dict keys.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import GraphFormatError, QbmgError, SizeCapError, UnknownVertexError

__all__ = [
    "token_key",
    "ColoredDigraph",
    "symmetric_edges",
    "underlying_undirected",
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
    not representable. Isolated vertices are permitted. Forward and reverse
    adjacency are both materialized so neighborhood queries are O(1) lookups.
    """

    __slots__ = ("color_u", "color_w", "edges", "_out", "_in", "_sorted")

    def __init__(
        self,
        color_u: Iterable[str],
        color_w: Iterable[str],
        edges: Iterable[tuple[str, str]],
    ):
        u = frozenset(_check_token(t) for t in color_u)
        w = frozenset(_check_token(t) for t in color_w)
        overlap = u & w
        if overlap:
            raise QbmgError(f"color classes overlap on {sorted(overlap, key=token_key)}")
        e = frozenset((str(t), str(h)) for (t, h) in edges)
        vertices = u | w
        out: dict[str, set[str]] = {v: set() for v in vertices}
        inn: dict[str, set[str]] = {v: set() for v in vertices}
        for (t, h) in e:
            if t not in vertices:
                raise UnknownVertexError(t)
            if h not in vertices:
                raise UnknownVertexError(h)
            if t == h:
                raise QbmgError(f"loop edge at {t!r}")
            if (t in u) == (h in u):
                raise QbmgError(f"edge ({t!r}, {h!r}) joins two vertices of the same color")
            out[t].add(h)
            inn[h].add(t)
        self.color_u = u
        self.color_w = w
        self.edges = e
        self._out = {v: frozenset(s) for v, s in out.items()}
        self._in = {v: frozenset(s) for v, s in inn.items()}
        self._sorted = tuple(sorted(vertices, key=token_key))

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> frozenset[str]:
        return self.color_u | self.color_w

    @property
    def sorted_vertices(self) -> tuple[str, ...]:
        return self._sorted

    @property
    def n_vertices(self) -> int:
        return len(self._sorted)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __contains__(self, v: str) -> bool:
        return v in self._out

    def out_neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._out[v]
        except KeyError:
            raise UnknownVertexError(v) from None

    def in_neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._in[v]
        except KeyError:
            raise UnknownVertexError(v) from None

    def is_isolated(self, v: str) -> bool:
        return not self.out_neighbors(v) and not self.in_neighbors(v)

    def isolated_vertices(self) -> frozenset[str]:
        return frozenset(v for v in self._sorted if not self._out[v] and not self._in[v])

    # -- derived graphs -----------------------------------------------------

    def induced_subgraph(self, vs: Iterable[str]) -> "ColoredDigraph":
        """Restrict to a vertex subset, keeping edges with both endpoints inside."""
        keep = frozenset(vs)
        for v in keep:
            if v not in self._out:
                raise UnknownVertexError(v)
        return ColoredDigraph(
            self.color_u & keep,
            self.color_w & keep,
            ((t, h) for (t, h) in self.edges if t in keep and h in keep),
        )

    def with_edges(self, edges: Iterable[tuple[str, str]]) -> "ColoredDigraph":
        """Same vertex classes, different edge set."""
        return ColoredDigraph(self.color_u, self.color_w, edges)

    # -- equality -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return (
            self.color_u == other.color_u
            and self.color_w == other.color_w
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.color_u, self.color_w, self.edges))

    def __repr__(self) -> str:
        return (
            f"ColoredDigraph(|U|={len(self.color_u)}, |W|={len(self.color_w)}, "
            f"|E|={len(self.edges)})"
        )


def symmetric_edges(g: ColoredDigraph) -> set[frozenset[str]]:
    """All unordered pairs {u, w} with both directed edges present."""
    return {frozenset((t, h)) for (t, h) in g.edges if (h, t) in g.edges}


def underlying_undirected(g: ColoredDigraph) -> set[frozenset[str]]:
    """Undirected edge set: each directed or symmetric edge collapses to one pair."""
    return {frozenset((t, h)) for (t, h) in g.edges}


_PATH_CYCLE_CAP = 64
_PATH_CYCLE_MIN = 6  # a 2-qBMG's underlying graph has no induced path or cycle this long


def long_induced_path_or_cycle(
    vertices: Iterable[str],
    undirected_edges: Iterable[frozenset[str]],
) -> list[str] | None:
    """Search an undirected graph for an induced path or cycle on at least 6 vertices.

    Returns the vertex sequence of one such subgraph (cycle witnesses close back
    to the first vertex implicitly), or None. This is a cross-check tool with a
    bounded DFS over induced paths; inputs are capped at 64 vertices.
    """
    verts = sorted(set(vertices), key=token_key)
    if len(verts) > _PATH_CYCLE_CAP:
        raise SizeCapError(f"induced path search capped at {_PATH_CYCLE_CAP} vertices, got {len(verts)}")
    adj: dict[str, set[str]] = {v: set() for v in verts}
    for pair in undirected_edges:
        pair = tuple(pair)
        if len(pair) != 2:
            raise QbmgError(f"undirected edge must join two distinct vertices, got {pair!r}")
        a, b = pair
        if a not in adj or b not in adj:
            raise UnknownVertexError(a if a not in adj else b)
        adj[a].add(b)
        adj[b].add(a)

    path: list[str] = []
    on_path: set[str] = set()

    def extend() -> list[str] | None:
        if len(path) >= _PATH_CYCLE_MIN:
            return list(path)
        last = path[-1]
        first = path[0]
        for nxt in sorted(adj[last], key=token_key):
            if nxt in on_path:
                continue
            earlier = adj[nxt] & on_path
            if earlier - {last, first}:
                continue
            closes = first in adj[nxt] and len(path) >= 2
            if closes:
                # nxt touches both ends and nothing in between: induced cycle.
                if len(path) + 1 >= _PATH_CYCLE_MIN:
                    return list(path) + [nxt]
                continue
            path.append(nxt)
            on_path.add(nxt)
            found = extend()
            path.pop()
            on_path.discard(nxt)
            if found:
                return found
        return None

    for start in verts:
        path = [start]
        on_path = {start}
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
    u_set: set[str] = set()
    w_set: set[str] = set()
    for ln, toks, acc in ((u_ln, u_tokens, u_set), (w_ln, w_tokens, w_set)):
        for t in toks:
            if t in u_set or t in w_set:
                raise GraphFormatError(f"duplicate vertex {t!r}", line=ln)
            try:
                _check_token(t)
            except QbmgError as exc:
                raise GraphFormatError(str(exc), line=ln) from exc
            acc.add(t)

    edges: set[tuple[str, str]] = set()
    while idx < len(lines):
        ln, body = take("edge line")
        parts = body.split()
        if parts[0] != "e":
            raise GraphFormatError(f"expected edge line 'e <tail> <head>', got {body!r}", line=ln)
        if len(parts) != 3:
            column = _token_column(raw_lines[ln - 1], 3) if len(parts) > 3 else None
            raise GraphFormatError(f"edge line needs exactly two endpoints, got {body!r}",
                                   line=ln, column=column)
        tail, head = parts[1], parts[2]
        for v in (tail, head):
            if v not in u_set and v not in w_set:
                raise GraphFormatError(f"edge references undeclared vertex {v!r}", line=ln,
                                       column=_token_column(raw_lines[ln - 1], parts.index(v, 1)))
        if tail == head:
            raise GraphFormatError(f"loop edge at {tail!r}", line=ln)
        if (tail in u_set) == (head in u_set):
            raise GraphFormatError(
                f"edge ({tail!r}, {head!r}) joins two vertices of the same color", line=ln)
        if (tail, head) in edges:
            raise GraphFormatError(f"duplicate edge ({tail!r}, {head!r})", line=ln)
        edges.add((tail, head))

    return ColoredDigraph(u_set, w_set, edges)


def format_graph(g: ColoredDigraph, comments: Iterable[str] = ()) -> str:
    """Serialize deterministically: sorted classes, sorted edges."""
    out = []
    for c in comments:
        out.append(f"# {c}")
    out.append("qbmg 1")
    out.append(("U: " + " ".join(sorted(g.color_u, key=token_key))).rstrip())
    out.append(("W: " + " ".join(sorted(g.color_w, key=token_key))).rstrip())
    for (t, h) in sorted(g.edges, key=lambda e: (token_key(e[0]), token_key(e[1]))):
        out.append(f"e {t} {h}")
    return "\n".join(out) + "\n"


def to_dot(g: ColoredDigraph) -> str:
    """Plain DOT emission, no layout logic, as ``digraph qbmg``. U vertices are circles, W boxes."""
    lines = ["digraph qbmg {"]
    for v in sorted(g.color_u, key=token_key):
        lines.append(f'  "{v}" [shape=circle];')
    for v in sorted(g.color_w, key=token_key):
        lines.append(f'  "{v}" [shape=box];')
    for (t, h) in sorted(g.edges, key=lambda e: (token_key(e[0]), token_key(e[1]))):
        lines.append(f'  "{t}" -> "{h}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
