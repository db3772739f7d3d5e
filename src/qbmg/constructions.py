"""Generators for structured 2-qBMG families and their lifted automorphisms.

Two families are built from invertible tables between equal-size vertex
classes:

* ``layered``: diagonal maps f[i][i]: U_i->W_i and step maps
  g[j][j+1]: W_j->U_{j+1}, with all longer composites f[i][j] and g[j][i]
  drawn as edges. With s = 2 this is the two-layer family: alpha = f[1][1],
  beta = g[1][2], gamma = f[2][2] and the chord delta = gamma . beta . alpha,
  giving a thin proper 2-qBMG.
* ``n2_trivial_layer``: classes U1, W1, W2, U2 with alpha: U1->W1,
  beta: W1->U2 and gamma: W2->U2, so both W classes feed the sinks in U2 and
  no three-edge walk exists. Each source, its two middle vertices, and its
  sink form a diamond.

Both families are m disjoint copies of one small pattern. Following u in U1
along the tables (f_11, g_12, f_22, ..., f_ss, or alpha, beta, gamma^-1)
gives its thread, one vertex per class, and every composite stays on it: a
layered thread has an edge from each position to every later position of the
other color, a diamond thread is (u, alpha(u), beta(alpha(u)), delta(u)).

A permutation pi of U1 lifts to a color-preserving automorphism that sends
the thread of u onto the thread of pi(u); the lifts form a copy of Sym(U1).
For a layered graph they are all of Aut_I, so |Aut_I| = m!. The two middles
of a diamond are twins, so no diamond graph is thin.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .digraph import ColoredDigraph, _token_column, token_key
from .errors import GraphFormatError, QbmgError, UnknownVertexError
from .perms import PermGroup, Permutation

__all__ = [
    "BijectionTable",
    "LayeredSpec",
    "blow_up",
    "n2_trivial_layer",
    "layered",
    "composite_maps",
    "lift_permutation",
    "lifted_group",
    "default_n2_trivial_tables",
    "random_n2_trivial_tables",
    "default_layered_spec",
    "random_layered_spec",
    "parse_layered_spec",
    "format_layered_spec",
]


@dataclass(frozen=True)
class BijectionTable:
    """An invertible map between two disjoint token sets, stored as pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        dom = [a for a, _ in self.pairs]
        img = [b for _, b in self.pairs]
        if len(set(dom)) != len(dom):
            raise QbmgError("bijection table repeats a domain vertex")
        if len(set(img)) != len(img):
            raise QbmgError("bijection table repeats an image vertex")
        ordered = tuple(sorted(self.pairs, key=lambda p: token_key(p[0])))
        object.__setattr__(self, "pairs", ordered)
        object.__setattr__(self, "_map", dict(ordered))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "BijectionTable":
        return cls(tuple((str(a), str(b)) for a, b in mapping.items()))

    @classmethod
    def pairing(cls, domain: Sequence[str], image: Sequence[str]) -> "BijectionTable":
        """Pair sorted domain tokens with image tokens in the given order."""
        if len(domain) != len(image):
            raise QbmgError("bijection table sides differ in length")
        return cls(tuple(zip(sorted(domain, key=token_key), image)))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    @property
    def image(self) -> frozenset[str]:
        return frozenset(self._map.values())

    def __call__(self, v: str) -> str:
        try:
            return self._map[v]
        except KeyError:
            raise QbmgError(f"{v!r} is outside this table's domain") from None

    def inverse(self) -> "BijectionTable":
        return BijectionTable(tuple((b, a) for a, b in self.pairs))

    def as_dict(self) -> dict[str, str]:
        return dict(self._map)

    def __len__(self) -> int:
        return len(self.pairs)


def blow_up(g: ColoredDigraph, at: str, new_id: str) -> ColoredDigraph:
    """Add a fresh vertex duplicating an existing vertex's neighborhoods.

    The new vertex takes the color, out-neighbors, and in-neighbors of ``at``,
    so the two are equivalent in the result. Duplicating several vertices must
    be done one at a time: a later duplicate then also attaches to the earlier
    ones, which a simultaneous version would miss (and a simultaneous version
    can break membership, so it is deliberately not offered).
    """
    if at not in g.vertices:
        raise UnknownVertexError(at)
    if new_id in g.vertices:
        raise QbmgError(f"vertex {new_id!r} already exists in the graph")
    u = set(g.color_u)
    w = set(g.color_w)
    (u if at in u else w).add(new_id)
    edges = set(g.edges)
    edges |= {(new_id, h) for h in g.out_neighbors(at)}
    edges |= {(t, new_id) for t in g.in_neighbors(at)}
    return ColoredDigraph(u, w, edges)


def _int_range(start: int, count: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(start, start + count))


def _check_disjoint_classes(classes: Sequence[frozenset[str]], m: int) -> None:
    seen: set[str] = set()
    for c in classes:
        if len(c) != m:
            raise QbmgError(f"every class must have size {m}, got {len(c)}")
        if seen & c:
            raise QbmgError(f"classes overlap on {sorted(seen & c, key=token_key)}")
        seen |= c


def _threads(f_diag: Sequence[BijectionTable],
             g_step: Sequence[BijectionTable]) -> list[tuple[str, ...]]:
    """Follow each u of U_1 = f_diag[0].domain, in token order, along f_11, g_12, ..., f_ss.

    Position 2i-2 is u's vertex in U_i and 2i-1 its vertex in W_i.
    """
    chain = [t for pair in zip(f_diag, g_step) for t in pair] + [f_diag[-1]]
    threads = []
    for u in sorted(f_diag[0].domain, key=token_key):
        thread = [u]
        for table in chain:
            thread.append(table(thread[-1]))
        threads.append(tuple(thread))
    return threads


def _layered_pattern(s: int) -> list[tuple[int, int]]:
    """Each thread position to every later position of the other color."""
    return [(a, b) for a in range(2 * s) for b in range(a + 1, 2 * s, 2)]


# alpha, beta, gamma and delta on a diamond thread (u, alpha(u), beta(alpha(u)), delta(u)).
_DIAMOND = ((0, 1), (1, 2), (3, 2), (0, 3))


def _build(threads: list[tuple[str, ...]],
           pattern: Sequence[tuple[int, int]]) -> ColoredDigraph:
    """A copy of the edge pattern, pairs of thread positions, on every thread."""
    return ColoredDigraph([v for t in threads for v in t[0::2]],
                          [v for t in threads for v in t[1::2]],
                          [(t[a], t[b]) for t in threads for a, b in pattern])


def _lift(threads: list[tuple[str, ...]], pi: Mapping[str, str]) -> Permutation:
    """Send the thread of each head u onto the thread of pi(u), position by position."""
    by_head = {t[0]: t for t in threads}
    if set(pi) != by_head.keys() or set(pi.values()) != by_head.keys():
        raise QbmgError("pi must be a permutation of the first class U_1")
    mapping = {v: x for t in threads for v, x in zip(t, by_head[pi[t[0]]])}
    return Permutation.from_mapping(mapping, mapping.keys())


def _diamond_threads(m: int, alpha: BijectionTable, beta: BijectionTable,
                     gamma: BijectionTable) -> list[tuple[str, ...]]:
    """The threads (u, alpha(u), beta(alpha(u)), delta(u)), once the tables are checked."""
    if m < 1:
        raise QbmgError("class size m must be at least 1")
    u1, w1, u2, w2 = alpha.domain, alpha.image, beta.image, gamma.domain
    if beta.domain != w1:
        raise QbmgError("beta must map alpha's image (W1) onto U2")
    if gamma.image != u2:
        raise QbmgError("gamma must map W2 onto beta's image (U2)")
    _check_disjoint_classes([u1, w1, u2, w2], m)
    return _threads((alpha, gamma.inverse()), (beta,))


def n2_trivial_layer(m: int, alpha: BijectionTable, beta: BijectionTable,
                     gamma: BijectionTable) -> ColoredDigraph:
    """Diamond family: edges u1->alpha(u1), w1->beta(w1), w2->gamma(w2), u1->delta(u1).

    Here gamma runs W2->U2 and delta = gamma^-1 . beta . alpha, so each source
    in U1 reaches one sink in U2 along two middle vertices, one in each W class.
    The result has sources U1, sinks U2, and no three-edge walk.
    """
    return _build(_diamond_threads(m, alpha, beta, gamma), _DIAMOND)


@dataclass(frozen=True)
class LayeredSpec:
    """Parameters for the s-layer construction.

    ``f_diag[i]`` maps U_{i+1} onto W_{i+1} (0-based storage), ``g_step[j]``
    maps W_{j+1} onto U_{j+2}. All 2s classes must be pairwise disjoint and of
    size m.
    """

    s: int
    m: int
    f_diag: tuple[BijectionTable, ...]
    g_step: tuple[BijectionTable, ...]

    def __post_init__(self):
        if self.s < 2:
            raise QbmgError("layer count s must be at least 2")
        if self.m < 1:
            raise QbmgError("class size m must be at least 1")
        if len(self.f_diag) != self.s:
            raise QbmgError(f"expected {self.s} diagonal tables, got {len(self.f_diag)}")
        if len(self.g_step) != self.s - 1:
            raise QbmgError(f"expected {self.s - 1} step tables, got {len(self.g_step)}")
        classes = []
        for i in range(self.s):
            classes.append(self.f_diag[i].domain)   # U_{i+1}
            classes.append(self.f_diag[i].image)    # W_{i+1}
        _check_disjoint_classes(classes, self.m)
        for j in range(self.s - 1):
            if self.g_step[j].domain != self.f_diag[j].image:
                raise QbmgError(f"step table g[{j + 1}][{j + 2}] must start at W_{j + 1}")
            if self.g_step[j].image != self.f_diag[j + 1].domain:
                raise QbmgError(f"step table g[{j + 1}][{j + 2}] must end at U_{j + 2}")

    def u_class(self, i: int) -> frozenset[str]:
        """U_i for 1 <= i <= s."""
        return self.f_diag[i - 1].domain

    def w_class(self, j: int) -> frozenset[str]:
        """W_j for 1 <= j <= s."""
        return self.f_diag[j - 1].image

    @property
    def vertices(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for i in range(1, self.s + 1):
            out |= self.u_class(i) | self.w_class(i)
        return out


def composite_maps(spec: LayeredSpec) -> tuple[dict[tuple[int, int], BijectionTable],
                                               dict[tuple[int, int], BijectionTable]]:
    """All composites: f[(i, j)]: U_i->W_j for i <= j, g[(j, i)]: W_j->U_i for j < i.

    Read off the threads: f[(i, j)] pairs each thread's U_i vertex with its W_j vertex.
    """
    threads = _threads(spec.f_diag, spec.g_step)
    f: dict[tuple[int, int], BijectionTable] = {}
    g: dict[tuple[int, int], BijectionTable] = {}
    for a, b in _layered_pattern(spec.s):
        (g if a % 2 else f)[(a // 2 + 1, b // 2 + 1)] = BijectionTable(
            tuple((t[a], t[b]) for t in threads))
    return f, g


def layered(spec: LayeredSpec) -> ColoredDigraph:
    """The s-layer graph: u_i -> f[(i,j)](u_i) for i <= j, w_j -> g[(j,i)](w_j) for j < i."""
    return _build(_threads(spec.f_diag, spec.g_step), _layered_pattern(spec.s))


def lift_permutation(spec: LayeredSpec, pi: Mapping[str, str]) -> Permutation:
    """Lift a permutation of U_1 to the whole layered graph.

    Sends the thread of each u in U_1 onto the thread of pi(u), so it acts
    as f[(1, j)] . pi . f[(1, j)]^-1 on W_j and as
    (g[(1, i)] . f[(1, 1)]) . pi . (...)^-1 on U_i for i >= 2. The lift of a
    product is the product of the lifts, so these form a group isomorphic to
    the symmetric group on U_1.
    """
    return _lift(_threads(spec.f_diag, spec.g_step), pi)


def lifted_group(spec: LayeredSpec) -> PermGroup:
    """Lifts of every permutation of U_1; order m!, orbits are the 2s classes.

    Generated by the lifts of the m-1 adjacent transpositions of U_1, with
    the known order m!, which ends Schreier-Sims when a chain is read; no
    element is listed, so m is not bounded by the element cap.
    Its ``generators`` are the canonical list, not the transposition lifts.
    """
    threads = _threads(spec.f_diag, spec.g_step)
    u1 = [t[0] for t in threads]
    fixed = {v: v for v in u1}
    gens = [_lift(threads, {**fixed, a: b, b: a}).ranks for a, b in zip(u1, u1[1:])]
    return PermGroup._from_ranks(tuple(sorted(spec.vertices, key=token_key)), gens,
                                 math.factorial(spec.m))


# -- default class labels, with order-paired and seeded tables on them --------


def _shuffled(rng: random.Random, image: Sequence[str]) -> list[str]:
    out = list(image)
    rng.shuffle(out)
    return out


def _n2_trivial_tables(m: int, order) -> tuple[BijectionTable, BijectionTable, BijectionTable]:
    """alpha: U1->W1, beta: W1->U2, gamma: W2->U2, each image ordered by ``order``.

    U1, W1, W2, U2 are the consecutive integer blocks 1..4m.
    """
    u1, w1, w2, u2 = (_int_range(k * m + 1, m) for k in range(4))
    return (BijectionTable.pairing(u1, order(w1)), BijectionTable.pairing(w1, order(u2)),
            BijectionTable.pairing(w2, order(u2)))


def default_n2_trivial_tables(m: int) -> tuple[BijectionTable, BijectionTable, BijectionTable]:
    """Order-paired tables on the default class labels."""
    return _n2_trivial_tables(m, tuple)


def random_n2_trivial_tables(m: int, seed: int) -> tuple[BijectionTable, BijectionTable,
                                                         BijectionTable]:
    """Seeded shuffled tables on the default class labels; same seed, same tables."""
    rng = random.Random(seed)
    return _n2_trivial_tables(m, lambda image: _shuffled(rng, image))


def _layered_spec(s: int, m: int, order) -> LayeredSpec:
    """A spec on the default class labels, each table's image ordered by ``order``.

    The default labels are U_1..U_s then W_1..W_s as consecutive integer
    blocks 1..2sm. The diagonal tables' images are ordered first, in layer
    order, then the step tables' images.
    """
    u_classes = [_int_range(i * m + 1, m) for i in range(s)]
    w_classes = [_int_range((s + j) * m + 1, m) for j in range(s)]
    f_diag = tuple(BijectionTable.pairing(u_classes[i], order(w_classes[i])) for i in range(s))
    g_step = tuple(BijectionTable.pairing(w_classes[j], order(u_classes[j + 1]))
                   for j in range(s - 1))
    return LayeredSpec(s, m, f_diag, g_step)


def default_layered_spec(s: int, m: int) -> LayeredSpec:
    """The order-paired spec on the default class labels; s = 2 is the two-layer family."""
    return _layered_spec(s, m, tuple)


def random_layered_spec(s: int, m: int, seed: int) -> LayeredSpec:
    """A seeded random spec on the default class labels; same seed, same spec."""
    rng = random.Random(seed)
    return _layered_spec(s, m, lambda image: _shuffled(rng, image))


# -- spec text format ---------------------------------------------------------
#
#   layers s=<int> m=<int>
#   f <i> <i>: a->b a->b ...
#   g <j> <j+1>: a->b ...


def parse_layered_spec(text: str) -> LayeredSpec:
    """Parse the spec format; a repeated line or a table outside the layers is an error."""
    s = m = None
    first: dict[tuple[str, int], int] = {}  # ("layers", 0), ("f", i) or ("g", i) -> line
    tables: dict[tuple[str, int], BijectionTable] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if parts[0] == "layers":
            try:
                kv = dict(p.split("=", 1) for p in parts[1:])
                s, m = int(kv["s"]), int(kv["m"])
            except (ValueError, KeyError) as exc:
                raise GraphFormatError(f"bad layers line {body!r}", line=ln) from exc
            key = ("layers", 0)
        elif parts[0] in ("f", "g"):
            if len(parts) < 4 or not parts[2].endswith(":"):
                raise GraphFormatError(
                    f"expected '{parts[0]} <i> <j>: a->b ...', got {body!r}", line=ln)
            try:
                i, j = int(parts[1]), int(parts[2][:-1])
            except ValueError as exc:
                raise GraphFormatError(f"bad table indices in {body!r}", line=ln) from exc
            pairs = []
            for k, tok in enumerate(parts[3:], start=3):
                if "->" not in tok:
                    raise GraphFormatError(f"bad mapping token {tok!r}", line=ln,
                                           column=_token_column(raw, k))
                a, b = tok.split("->", 1)
                pairs.append((a, b))
            try:
                table = BijectionTable(tuple(pairs))
            except QbmgError as exc:
                raise GraphFormatError(str(exc), line=ln) from exc
            if parts[0] == "f" and i != j:
                raise GraphFormatError("only diagonal f tables may be given", line=ln)
            if parts[0] == "g" and j != i + 1:
                raise GraphFormatError("g tables must step one layer forward", line=ln)
            key = (parts[0], i)
            tables[key] = table
        else:
            raise GraphFormatError(f"unrecognized line {body!r}", line=ln)
        if key in first:
            raise GraphFormatError(f"{body.split(':')[0]!r} repeats line {first[key]}", line=ln)
        first[key] = ln
    if s is None or m is None:
        raise GraphFormatError("missing 'layers s=<int> m=<int>' line", line=1)
    for (kind, i), ln in first.items():
        if kind != "layers" and not 1 <= i <= s - (kind == "g"):
            raise GraphFormatError(
                f"table '{kind} {i} {i + (kind == 'g')}' lies outside layers 1..{s}", line=ln)
    try:
        f_diag = tuple(tables["f", i] for i in range(1, s + 1))
        g_step = tuple(tables["g", j] for j in range(1, s))
    except KeyError as exc:
        raise GraphFormatError(f"missing table for layer {exc.args[0][1]}", line=1) from exc
    try:
        return LayeredSpec(s, m, f_diag, g_step)
    except QbmgError as exc:
        raise GraphFormatError(str(exc), line=1) from exc


def format_layered_spec(spec: LayeredSpec, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"layers s={spec.s} m={spec.m}")
    for i, table in enumerate(spec.f_diag, start=1):
        lines.append(f"f {i} {i}: " + " ".join(f"{a}->{b}" for a, b in table.pairs))
    for j, table in enumerate(spec.g_step, start=1):
        lines.append(f"g {j} {j + 1}: " + " ".join(f"{a}->{b}" for a, b in table.pairs))
    return "\n".join(lines) + "\n"
