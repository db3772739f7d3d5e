"""Independent oracles: brute force and definition replay, no shared code paths.

These deliberately re-derive everything from first principles (itertools over
raw dicts and sets) so they can certify the production implementations.
"""

from __future__ import annotations

from itertools import permutations, product

from qbmg import ColoredDigraph, Permutation, QbmgError, token_key
from qbmg.digraph import bits
from qbmg.perms import _compose, _invert, _sift


def brute_force_color_preserving(g: ColoredDigraph) -> set[Permutation]:
    """Filter all |U|! * |W|! class-preserving bijections by edge preservation."""
    us = sorted(g.color_u)
    ws = sorted(g.color_w)
    found: set[Permutation] = set()
    for pu in permutations(us):
        for pw in permutations(ws):
            m = dict(zip(us, pu))
            m.update(zip(ws, pw))
            if all((m[t], m[h]) in g.edges for (t, h) in g.edges):
                found.add(Permutation.from_mapping(m, g.vertices))
    return found


def brute_force_full(g: ColoredDigraph) -> set[Permutation]:
    """Filter all |V|! bijections by edge preservation (no color constraint)."""
    vs = sorted(g.vertices)
    found: set[Permutation] = set()
    for img in permutations(vs):
        m = dict(zip(vs, img))
        if all((m[t], m[h]) in g.edges for (t, h) in g.edges):
            found.add(Permutation.from_mapping(m, g.vertices))
    return found


def compose(*maps: dict[str, str]) -> dict[str, str]:
    """The composite of bijections given as dicts, the first applied first.

    Each map's image must be the next map's domain.
    """
    out = dict(maps[0])
    for outer in maps[1:]:
        assert set(out.values()) == set(outer), "maps do not compose"
        out = {a: outer[b] for a, b in out.items()}
    return out


def graphs_match_up_to_rename(a: ColoredDigraph, b: ColoredDigraph,
                              rename: dict[str, str]) -> bool:
    """Is the given vertex map a bijection that carries a onto b exactly (colors and edges)?

    Compares a's masks, carried through ``rename`` as a map of ranks, with b's.
    """
    x = [b.rank.get(rename.get(v)) for v in a.sorted_vertices]
    if len(rename) != len(x) or None in x or sorted(x) != list(range(b.n_vertices)):
        return False
    colors, out = [0, 0], [0] * b.n_vertices
    for v, o in enumerate(a.out_masks):
        colors[a.u_mask >> v & 1] |= 1 << x[v]
        for h in bits(o):
            out[x[v]] |= 1 << x[h]
    return colors == [b.w_mask, b.u_mask] and tuple(out) == b.out_masks


def is_normal(sub, grp) -> bool:
    """Conjugation test on the generating ranks; requires sub's to lie in grp.

    Both answers are facts of the two groups, so any generating sets decide
    them; no canonical generators are built. Membership is sifting through
    each group's stabilizer chain.
    """
    if sub.domain != grp.domain:
        raise QbmgError("subgroup and group act on different domains")
    if any(_sift(grp.levels, s) is not None for s in sub.generating_ranks):
        raise QbmgError("claimed subgroup is not contained in the group")
    return all(_sift(sub.levels, _compose(_compose(a, s), _invert(a))) is None
               for a in grp.generating_ranks for s in sub.generating_ranks)


def enumerate_bipartite_digraphs(r: int, s: int):
    """Yield every bipartite digraph on fixed classes 1..r and r+1..r+s."""
    u = tuple(str(i) for i in range(1, r + 1))
    w = tuple(str(i) for i in range(r + 1, r + s + 1))
    pairs = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    for mask in range(1 << len(pairs)):
        yield ColoredDigraph(u, w, (p for i, p in enumerate(pairs) if mask >> i & 1))


# -- witness replay: confirm a reported witness really violates the axiom ----


def n1_witness_violates(g: ColoredDigraph, witness: tuple[str, ...]) -> bool:
    u, v, w, t = witness
    independent = (
        u != v and (u, v) not in g.edges and (v, u) not in g.edges
    )
    return independent and (u, t) in g.edges and (v, w) in g.edges and (t, w) in g.edges


def n2_witness_violates(g: ColoredDigraph, witness: tuple[str, ...]) -> bool:
    u, v, w, t = witness
    return (
        (u, v) in g.edges and (v, w) in g.edges and (w, t) in g.edges
        and (u, t) not in g.edges
    )


def n3_witness_violates(g: ColoredDigraph, witness: tuple[str, ...]) -> bool:
    u, v = witness
    ou, ov = g.out_neighbors(u), g.out_neighbors(v)
    return u != v and bool(ou & ov) and not (ou <= ov or ov <= ou)


def n3star_witness_violates(g: ColoredDigraph, witness: tuple[str, ...]) -> bool:
    u, v = witness
    if u == v or (u in g.color_u) != (v in g.color_u):
        return False
    ou, ov = g.out_neighbors(u), g.out_neighbors(v)
    if not ou & ov:
        return False
    if (ou & g.in_neighbors(v)) or (ov & g.in_neighbors(u)):
        return False
    return g.in_neighbors(u) != g.in_neighbors(v) or not (ou <= ov or ov <= ou)


def star_witness_violates(g: ColoredDigraph, witness: tuple[str, ...]) -> bool:
    (v,) = witness
    return len(g.out_neighbors(v) & g.in_neighbors(v)) >= 2


# -- first witnesses: a scan over vertex tuples in token order -----------------


def first_witnesses(g: ColoredDigraph, names: tuple[str, ...] = (
        "n1", "n2", "n3", "n3star", "star")) -> dict[str, tuple[str, ...] | None]:
    """The first violating tuple of each axiom in ``names``, or None, from the edge set alone.

    Tuples are scanned in lexicographic order over the token-sorted vertices,
    so each entry is the lexicographically first witness: (u, v, w, t) for
    N1 and N2, (u, v) for N3 and N3*, (v,) for the matching condition. N1 and
    N2 scan n^4 tuples, so large graphs ask for the others only.
    """
    vs = sorted(g.vertices, key=token_key)
    e = g.edges

    def out(a):
        return {b for b in vs if (a, b) in e}

    def inn(a):
        return {b for b in vs if (b, a) in e}

    def nested(a, b):
        return a <= b or b <= a

    def first(arity, violates):
        return next((t for t in product(vs, repeat=arity) if violates(*t)), None)

    def n1(u, v, w, t):
        independent = u != v and (u, v) not in e and (v, u) not in e
        return independent and (u, t) in e and (v, w) in e and (t, w) in e

    def n2(u, v, w, t):
        return (u, v) in e and (v, w) in e and (w, t) in e and (u, t) not in e

    def n3(u, v):
        return u != v and bool(out(u) & out(v)) and not nested(out(u), out(v))

    def n3star(u, v):
        if u == v or (u in g.color_u) != (v in g.color_u) or not out(u) & out(v):
            return False
        if any((u, x) in e and (x, v) in e or (v, x) in e and (x, u) in e for x in vs):
            return False
        return inn(u) != inn(v) or not nested(out(u), out(v))

    def star(v):
        return sum((v, x) in e and (x, v) in e for x in vs) >= 2

    scans = {"n1": (4, n1), "n2": (4, n2), "n3": (2, n3), "n3star": (2, n3star),
             "star": (1, star)}
    return {name: first(*scans[name]) for name in names}


def kahn_least_token(g: ColoredDigraph) -> tuple[str, ...] | None:
    """Kahn's algorithm taking the least token among the sources; None on a cycle."""
    left = sorted(g.vertices, key=token_key)
    order = []
    while left:
        sources = [v for v in left if not any((t, v) in g.edges for t in left)]
        if not sources:
            return None
        order.append(sources[0])
        left.remove(sources[0])
    return tuple(order)


def subgroup_lattice(grp) -> list:
    """Every subgroup of a small enumerated group, by closing element joins.

    Starts from the cyclic subgroups and repeatedly adjoins one generator
    until no new subgroup appears. Practical for orders up to a few hundred.
    """
    from qbmg.perms import PermGroup

    elements = grp.sorted_elements
    rank = {p: i for i, p in enumerate(elements)}
    found: dict[frozenset, PermGroup] = {}
    for a in elements:
        cyclic = PermGroup.from_generators([a], grp.domain)
        found.setdefault(frozenset(cyclic.elements), cyclic)
    frontier = list(found.values())
    while frontier:
        fresh = []
        for sub in frontier:
            for a in elements:
                if a in sub.elements:
                    continue
                bigger = PermGroup.from_generators(
                    list(sub.generators) + [a], grp.domain)
                key = frozenset(bigger.elements)
                if key not in found:
                    found[key] = bigger
                    fresh.append(bigger)
        frontier = fresh
    return sorted(found.values(), key=lambda s: (s.order, tuple(
        rank[p] for p in s.sorted_elements)))


def networkx_color_preserving(g: ColoredDigraph) -> set[Permutation]:
    """Color-matched self-isomorphisms found by networkx's VF2 matcher."""
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

    d = nx.DiGraph()
    d.add_nodes_from((v, {"u": v in g.color_u}) for v in g.vertices)
    d.add_edges_from(g.edges)
    matcher = DiGraphMatcher(d, d, node_match=lambda a, b: a["u"] == b["u"])
    return {Permutation.from_mapping(m, g.vertices) for m in matcher.isomorphisms_iter()}


def equivalence_blocks(g: ColoredDigraph) -> tuple[frozenset[str], ...]:
    """Vertices grouped by their out- and in-neighbour token sets, least token first."""
    groups: dict[tuple[frozenset[str], frozenset[str]], set[str]] = {}
    for v in sorted(g.vertices, key=token_key):
        groups.setdefault((g.out_neighbors(v), g.in_neighbors(v)), set()).add(v)
    return tuple(frozenset(b) for b in groups.values())


def brute_force_twin_classes(g: ColoredDigraph) -> list[frozenset[str]]:
    """The twin classes by a pairwise test on the edge set, least token first.

    u and v are twins when every vertex x has u->x iff v->x and x->u iff x->v.
    """
    vs, edges = sorted(g.vertices, key=token_key), g.edges

    def twins(u: str, v: str) -> bool:
        return all(((u, x) in edges) == ((v, x) in edges)
                   and ((x, u) in edges) == ((x, v) in edges) for x in vs)

    classes: list[frozenset[str]] = []
    for v in vs:
        if not any(v in c for c in classes):
            classes.append(frozenset(u for u in vs if twins(u, v)))
    return classes


def orbit_blocks(grp) -> list[frozenset[str]]:
    """The orbits of grp's generators, closed on tokens, least token first."""
    left = set(grp.domain)
    out = []
    for v in sorted(grp.domain, key=token_key):
        if v in left:
            orbit, todo = {v}, [v]
            while todo:
                x = todo.pop()
                for p in grp.generators:
                    if p(x) not in orbit:
                        orbit.add(p(x))
                        todo.append(p(x))
            left -= orbit
            out.append(frozenset(orbit))
    return out

def derived_graphs(g: ColoredDigraph, max_orientations: int = 64):
    """The graphs the package builds from g's masks without validating them.

    The UW-orientation, up to ``max_orientations`` orientations (none past
    the orientation cap), and the classical quotient and the quotients by
    Aut_I and by the class product group.
    """
    from itertools import islice

    from qbmg import (aut_color_preserving, canonical_gamma, classical_quotient,
                      enumerate_orientations, gamma_quotient, symmetric_edges,
                      uw_orientation)
    from qbmg.orientations import ORIENTATION_CAP

    yield uw_orientation(g)
    if 1 << len(symmetric_edges(g)) <= ORIENTATION_CAP:
        yield from islice(enumerate_orientations(g), max_orientations)
    yield classical_quotient(g).quotient
    yield gamma_quotient(g, aut_color_preserving(g)).quotient
    yield gamma_quotient(g, canonical_gamma(g)).quotient


def assert_as_if_validated(h: ColoredDigraph) -> None:
    """h equals its rebuild through the validating token constructor, masks and all,
    and each in-mask is the transpose of the out-masks."""
    rebuilt = ColoredDigraph(h.color_u, h.color_w, h.edges)
    assert h == rebuilt
    assert (h.sorted_vertices, h.rank, h.u_mask, h.out_masks, h.in_masks) == (
        rebuilt.sorted_vertices, rebuilt.rank, rebuilt.u_mask, rebuilt.out_masks,
        rebuilt.in_masks)
    n = h.n_vertices
    assert len(h.in_masks) == len(h.out_masks) == n
    assert all((h.in_masks[b] >> a & 1) == (h.out_masks[a] >> b & 1)
               for a, b in product(range(n), repeat=2))


def refine_every_vertex(g: ColoredDigraph, cells: list[int]) -> tuple[list[int], int]:
    """Equitable refinement with a signature for every vertex, singletons included.

    Splits cells on (cell, sorted out-neighbor cells, sorted in-neighbor
    cells) until the number of cells stops growing; returns the cells and
    the number of rounds.
    """
    n_cells, rounds = len(set(cells)), 0
    while True:
        rounds += 1
        sigs = [(cells[v], tuple(sorted(cells[x] for x in range(g.n_vertices)
                                        if g.out_masks[v] >> x & 1)),
                 tuple(sorted(cells[x] for x in range(g.n_vertices) if g.in_masks[v] >> x & 1)))
                for v in range(g.n_vertices)]
        fresh = {s: k for k, s in enumerate(sorted(set(sigs)))}
        cells = [fresh[s] for s in sigs]
        if len(fresh) == n_cells:
            return cells, rounds
        n_cells = len(fresh)


def brute_force_twin_quotient_order(g: ColoredDigraph) -> int:
    """|Aut_w(q)| for q = g / (equivalence classes split by color), by brute force.

    q has one vertex per class and an edge wherever g has one between the
    classes; every color-preserving bijection of the classes that keeps
    class sizes is filtered by edge preservation.
    """
    blocks = [part for b in equivalence_blocks(g) for part in (b & g.color_u, b & g.color_w)
              if part]
    block_of = {v: k for k, b in enumerate(blocks) for v in b}
    edges = {(block_of[t], block_of[h]) for t, h in g.edges}
    us = [k for k, b in enumerate(blocks) if b <= g.color_u]
    ws = [k for k, b in enumerate(blocks) if b <= g.color_w]
    count = 0
    for pu in permutations(us):
        for pw in permutations(ws):
            m = dict(zip(us, pu))
            m.update(zip(ws, pw))
            if (all(len(blocks[k]) == len(blocks[m[k]]) for k in m)
                    and all((m[t], m[h]) in edges for t, h in edges)):
                count += 1
    return count


def greedy_descent_generators(levels) -> list[tuple[int, ...]]:
    """Canonical generators of a stabilizer chain by the plain greedy descent.

    ``levels[i]`` maps each point b of level i's orbit to u, mapping i to
    b. From the deepest level up, while the orbit of the level's point
    under the generators so far misses a point of the level, the next
    generator takes the least missing point there and the least image at
    every level below, each level's orbit recomputed and every
    representative composed.
    """
    def orbit(x, gens):
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for s in gens:
                if s[y] not in seen:
                    seen.add(s[y])
                    todo.append(s[y])
        return seen

    n = len(levels)
    gens: list[tuple[int, ...]] = []
    deep = n
    while deep > 0:
        level = levels[deep - 1]
        seen = orbit(deep - 1, gens)
        if len(seen) == len(level):
            deep -= 1
            continue
        x = level[min(b for b in level if b not in seen)]
        for below in levels[deep:]:
            if len(below) > 1:
                u = below[min(below, key=x.__getitem__)]
                x = tuple(x[y] for y in u)
        gens.append(x)
    return gens


def induced_path_or_cycle_dfs(g: ColoredDigraph, length: int = 6) -> list[str] | None:
    """The first induced path or cycle on ``length`` vertices of g's underlying graph.

    A DFS over induced paths from each vertex in rank order, with no twin
    shortcut; a cycle closes back to its first vertex implicitly.
    """
    adj = [o | i for o, i in zip(g.out_masks, g.in_masks)]
    n = g.n_vertices

    def extend(path: list[int], on_path: int) -> list[int] | None:
        if len(path) >= length:
            return list(path)
        first, last = path[0], path[-1]
        ends = 1 << last | 1 << first
        for nxt in (x for x in range(n) if adj[last] >> x & 1 and not on_path >> x & 1):
            if adj[nxt] & on_path & ~ends:
                continue
            if adj[nxt] >> first & 1 and len(path) >= 2:
                if len(path) + 1 >= length:
                    return path + [nxt]
                continue
            found = extend(path + [nxt], on_path | 1 << nxt)
            if found:
                return found
        return None

    for start in range(n):
        found = extend([start], 1 << start)
        if found:
            return [g.sorted_vertices[v] for v in found]
    return None


def fits_search(g: ColoredDigraph, cells: list[int], stats) -> tuple[list[tuple[int, ...]], int]:
    """Strong generators and order by the search that tests each candidate image in turn.

    The same refinement, base and level scheme as ``autgroup._search_automorphisms``,
    with the cells from ``refine_every_vertex`` and every S-orbit walked
    afresh: a candidate c of the placed vertex v fits when each placed out-
    and in-neighbor a of v has its image among c's out- and in-neighbors,
    and c has no more neighbors among the used images than v among the
    placed vertices. ``stats`` gets the same counts.
    """
    import math

    from qbmg.autgroup import _assignment_order

    def orbit_of(x, gens):
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for s in gens:
                if s[y] not in seen:
                    seen.add(s[y])
                    todo.append(s[y])
        return seen

    n = g.n_vertices
    cells, rounds = refine_every_vertex(g, cells)
    stats.refinement_rounds += rounds
    if len(set(cells)) == n:
        stats.base_length, stats.orbit_lengths = 0, ()
        return [], 1
    by_cell: dict[int, list[int]] = {}
    for v, c in enumerate(cells):
        by_cell.setdefault(c, []).append(v)
    cell_of = [by_cell[c] for c in cells]
    base = _assignment_order(g, cells)
    out_mask, in_mask = g.out_masks, g.in_masks

    image = list(range(n))
    placed = 0  # bitmask of the placed vertices
    used = 0  # bitmask of the images of the placed vertices

    def fits(v: int, c: int) -> bool:
        for nbrs, mask_c in ((out_mask[v] & placed, out_mask[c]),
                             (in_mask[v] & placed, in_mask[c])):
            for a in range(n):
                if nbrs >> a & 1 and not mask_c >> image[a] & 1:
                    return False
            if (mask_c & used).bit_count() != nbrs.bit_count():
                return False
        return True

    def extend(k: int) -> bool:
        nonlocal placed, used
        stats.nodes += 1
        if k == n:
            stats.leaves += 1
            return True
        v = base[k]
        extended = False
        placed |= 1 << v
        for c in cell_of[v]:
            if used >> c & 1 or not fits(v, c):
                continue
            extended = True
            image[v] = c
            used |= 1 << c
            if extend(k + 1):
                return True
            used &= ~(1 << c)
        placed &= ~(1 << v)
        if not extended:
            stats.dead_ends += 1
        return False

    strong: list[tuple[int, ...]] = []
    lengths = [1] * n
    for i in range(n - 1, -1, -1):
        v = base[i]
        prefix = sum(1 << a for a in base[:i])
        orbit = orbit_of(v, strong)
        dead: set[int] = set()
        for c in cell_of[v]:
            if c in orbit or c in dead or prefix >> c & 1:
                continue
            image[:] = range(n)
            placed = used = prefix
            if fits(v, c):
                placed |= 1 << v
                image[v] = c
                used |= 1 << c
                if extend(i + 1):
                    strong.append(tuple(image))
                    orbit = orbit_of(v, strong)
                    continue
            dead |= orbit_of(c, strong)
        lengths[i] = len(orbit)

    stats.base_length = max((i + 1 for i, size in enumerate(lengths) if size > 1), default=0)
    stats.orbit_lengths = tuple(lengths[:stats.base_length])
    return strong, math.prod(lengths)


def direct_full(g: ColoredDigraph, stats=None):
    """All digraph automorphisms by the color-blind search of g itself, from one cell.

    The search ``autgroup._search_automorphisms`` on every vertex of g, with
    no twin quotient: the reference the twin-quotient route of ``aut_full``
    is compared with. Capped at 64 vertices, as the search is.
    """
    from qbmg.autgroup import SearchStats, _search_automorphisms
    from qbmg.perms import PermGroup

    strong, order, orbits = _search_automorphisms(g, [0] * g.n_vertices, stats or SearchStats())
    return PermGroup._from_ranks(g.sorted_vertices, strong, order, orbits=orbits)


def fixed_vertex_walk(g: ColoredDigraph, gens: list[tuple[int, ...]]) -> tuple[bool, str]:
    """The fixed-vertex check by walking every element of <gens> (rank tuples on g's ranks).

    The elements are closed from the generators and scanned in rank-tuple
    order; the first that fixes a vertex v and moves an in-neighbor of v fails
    the check, named by the least such v and its least moved in-neighbor.
    """
    n = g.n_vertices
    ident = tuple(range(n))
    elements, todo = {ident}, [ident]
    while todo:
        x = todo.pop()
        for s in gens:
            y = tuple(s[x[i]] for i in range(n))
            if y not in elements:
                elements.add(y)
                todo.append(y)
    vs = g.sorted_vertices
    for x in sorted(elements):
        moved = {v for v in range(n) if x[v] != v}
        for v in range(n):
            ins = [a for a in moved if g.out_masks[a] >> v & 1]
            if v not in moved and ins:
                p = Permutation.from_mapping({vs[a]: vs[x[a]] for a in moved}, vs)
                return False, (f"{p.cycle_string()} fixes {vs[v]} but moves its "
                               f"in-neighbor {vs[min(ins)]}")
    return True, ""
