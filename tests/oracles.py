"""Independent oracles: brute force and definition replay, no shared code paths.

These deliberately re-derive everything from first principles (itertools over
raw dicts and sets) so they can certify the production implementations.
"""

from __future__ import annotations

from itertools import permutations

from qbmg import ColoredDigraph, Permutation


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
