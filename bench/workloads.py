"""Seeded inputs for each workload, written as ``.qbmg`` files, and the ops that use them.

An op is one ``qbmg`` command line together with the check its exit code and
output must pass. Inputs come from ``--seed`` alone: the same seed writes the
same files, and ``build`` returns a SHA-256 digest of their names and texts so
that two runs can be shown to have measured the same inputs.

Only stable public API builds graphs here (``layered``, ``random_layered_spec``,
``blow_up`` and ``ColoredDigraph.induced_subgraph``); the text written to disk
comes from ``oracle.Graph.text``, and random graphs and ladder graphs are the
benchmark's own.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

__all__ = ["WORKLOADS", "Op", "build", "validate", "traced_ops"]

WORKLOADS = ("recognize", "suite", "symmetry-search", "symmetry-closure", "symmetry-orient")

# Ops in the traced run of the two mixed workloads; the ladders trace one pass.
TRACED_MIX_OPS = 300
SMOKE_TRACED_MIX_OPS = 20


@dataclass(frozen=True)
class Op:
    """One command line, the check of its result, and the input's expected membership."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], None]
    graph: oracle.Graph | None = None
    member: bool | None = None


def build(workload: str, seed: int, smoke: bool, root: Path) -> tuple[list[Op], str]:
    """Write the workload's inputs under ``root`` and return its ops and input digest."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "recognize":
        files = _recognize_inputs(rng, smoke)
    elif workload == "suite":
        files = _suite_inputs(rng, smoke)
    elif workload in LADDERS:
        files = LADDERS[workload](smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    root.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    ops = []
    for name, text, argv_tail, check, *expected in files:
        path = root / name
        path.write_text(text)
        digest.update(f"{name}\n{text}\n".encode())
        ops.append(Op(name, (argv_tail[0], str(path), *argv_tail[1:]), check, *expected))
    return ops, digest.hexdigest()


def validate(ops: list[Op]) -> float | None:
    """Check every generated input's membership with the reference recognizer.

    Return the share of members among those inputs, or None when no input has
    an expected membership (the ladders). This is the benchmark checking its
    own inputs, so it runs outside the timed set-up.
    """
    checked = [op for op in ops if op.member is not None]
    for op in checked:
        if op.graph.member() != op.member:
            raise AssertionError(f"{op.name}: generated as member={op.member}, "
                                 "but the reference recognizer disagrees")
    return sum(op.member for op in checked) / len(checked) if checked else None


def traced_ops(workload: str, ops: list[Op], smoke: bool) -> list[Op]:
    """The fixed op list of a traced run, so its counts repeat exactly."""
    if workload in LADDERS:
        return ops
    return ops[:SMOKE_TRACED_MIX_OPS if smoke else TRACED_MIX_OPS]


def _graph(g) -> oracle.Graph:
    return oracle.Graph(g.color_u, g.color_w, g.edges)


# -- recognize ------------------------------------------------------------------
#
# Half members, half random bipartite non-members on the same class sizes. Most
# sparse random graphs on small classes are members (any graph with at most two
# edges is one), so random graphs are drawn until the reference recognizer
# rejects one. Every (s, m) stratum gets the same number of each kind, so the
# mix, and with it the per-op cost, depends on the seed only through the
# random tables and edges.


def _recognize_inputs(rng: random.Random, smoke: bool):
    from qbmg import blow_up, layered, random_layered_spec

    strata = [(2, 2), (3, 3)] if smoke else [(s, m) for s in range(2, 6) for m in range(2, 7)]
    per_stratum = 2 if smoke else 10
    densities = (0.03, 0.08, 0.15)
    graphs = []
    for s, m in strata:
        n = s * m
        for _ in range(per_stratum):
            g = layered(random_layered_spec(s, m, rng.randrange(2**31)))
            verts = sorted(g.vertices, key=int)
            graphs.append(("member", _graph(g)))
            graphs.append(("member", _graph(blow_up(g, rng.choice(verts), str(2 * n + 1)))))
            keep = rng.sample(verts, rng.randint(max(2, n), 2 * n - 1))
            graphs.append(("member", _graph(g.induced_subgraph(keep))))
        for p in densities:
            for _ in range(per_stratum):
                graphs.append(("random", _random_nonmember(rng, n, p)))
    rng.shuffle(graphs)
    return [(f"r{i:04d}_{kind}.qbmg", g.text(), ("check", "--json"),
             partial(oracle.check_recognize, g), g, kind == "member")
            for i, (kind, g) in enumerate(graphs)]


def _random_nonmember(rng: random.Random, n: int, p: float) -> oracle.Graph:
    while True:
        g = _random_bipartite(rng, n, n, p)
        if not g.member():
            return g


def _random_bipartite(rng: random.Random, r: int, s: int, p: float) -> oracle.Graph:
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    pairs = [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w]
    return oracle.Graph(u, w, [e for e in pairs if rng.random() < p])


# -- suite ------------------------------------------------------------------------
#
# Shaped like the acceptance corpus: mostly members on classes of up to 3+3
# (drawn uniformly from all labelled members of those sizes by rejection), the
# fixture corpus as it is, and small layered instances with their blow-ups and
# induced subgraphs. The layered part makes the slowest ops, so it is the same
# on every seed: p99 is then measured on the same graphs each run, and only
# the bulk of the mix varies with the seed.

SMALL_SIZES = [(r, s) for r in (1, 2, 3) for s in (1, 2, 3)]


def _suite_inputs(rng: random.Random, smoke: bool):
    from qbmg import blow_up, layered, random_layered_spec

    graphs = []
    seen = set()
    weights = [2 ** (2 * r * s) for r, s in SMALL_SIZES]
    while len(graphs) < (30 if smoke else 1000):
        (r, s), = rng.choices(SMALL_SIZES, weights)
        g = _random_bipartite(rng, r, s, 0.5)
        if (r, s, g.edges) not in seen and g.member():
            seen.add((r, s, g.edges))
            graphs.append(("pool", g))
    rng_families = random.Random("suite-families")
    for s in (2, 3):
        for m in ((2,) if smoke else (1, 2, 3)):
            for _ in range(1 if smoke else 8):
                g = layered(random_layered_spec(s, m, rng_families.randrange(2**31)))
                verts = sorted(g.vertices, key=int)
                b1 = blow_up(g, rng_families.choice(verts), str(2 * s * m + 1))
                b2 = blow_up(b1, rng_families.choice(verts), str(2 * s * m + 2))
                graphs += [("layered", _graph(g)), ("blowup", _graph(b1)),
                           ("blowup", _graph(b2))]
                if len(verts) >= 3:
                    for _ in range(2):
                        keep = rng_families.sample(verts, max(2, len(verts) // 2))
                        graphs.append(("induced", _graph(g.induced_subgraph(keep))))
    files = [(f"s{i:04d}_{kind}.qbmg", g.text(), g, True) for i, (kind, g) in enumerate(graphs)]
    corpus = sorted(Path("fixtures/corpus").glob("*.qbmg"))
    files += [(f"corpus_{p.name}", p.read_text(), None, None) for p in corpus]
    rng.shuffle(files)
    return [(name, text, ("verify", "--json"), partial(oracle.check_suite, name), g, member)
            for name, text, g, member in files]


# -- symmetry ladders ----------------------------------------------------------------
#
# Fixed cases, the same on every seed. Orders are checked against closed forms:
# m! for a layered graph (its classes are separated by degree and the tables
# force the map from its action on the first class), r!s! for K_{r,s}, k! for k
# disjoint symmetric edges and k! 2^k for all their automorphisms.


def _complete(r: int, s: int) -> oracle.Graph:
    u = [str(i) for i in range(1, r + 1)]
    w = [str(i) for i in range(r + 1, r + s + 1)]
    return oracle.Graph(u, w, [(a, b) for a in u for b in w] + [(b, a) for a in u for b in w])


def _matching(k: int) -> oracle.Graph:
    u = [str(i) for i in range(1, k + 1)]
    w = [str(i) for i in range(k + 1, 2 * k + 1)]
    return oracle.Graph(u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])


def _aut_case(name: str, g: oracle.Graph, order: int, full: bool = False):
    argv = ("aut", "--full", "--json") if full else ("aut", "--json")
    return (name, g.text(), argv, partial(oracle.check_aut, g, order, full))


def _search_ladder(smoke: bool):
    from qbmg import layered, random_layered_spec

    # Layered s=4, m=4 (3-5 s, one op) is left out: with three repeats a run,
    # its time spread past the bound between runs on a shared machine.
    cases = [(2, 3), (3, 3)] if smoke else [(4, 3), (3, 4), (2, 5)]
    return [_aut_case(f"layered_s{s}m{m}.qbmg",
                      _graph(layered(random_layered_spec(s, m, 1))), math.factorial(m))
            for s, m in cases]


def _closure_ladder(smoke: bool):
    top, ks, full_k = (3, (3, 4), 3) if smoke else (5, (5, 6, 7), 5)
    f = math.factorial
    cases = [_aut_case(f"k{r}{s}.qbmg", _complete(r, s), f(r) * f(s))
             for r in range(3 if not smoke else 2, top + 1) for s in range(r, top + 1)]
    cases += [_aut_case(f"matching{k}.qbmg", _matching(k), f(k)) for k in ks]
    cases.append(_aut_case(f"matching{full_k}_full.qbmg", _matching(full_k),
                           f(full_k) * 2 ** full_k, full=True))
    return cases


def _orient_ladder(smoke: bool):
    argv = ("verify", "--theorems", "orientation_theorems", "--json")
    return [(f"matching{k}.qbmg", _matching(k).text(), argv,
             partial(oracle.check_orient, f"matching{k}.qbmg"))
            for k in ((3, 4) if smoke else (5, 6, 7))]


LADDERS = {
    "symmetry-search": _search_ladder,
    "symmetry-closure": _closure_ladder,
    "symmetry-orient": _orient_ladder,
}
