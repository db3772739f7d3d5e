"""The theorem suite: structural facts every 2-qBMG in a corpus must satisfy.

Each check reads its inputs from a per-graph ``GraphFacts`` and returns
whether it passed with a detail line; a failure means a bug somewhere in this
package or a corpus file that is not what it claims to be, never a legitimate
property of some 2-qBMG. The suite is what ``qbmg verify`` runs per file and
what the acceptance tests run over the built-in corpus. Five statements hold
by how the package builds its groups and quotients; their lines pass as
constants, and the unit tests named in ``CHECKS`` test each statement against
an independent oracle. The module imports the group, quotient and orientation
modules at load, so ``qbmg verify`` loads all of them whatever ``--theorems``
selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .autgroup import aut_color_preserving, aut_full
from .axioms import is_2qbmg, is_thin
from .digraph import ColoredDigraph, bits, class_masks, long_induced_path_or_cycle, low_bit
from .errors import PreconditionError, QbmgError
from .orientations import check_orientation_theorems
from .perms import PermGroup, Permutation, _cycle_masks
from .quotients import QuotientResult, _check_generators, _orbit_pair_shapes, _quotient

__all__ = ["CheckResult", "CHECK_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class GraphFacts:
    """The groups and quotients the checks share for one graph, each built at most once, on
    first use: Aut_I and the full group (each keeps its orbit masks) and g's quotients, one
    per partition of its ranks, however many checks read it: the classical quotient, Aut_I's
    orbit quotient and the cycle partitions. The graph itself keeps its twin classes.
    ``aut_i`` is the full group's object when the full group was built first and each of its
    orbits lies inside U or inside W: an element maps each vertex inside its orbit, so its
    elements then keep colors and the two groups are one. Otherwise Aut_I is searched."""

    def __init__(self, g: ColoredDigraph):
        self.g = g
        self._quotients: dict[tuple[int, ...], QuotientResult] = {}

    def quotient(self, masks: tuple[int, ...]) -> QuotientResult:
        """g's quotient by the blocks ``masks``, disjoint rank masks that cover g."""
        if masks not in self._quotients:
            self._quotients[masks] = _quotient(self.g, masks)
        return self._quotients[masks]

    @cached_property
    def classical(self) -> QuotientResult:
        return self.quotient(class_masks(self.g))

    @cached_property
    def aut_i(self) -> PermGroup:
        # The instance dict, not the attribute: reading ``self.full`` would build the group.
        full, u = self.__dict__.get("full"), self.g.u_mask
        if full is not None and all(m & u in (0, m) for m in full.orbit_masks()):
            return full
        return aut_color_preserving(self.g)

    @cached_property
    def full(self) -> PermGroup:
        return aut_full(self.g)


Outcome = tuple[bool, str]


def _membership(f: GraphFacts) -> Outcome:
    ok = is_2qbmg(f.g)
    return ok, "" if ok else "graph is not a 2-qBMG"


def _holds_by_construction(f: GraphFacts) -> Outcome:
    # Each statement mapped here is true of every graph that passed membership,
    # by how the package computes it; ``CHECKS`` says why, per name.
    return True, ""


def _p6c6_free(f: GraphFacts) -> Outcome:
    witness = long_induced_path_or_cycle(f.g)
    return witness is None, "" if witness is None else f"induced path/cycle {witness}"


def _classical_idempotent(f: GraphFacts) -> Outcome:
    # A thin quotient's classes are single vertices, so quotienting it again is
    # a renaming (tests/test_properties.py::test_classical_quotient_idempotent).
    ok = is_thin(f.classical.quotient)
    return ok, "" if ok else "classical quotient is not thin"


def _gamma_hereditary(f: GraphFacts) -> Outcome:
    """Quotients by Aut_I, by the class product group, and by each cyclic subgroup of Aut_I.

    Aut_I's orbit quotient checks its generators, so every element of Aut_I
    is an automorphism. The class product group's orbits are the twin
    classes, so its quotient is the classical one. The orbits of <a> are the
    cycles of a, so each cyclic subgroup is quotiented by a's cycle
    partition, as rank masks. Each distinct partition is tested once, in that
    order, and the partition into singletons never: its quotient is g itself,
    which passed membership.
    """
    g, n = f.g, f.g.n_vertices
    f.full  # built first, so that Aut_I is read off it where the two are one
    seen = {tuple(1 << v for v in range(n))}
    if f.aut_i.orbit_masks() not in seen:
        seen.add(f.aut_i.orbit_masks())
        _check_generators(g, f.aut_i)
        if not is_2qbmg(f.quotient(f.aut_i.orbit_masks()).quotient):
            return False, "quotient by full Aut_I is not a 2-qBMG"
    if class_masks(g) not in seen:
        seen.add(class_masks(g))
        if not is_2qbmg(f.classical.quotient):
            return False, "quotient by canonical gamma is not a 2-qBMG"
    if f.aut_i.order == 1:
        return True, ""
    for x in f.aut_i._element_ranks():
        cycles = _cycle_masks(x)
        if cycles in seen:
            continue
        seen.add(cycles)
        if not is_2qbmg(f.quotient(cycles).quotient):
            a = Permutation._trusted(f.aut_i.domain, x, g.rank)
            return False, f"quotient by cyclic<{a.cycle_string()}> is not a 2-qBMG"
    return True, ""


def _common_out_neighbor(f: GraphFacts) -> Outcome:
    # Checked against the full group's orbits, which are coarser than the
    # color-preserving group's, so this covers both statements at once.
    vs, out = f.g.sorted_vertices, f.g.out_masks
    twins = {x: c for c in class_masks(f.g) for x in bits(c)}  # x's twin class
    for orbit in f.full.orbit_masks():
        members = list(bits(orbit))
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                if out[x] & out[y] and not twins[x] >> y & 1:
                    return False, (f"orbit mates {vs[x]}, {vs[y]} share an out-neighbor but "
                                   "are not equivalent")
    return True, ""


def _fixed_in_neighborhood(f: GraphFacts) -> Outcome:
    """Whether no element fixes a vertex v and moves an in-neighbor x of v.

    The stabilizer G_v fixes x iff the orbit of the pair (v, x) is as long
    as v's orbit, so each in-neighbor pair's orbit is computed once, from
    the generating ranks, and no element is walked. An automorphism group
    maps in-neighbor pairs onto in-neighbor pairs, so one v per orbit starts
    a pair orbit. A failure is named by the element walk.
    """
    if not is_thin(f.g):
        return True, "skipped: not thin"
    inn, gens = f.g.in_masks, f.full.generating_ranks
    length = {v: orbit.bit_count() for orbit in f.full.orbit_masks() for v in bits(orbit)}
    seen = [0] * f.g.n_vertices  # seen[a]: the b with (a, b) in a pair orbit computed so far
    for v, x_mask in enumerate(inn):
        while fresh := x_mask & ~seen[v]:
            x = low_bit(fresh)
            seen[v] |= 1 << x
            todo, size = [(v, x)], 1
            while todo:
                a, b = todo.pop()
                for s in gens:
                    c, d = s[a], s[b]
                    if not seen[c] >> d & 1:
                        seen[c] |= 1 << d
                        todo.append((c, d))
                        size += 1
            if size != length[v]:
                return _moved_in_neighbor(f)
    return True, ""


def _moved_in_neighbor(f: GraphFacts) -> Outcome:
    # The first element, in rank-tuple order, that fixes a vertex and moves
    # an in-neighbor of it; the detail names the least such vertex and its
    # least moved in-neighbor, in token order.
    vs, inn = f.g.sorted_vertices, f.g.in_masks
    for ranks in f.full._element_ranks():
        moved = sum(1 << v for v, x in enumerate(ranks) if v != x)
        for v, x in enumerate(ranks):
            if v == x and inn[v] & moved:
                p = Permutation._trusted(f.full.domain, ranks, f.g.rank)
                return False, (f"{p.cycle_string()} fixes {vs[v]} but moves its "
                               f"in-neighbor {vs[low_bit(inn[v] & moved)]}")
    return True, ""


def _thin_orbit_pairs(f: GraphFacts) -> Outcome:
    if not is_thin(f.g):
        return True, "skipped: not thin"
    try:
        # Membership and thinness are established, and Aut_I's generators are
        # color-preserving automorphisms by construction. The structure
        # statement holds for monochromatic orbits of any automorphism group;
        # the full group's orbits are coarser, so this is a genuinely
        # different instance on graphs with mixed symmetries. The full group
        # is read first, so that Aut_I can be read off it.
        full = f.full.orbit_masks()
        _orbit_pair_shapes(f.g, f.aut_i.orbit_masks())
        if full != f.aut_i.orbit_masks():
            _orbit_pair_shapes(f.g, full)
    except PreconditionError as exc:
        return False, str(exc)
    return True, ""


def _orientations(f: GraphFacts) -> Outcome:
    report = check_orientation_theorems(f.g, f.aut_i)
    return report.ok, "; ".join(report.violations)


# Membership runs first on every graph; the other checks presume it.
CHECKS: dict[str, Callable[[GraphFacts], Outcome]] = {
    "membership": _membership,
    # is_2qbmg, which membership ran, raises when its N3 and N3* routes
    # disagree (tests/test_properties.py::test_route_equivalence_on_random_graphs).
    "route_equivalence": _holds_by_construction,
    "underlying_p6c6_free": _p6c6_free,
    "classical_idempotent": _classical_idempotent,
    # canonical_gamma's orbits are class_masks(g), so its quotient is the same
    # _quotient call as the classical one (tests/test_quotients.py::
    # test_canonical_gamma_quotient_matches_classical).
    "classical_equals_canonical_gamma": _holds_by_construction,
    # aut_full is Gamma with lifts of q's automorphisms, which map twin classes
    # onto twin classes (tests/test_autgroup.py::
    # test_canonical_gamma_is_normal_in_the_directly_searched_full_group).
    "canonical_gamma_normal": _holds_by_construction,
    # canonical_gamma is built with class_masks(g) as its orbits
    # (tests/test_properties.py::test_canonical_gamma_order_and_orbits).
    "canonical_orbits_are_classes": _holds_by_construction,
    "gamma_quotient_hereditary": _gamma_hereditary,
    "common_out_neighbor_equivalence": _common_out_neighbor,
    "fixed_vertex_in_neighborhood": _fixed_in_neighborhood,
    "thin_orbit_pairs": _thin_orbit_pairs,
    "orientation_theorems": _orientations,
}

CHECK_NAMES: tuple[str, ...] = tuple(CHECKS)


def run_suite(g: ColoredDigraph, checks: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the selected checks (default: all) against one graph, in the given order.

    Membership is reported first, once, when selected. A graph that fails it
    gets that single failing result; the remaining theorems presume membership
    and are not run.
    """
    wanted = tuple(checks) if checks is not None else CHECK_NAMES
    unknown = set(wanted) - set(CHECK_NAMES)
    if unknown:
        raise QbmgError(f"unknown checks: {sorted(unknown)}; "
                        f"known: {', '.join(CHECK_NAMES)}")
    facts = GraphFacts(g)
    membership = CheckResult("membership", *_membership(facts))
    results = [membership] if "membership" in wanted else []
    if membership.passed:
        results.extend(CheckResult(name, *CHECKS[name](facts))
                       for name in wanted if name != "membership")
    return results
