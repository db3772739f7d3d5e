"""Tools for 2-colored quasi best match graphs (2-qBMGs).

Recognition of the membership axioms with violation witnesses, color-preserving
automorphism groups, vertex-equivalence and orbit quotients, structured graph
families with lifted symmetries, and orientation machinery.

``import qbmg`` loads no submodule: each public name below imports its home
module on first access (PEP 562), so a caller pays only for what it uses.
"""

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "Verdict", "axiom_report", "is_2qbmg", "is_thin", "satisfies_star",
    "SearchStats", "aut_color_preserving", "aut_full",
    "BijectionTable", "LayeredSpec", "blow_up", "composite_maps", "layered",
    "lift_permutation", "lifted_group", "n2_trivial_layer", "random_layered_spec",
    "ColoredDigraph", "format_graph", "long_induced_path_or_cycle", "parse_graph",
    "symmetric_edges", "to_dot", "token_key",
    "GraphFormatError", "InternalCheckError", "NotAutomorphismError", "PartitionError",
    "PreconditionError", "QbmgError", "SizeCapError", "UnknownVertexError",
    "OrientationReport", "TopoResult", "check_orientation_theorems",
    "enumerate_orientations", "orientation_representatives", "topological_order",
    "uw_orientation",
    "PermGroup", "Permutation", "format_permutation", "is_automorphism",
    "Partition", "QuotientResult", "classical_quotient", "equivalence_classes",
    "gamma_quotient", "parse_partition", "partition_quotient",
    "CHECK_NAMES", "CheckResult", "run_suite",
]

# Each public name and the submodule that defines it.
_HOMES = {
    "AxiomReport": "axioms", "Verdict": "axioms", "axiom_report": "axioms",
    "is_2qbmg": "axioms", "is_thin": "axioms", "satisfies_star": "axioms",
    "SearchStats": "autgroup", "aut_color_preserving": "autgroup", "aut_full": "autgroup",
    "BijectionTable": "constructions", "LayeredSpec": "constructions",
    "blow_up": "constructions", "composite_maps": "constructions", "layered": "constructions",
    "lift_permutation": "constructions", "lifted_group": "constructions",
    "n2_trivial_layer": "constructions", "random_layered_spec": "constructions",
    "ColoredDigraph": "digraph", "format_graph": "digraph",
    "long_induced_path_or_cycle": "digraph", "parse_graph": "digraph",
    "symmetric_edges": "digraph", "to_dot": "digraph", "token_key": "digraph",
    "GraphFormatError": "errors", "InternalCheckError": "errors",
    "NotAutomorphismError": "errors", "PartitionError": "errors",
    "PreconditionError": "errors", "QbmgError": "errors", "SizeCapError": "errors",
    "UnknownVertexError": "errors",
    "OrientationReport": "orientations", "TopoResult": "orientations",
    "check_orientation_theorems": "orientations", "enumerate_orientations": "orientations",
    "orientation_representatives": "orientations", "topological_order": "orientations",
    "uw_orientation": "orientations",
    "PermGroup": "perms", "Permutation": "perms", "format_permutation": "perms",
    "is_automorphism": "perms",
    "Partition": "quotients", "QuotientResult": "quotients",
    "classical_quotient": "quotients", "equivalence_classes": "quotients",
    "gamma_quotient": "quotients",
    "parse_partition": "quotients", "partition_quotient": "quotients",
    "CHECK_NAMES": "verify", "CheckResult": "verify", "run_suite": "verify",
}


def __getattr__(name: str):
    """Import ``name``'s home module, and keep the value here for later lookups."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
