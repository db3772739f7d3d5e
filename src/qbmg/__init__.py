"""Tools for 2-colored quasi best match graphs (2-qBMGs).

Recognition of the membership axioms with violation witnesses, color-preserving
automorphism groups, vertex-equivalence and orbit quotients, structured graph
families with lifted symmetries, and orientation machinery.
"""

__version__ = "0.1.0"

from .axioms import (
    AxiomReport,
    Verdict,
    axiom_report,
    is_2qbmg,
    is_thin,
    satisfies_star,
)
from .autgroup import (
    SearchStats,
    aut_color_preserving,
    aut_full,
    canonical_gamma,
    is_normal,
)
from .constructions import (
    BijectionTable,
    LayeredSpec,
    blow_up,
    composite_maps,
    layered,
    lift_permutation,
    lifted_group,
    n2_trivial_layer,
    n2_trivial_lift,
    random_layered_spec,
)
from .digraph import (
    ColoredDigraph,
    format_graph,
    long_induced_path_or_cycle,
    parse_graph,
    symmetric_edges,
    to_dot,
    token_key,
)
from .errors import (
    GraphFormatError,
    InternalCheckError,
    NotAutomorphismError,
    PartitionError,
    PreconditionError,
    QbmgError,
    SizeCapError,
    UnknownVertexError,
)
from .orientations import (
    OrientationReport,
    TopoResult,
    check_orientation_theorems,
    enumerate_orientations,
    orientation_representatives,
    topological_order,
    uw_orientation,
)
from .perms import PermGroup, Permutation, format_permutation, is_automorphism, parse_permutation
from .quotients import (
    Partition,
    QuotientResult,
    classical_quotient,
    equivalence_classes,
    format_partition,
    gamma_quotient,
    parse_partition,
    partition_quotient,
)
from .verify import CHECK_NAMES, CheckResult, run_suite
