"""Exact clique counting, immersion and subdivision certificates, extremal
parameters, and the clique-count bound engine, all at desk scale."""

from .bounds import (
    BoundResult,
    BoundtValue,
    RecursionCheck,
    boundt_value,
    case1_exponent,
    case1_rate,
    case1_supremum,
    case2_exponent,
    case2_supremum,
    g_bound,
    g_case_log2,
    g_recursion_check,
    optimize_constant,
)
from .cliques import (
    CliqueStats,
    PeelingTrace,
    count_cliques_oracle,
    count_cliques_peeling,
    peel_trace,
)
from .constructions import (
    disjoint_union_matching_complements,
    immersion_tightness,
    matching_complement,
    random_graph,
    star_of_clique,
)
from .embed import (
    Certificate,
    VerificationResult,
    certificate_dumps,
    certificate_from_dict,
    certificate_loads,
    certificate_to_dict,
    has_immersion_with_ends,
    immerse_dense,
    sigma_exhaustive,
    subdivide_dense,
    verify_immersion,
    verify_subdivision,
)
from .errors import CliqueExtremalError, FormatError, GuardExceeded, PreconditionViolation
from .formats import (
    load_graph,
    read_edge_list,
    read_graph6,
    save_graph,
    write_edge_list,
    write_graph6,
)
from .graph import Graph, iter_bits, reach, simple_paths, vertex_mask
from .params import (
    ParamReport,
    delta_lower_bound,
    delta_threshold_no_subdivision,
    min_tset_missing,
    t_param,
    t_param_lower_estimate,
    tset_missing_upper_estimate,
)

__version__ = "0.1.0"
