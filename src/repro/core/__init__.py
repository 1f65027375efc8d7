"""Hub labeling: the paper's central object and every construction on it.

* :class:`HubLabeling` -- the 2-hop label store and query engine;
* verification of the shortest-path-cover property;
* baselines: pruned landmark labeling (PLL) and the greedy 2-hop cover;
* the paper's machinery: monotone hubsets, random hitting sets for far
  pairs, the sparse threshold scheme, the Theorem 4.1 RS-based scheme,
  and degree reduction;
* closed-form bound curves for every theorem.
"""

from .hublabel import (
    HubLabeling,
    label_size_histogram,
    label_size_quantiles,
)
from .verification import (
    CoverReport,
    coverage_fraction,
    is_valid_cover,
    verify_cover,
    verify_cover_sampled,
)
from .orders import (
    betweenness_order,
    coverage_order,
    degree_order,
    eccentricity_order,
    random_order,
)
from .pll import pruned_landmark_labeling
from .greedy import greedy_hub_labeling
from .monotone import is_monotone, monotone_closure, tree_path_to_root
from .hitting import HittingSetResult, build_hitting_set, hitting_set_size
from .sparse_scheme import (
    SparseSchemeResult,
    default_radius,
    sparse_hub_labeling,
)
from .rs_scheme import RSSchemeResult, default_threshold, rs_hub_labeling
from .degree_reduction import (
    DegreeReduction,
    project_labeling,
    reduce_degree,
)
from .separator_scheme import (
    grid_recursive_separator_fn,
    separator_hub_labeling,
)
from .optimal import (
    best_hierarchical_labeling,
    minimum_hub_labeling,
    minimum_total_size,
)
from .hierarchical import canonical_hub_count, is_hierarchical, order_rank
from .approximate import (
    CorrectedScheme,
    additive_approximation,
    approximation_errors,
)
from .fastquery import QueryStats, SortedHubIndex
from .pruning import prune_labeling
from .highway import HighwayEstimate, estimate_highway_dimension
from .io import (
    flat_labeling_from_bytes,
    flat_labeling_to_bytes,
    graph_from_edgelist,
    graph_to_edgelist,
    labeling_from_bytes,
    labeling_from_json,
    labeling_to_bytes,
    labeling_to_json,
)
from .bounds import (
    ambainis_sumindex_upper_bound_bits,
    gppr_general_label_bits,
    gppr_sparse_label_lower_bound_bits,
    sqrt_n_lower_bound_bits,
    theorem_11_average_hub_lower_bound,
    theorem_14_average_hub_upper_bound,
    theorem_21_hub_sum_lower_bound,
    theorem_21_node_count_bounds,
)

__all__ = [
    "HubLabeling",
    "label_size_histogram",
    "label_size_quantiles",
    "CoverReport",
    "coverage_fraction",
    "is_valid_cover",
    "verify_cover",
    "verify_cover_sampled",
    "betweenness_order",
    "coverage_order",
    "degree_order",
    "eccentricity_order",
    "random_order",
    "pruned_landmark_labeling",
    "greedy_hub_labeling",
    "is_monotone",
    "monotone_closure",
    "tree_path_to_root",
    "HittingSetResult",
    "build_hitting_set",
    "hitting_set_size",
    "SparseSchemeResult",
    "default_radius",
    "sparse_hub_labeling",
    "RSSchemeResult",
    "default_threshold",
    "rs_hub_labeling",
    "DegreeReduction",
    "project_labeling",
    "reduce_degree",
    "ambainis_sumindex_upper_bound_bits",
    "gppr_general_label_bits",
    "gppr_sparse_label_lower_bound_bits",
    "sqrt_n_lower_bound_bits",
    "theorem_11_average_hub_lower_bound",
    "theorem_14_average_hub_upper_bound",
    "theorem_21_hub_sum_lower_bound",
    "theorem_21_node_count_bounds",
    "grid_recursive_separator_fn",
    "separator_hub_labeling",
    "best_hierarchical_labeling",
    "minimum_hub_labeling",
    "minimum_total_size",
    "canonical_hub_count",
    "is_hierarchical",
    "order_rank",
    "HighwayEstimate",
    "estimate_highway_dimension",
    "CorrectedScheme",
    "additive_approximation",
    "approximation_errors",
    "QueryStats",
    "SortedHubIndex",
    "prune_labeling",
    "flat_labeling_from_bytes",
    "flat_labeling_to_bytes",
    "graph_from_edgelist",
    "graph_to_edgelist",
    "labeling_from_bytes",
    "labeling_from_json",
    "labeling_to_bytes",
    "labeling_to_json",
]
