"""Metrics: utilization, utility, load-balance criteria and path diversity."""

from ..core.objectives import normalized_utility
from .load_balance import (
    alternative_routings,
    is_min_max_balanced,
    is_qbeta_balanced,
    minimizes_mlu,
    proportional_balance_score,
    spare_capacity,
)
from .paths import (
    average_path_diversity,
    equal_cost_path_counts,
    equal_cost_path_histogram,
    histogram_from_dags,
    multipath_pairs,
    used_link_count,
)
from .utilization import (
    UtilizationSummary,
    load_imbalance,
    max_link_utilization,
    overloaded_links,
    sorted_link_utilizations,
    underutilized_links,
    utilization_percentiles,
)

__all__ = [
    "normalized_utility",
    "alternative_routings",
    "is_min_max_balanced",
    "is_qbeta_balanced",
    "minimizes_mlu",
    "proportional_balance_score",
    "spare_capacity",
    "average_path_diversity",
    "equal_cost_path_counts",
    "equal_cost_path_histogram",
    "histogram_from_dags",
    "multipath_pairs",
    "used_link_count",
    "UtilizationSummary",
    "load_imbalance",
    "max_link_utilization",
    "overloaded_links",
    "sorted_link_utilizations",
    "underutilized_links",
    "utilization_percentiles",
]
