"""Metrics: equal-cost path diversity (Table V).

Link utilization and MLU are methods of
:class:`~repro.network.flows.FlowAssignment`; the (q, beta) load-balance
criterion of Eq. (4) is
:meth:`~repro.core.objectives.LoadBalanceObjective.verify_load_balance`.
"""

from .paths import (
    equal_cost_path_counts,
    equal_cost_path_histogram,
    histogram_from_dags,
)

__all__ = [
    "equal_cost_path_counts",
    "equal_cost_path_histogram",
    "histogram_from_dags",
]
