"""SPEF core: objectives, TE problem, Algorithms 1-4 and forwarding tables."""

from .first_weights import FirstWeightsResult, compute_first_weights, round_weights
from .forwarding import (
    ForwardingEntry,
    ForwardingTable,
    build_forwarding_tables,
    split_ratios_from_tables,
)
from .nem import SecondWeightsResult, compute_second_weights, nem_dual_objective
from .objectives import LoadBalanceObjective, ObjectiveError, normalized_utility
from .spef import SPEF, SPEFConfig, SPEFSolution
from .te_problem import TEProblem, TESolution, optimality_gap, solve_optimal_te
from .traffic_distribution import traffic_distribution

__all__ = [
    "FirstWeightsResult",
    "compute_first_weights",
    "round_weights",
    "ForwardingEntry",
    "ForwardingTable",
    "build_forwarding_tables",
    "split_ratios_from_tables",
    "SecondWeightsResult",
    "compute_second_weights",
    "nem_dual_objective",
    "LoadBalanceObjective",
    "ObjectiveError",
    "normalized_utility",
    "SPEF",
    "SPEFConfig",
    "SPEFSolution",
    "TEProblem",
    "TESolution",
    "optimality_gap",
    "solve_optimal_te",
    "traffic_distribution",
]
