"""Network substrate: graphs, demands, flows and shortest-path machinery."""

from .demands import Demand, DemandError, TrafficMatrix
from .flows import FlowAssignment, FlowError
from .graph import Link, Network, NetworkError, NetworkSummary
from .incidence import incidence_matrix
from .spt import (
    DEFAULT_TOLERANCE,
    ShortestPathDag,
    ShortestPathDags,
    UnreachableError,
    all_shortest_path_dags,
    as_weight_vector,
    distances_to,
    path_cost,
    shortest_path_dag,
    shortest_path_length,
    shortest_paths,
)

__all__ = [
    "Demand",
    "DemandError",
    "TrafficMatrix",
    "FlowAssignment",
    "FlowError",
    "Link",
    "Network",
    "NetworkError",
    "NetworkSummary",
    "incidence_matrix",
    "DEFAULT_TOLERANCE",
    "ShortestPathDag",
    "ShortestPathDags",
    "UnreachableError",
    "all_shortest_path_dags",
    "as_weight_vector",
    "distances_to",
    "path_cost",
    "shortest_path_dag",
    "shortest_path_length",
    "shortest_paths",
]
