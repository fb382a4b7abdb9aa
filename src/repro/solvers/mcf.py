"""Linear-programming multi-commodity flow solvers.

Two LPs from the paper's formulation are implemented on top of
:func:`scipy.optimize.linprog` (HiGHS backend):

* :func:`solve_min_cost_mcf` -- the minimum-cost multi-commodity flow problem
  (9), i.e. ``Network(G, c, D; w)`` after eliminating the spare capacity.
  With ``capacitated=False`` it reduces to independent shortest-path routing
  problems, which is the ``Route_t`` subproblem of Algorithm 1.

* :func:`solve_min_mlu` -- the min-max link utilization LP (2), the classic
  "optimal TE" baseline used in the Table I comparison.

Commodities are destinations (as in the paper), so the LP has
``|D| * |J|`` flow variables plus, for the MLU problem, one extra scalar.
Constraint matrices are assembled sparsely to keep the Rand100 topology
(392 links) tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import WeightsLike, as_weight_vector


class SolverError(RuntimeError):
    """Raised when an optimization problem cannot be solved."""


@dataclass
class McfSolution:
    """Result of a multi-commodity flow LP."""

    flows: FlowAssignment
    objective: float
    #: Dual values of the link capacity constraints (one per link), when the
    #: LP backend exposes them.  For the min-cost MCF these are the shadow
    #: prices the paper interprets as link weights.
    capacity_duals: np.ndarray | None = None


def _stack_conservation(
    network: Network,
    demands: TrafficMatrix,
    destinations: list[Node],
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Block-diagonal conservation constraints ``B f^t = d^t`` for all commodities.

    Block ``t`` is the incidence matrix ``B`` (``+1`` at each link's source
    row, ``-1`` at its target row) without its (redundant) destination row,
    which keeps the system full rank; the right-hand side ``d^t`` is the
    demand matrix's column of ``t`` without the same row.  Both are built in
    one pass over all blocks.
    """
    num_nodes, num_links = network.num_nodes, network.num_links
    columns = np.array([network.node_index(destination) for destination in destinations])
    block = np.arange(len(destinations))[:, None]
    nodes = np.arange(num_nodes)[None, :]
    # Row of node v in block t: the block's offset, less one past t's own
    # row, which is dropped (-1).
    position = block * (num_nodes - 1) + nodes - (nodes > columns[:, None])
    position[block[:, 0], columns] = -1
    sources, targets = network.link_node_indices()
    link_columns = block * num_links + np.arange(num_links)[None, :]
    rows = np.concatenate((position[:, sources].ravel(), position[:, targets].ravel()))
    cols = np.concatenate((link_columns.ravel(), link_columns.ravel()))
    data = np.repeat([1.0, -1.0], link_columns.size)
    kept = rows >= 0
    a_eq = sparse.csr_matrix(
        (data[kept], (rows[kept], cols[kept])),
        shape=(len(destinations) * (num_nodes - 1), len(destinations) * num_links),
    )
    a_eq.sort_indices()
    kept_blocks, kept_nodes = np.nonzero(position >= 0)
    b_eq = demands.matrix(network)[kept_nodes, columns[kept_blocks]]
    return a_eq, b_eq


def _capacity_matrix(num_links: int, num_commodities: int) -> sparse.csr_matrix:
    """Matrix summing per-commodity link flows into aggregate link flows."""
    eye = sparse.identity(num_links, format="csr")
    return sparse.hstack([eye] * num_commodities, format="csr")


def _extract_flows(
    network: Network,
    destinations: list[Node],
    solution: np.ndarray,
) -> FlowAssignment:
    shape = (len(destinations), network.num_links)
    return FlowAssignment(network, destinations, np.maximum(solution.reshape(shape), 0.0))


def solve_min_cost_mcf(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    capacitated: bool = True,
) -> McfSolution:
    """Solve the minimum-cost multi-commodity flow problem (9).

    Parameters
    ----------
    network, demands:
        The TE instance.
    weights:
        Link costs ``w_ij`` (per unit of flow).
    capacitated:
        When ``False`` the link capacity constraints are dropped, which turns
        the problem into independent per-destination shortest-path routing
        (the ``Route_t`` subproblem of Algorithm 1).

    Raises
    ------
    SolverError
        If the LP is infeasible (demands do not fit in the capacities) or the
        backend fails.
    """
    demands.validate(network)
    destinations = demands.destinations()
    if not destinations:
        return McfSolution(flows=FlowAssignment(network=network), objective=0.0)
    cost_vector = as_weight_vector(network, weights)
    num_links = network.num_links
    num_commodities = len(destinations)
    objective = np.tile(cost_vector, num_commodities)
    a_eq, b_eq = _stack_conservation(network, demands, destinations)
    a_ub = b_ub = None
    if capacitated:
        a_ub = _capacity_matrix(num_links, num_commodities)
        b_ub = network.capacities
    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"min-cost MCF LP failed: {result.message}")
    flows = _extract_flows(network, destinations, result.x)
    duals = None
    if capacitated and result.ineqlin is not None:
        # HiGHS reports marginals with a minus sign for <= constraints.
        duals = -np.asarray(result.ineqlin.marginals, dtype=float)
    return McfSolution(flows=flows, objective=float(result.fun), capacity_duals=duals)


def solve_min_mlu(
    network: Network,
    demands: TrafficMatrix,
    allow_overload: bool = False,
) -> McfSolution:
    """Solve the minimum maximum-link-utilization LP.

    Minimises ``r`` subject to ``sum_t f^t_ij <= r * c_ij`` and the flow
    conservation constraints.  The optimal ``r`` is the best achievable MLU
    with unconstrained (MPLS-style) routing.

    With ``allow_overload=False`` an extra constraint ``r <= 1`` makes the LP
    fail loudly when the demands simply do not fit.
    """
    demands.validate(network)
    destinations = demands.destinations()
    if not destinations:
        return McfSolution(flows=FlowAssignment(network=network), objective=0.0)
    num_links = network.num_links
    num_commodities = len(destinations)
    num_flow_vars = num_links * num_commodities
    # Variables: [f^t_ij ... , r]
    objective = np.zeros(num_flow_vars + 1)
    objective[-1] = 1.0

    a_eq, b_eq = _stack_conservation(network, demands, destinations)
    a_eq = sparse.hstack([a_eq, sparse.csr_matrix((a_eq.shape[0], 1))], format="csr")

    capacity = _capacity_matrix(num_links, num_commodities)
    ratio_col = sparse.csr_matrix(-network.capacities.reshape(-1, 1))
    a_ub = sparse.hstack([capacity, ratio_col], format="csr")
    b_ub = np.zeros(num_links)

    upper = None if allow_overload else 1.0
    bounds = [(0, None)] * num_flow_vars + [(0, upper)]
    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"min-MLU LP failed: {result.message}")
    flows = _extract_flows(network, destinations, result.x[:-1])
    return McfSolution(flows=flows, objective=float(result.x[-1]))


def solve_route_subproblem(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    destination: Node,
) -> np.ndarray:
    """Solve ``Route_t(w; d^t)`` (15) for a single destination via LP.

    This is provided mostly for cross-checking: Algorithm 1 uses the much
    faster shortest-path all-or-nothing assignment, which produces an optimal
    basic solution of the same LP.
    """
    toward = demands.toward(destination)
    single = TrafficMatrix({(s, destination): v for s, v in toward.items()})
    solution = solve_min_cost_mcf(network, single, weights, capacitated=False)
    return solution.flows.rows([destination])[0]
