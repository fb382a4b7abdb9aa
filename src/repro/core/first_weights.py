"""Algorithm 1: distributed dual decomposition for the first link weights.

The first link weights are the Lagrange multipliers of the spare-capacity
constraint ``c - sum_t f^t = s`` in TE(V, G, c, D).  Algorithm 1 of the paper
computes them with a projected sub-gradient method on the dual:

1. every link solves its local subproblem ``Link_ij(V_ij; w_ij)`` in closed
   form, ``s_ij = V'^{-1}(w_ij)`` (clipped to the physical capacity);
2. every destination solves the uncapacitated min-cost routing subproblem
   ``Route_t(w; d^t)``, i.e. sends its demand along shortest paths under
   ``w``;
3. every link updates its weight with the sub-gradient of the dual,
   ``w <- (w - gamma * (c - f - s))_+``.

The dual objective value and the duality gap are recorded per iteration --
they are the series plotted in Fig. 12(a).  The primal traffic distribution is
recovered by the standard ergodic (running average) of the per-iteration
routing subproblem solutions, which converges to an optimal multi-commodity
flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..network.spt import distances_to
from ..solvers.assignment import all_or_nothing_assignment
from ..solvers.subgradient import StepRule, default_step_for_capacities, project_nonnegative
from .objectives import LoadBalanceObjective


@dataclass
class FirstWeightsResult:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    weights:
        The first link weights ``w*`` (link-indexed vector).
    spare_capacity:
        ``s* = V'^{-1}(w*)`` clipped to the capacities.
    flows:
        The recovered optimal traffic distribution (ergodic average of the
        routing subproblem solutions).
    dual_objective_history, dual_gap_history:
        Per-iteration dual value and duality gap (Fig. 12(a)).
    """

    weights: np.ndarray
    spare_capacity: np.ndarray
    flows: FlowAssignment
    iterations: int
    converged: bool
    dual_objective_history: list[float] = field(default_factory=list)
    dual_gap_history: list[float] = field(default_factory=list)

    @property
    def target_flows(self) -> np.ndarray:
        """``f* = c - s*``, the per-link flow targets handed to Algorithm 2."""
        return self.flows.network.capacities - self.spare_capacity


def _dual_value(
    network: Network,
    demands: TrafficMatrix,
    objective: LoadBalanceObjective,
    weights: np.ndarray,
    spare: np.ndarray,
) -> float:
    """The Lagrange dual function of TE(V, G, c, D) evaluated at ``weights``.

    ``g(w) = sum_ij [V_ij(s_ij(w)) - w_ij s_ij(w) + w_ij c_ij]
             + sum_t min_{B f^t = d^t} (-w)^T ... ``  -- the routing part is
    ``- sum_t`` (shortest-path cost of d^t under ``w``), computed with
    Dijkstra instead of an LP.
    """
    utilities = objective.utility(spare)
    finite = np.where(np.isfinite(utilities), utilities, 0.0)
    value = float(np.sum(finite - weights * spare + weights * network.capacities))
    for destination, entering in demands.by_destination().items():
        distances = distances_to(network, destination, weights)
        for source, volume in entering.items():
            value -= distances.get(source, 0.0) * volume
    # g(w) upper-bounds the optimal aggregate utility and is *minimised* by
    # the sub-gradient iterations, so the recorded series decreases towards
    # the optimum -- the behaviour plotted in Fig. 12(a).  (Absolute values
    # differ from the paper's because the utility is not normalised here.)
    return value


def compute_first_weights(
    network: Network,
    demands: TrafficMatrix,
    objective: LoadBalanceObjective | None = None,
    max_iterations: int = 2000,
    tolerance: float = 1e-3,
    step_rule: StepRule | None = None,
    step_ratio: float = 1.0,
    initial_weights: np.ndarray | None = None,
    record_history: bool = True,
) -> FirstWeightsResult:
    """Run Algorithm 1 and return the first link weights.

    Parameters
    ----------
    objective:
        The (q, beta) utility; defaults to proportional load balance
        (beta = 1), the setting used throughout the paper's evaluation.
    max_iterations, tolerance:
        Stop when the (absolute) duality gap drops below ``tolerance`` or the
        iteration budget is exhausted.
    step_rule:
        A callable ``iteration -> step size``; the default is the paper's
        constant step ``step_ratio / max c_ij``.
    step_ratio:
        Multiplier on the default constant step (the legend values of
        Fig. 12(a): 2, 1, 0.5, 0.1).
    initial_weights:
        Starting weights; the paper's default is ``w(0)_ij = 1 / c_ij``.
    record_history:
        Disable to skip the per-iteration dual-value computation (which costs
        one Dijkstra per destination per iteration).
    """
    demands.validate(network)
    objective = objective or LoadBalanceObjective.proportional()
    capacities = network.capacities
    weights = (
        np.asarray(initial_weights, dtype=float).copy()
        if initial_weights is not None
        else 1.0 / capacities
    )
    if weights.shape != (network.num_links,):
        raise ValueError(
            f"initial weights must have length {network.num_links}, got {weights.shape}"
        )
    step_rule = step_rule or default_step_for_capacities(capacities, step_ratio)

    destinations = demands.destinations()
    flow_average = np.zeros((len(destinations), network.num_links))
    spare = np.minimum(objective.derivative_inverse(weights), capacities)
    dual_history: list[float] = []
    gap_history: list[float] = []
    converged = False
    iteration = 0
    samples = 0
    for iteration in range(1, max_iterations + 1):
        # Per-link subproblem: closed-form spare capacity.
        spare = np.minimum(objective.derivative_inverse(weights), capacities)
        spare = np.maximum(spare, 0.0)
        # Per-destination routing subproblem: shortest-path all-or-nothing.
        routing = all_or_nothing_assignment(network, demands, weights)
        aggregate = routing.aggregate()
        # Primal recovery: running average of routing solutions.
        samples += 1
        flow_average += (routing.rows(destinations) - flow_average) / samples

        gap = float(np.dot(weights, aggregate + spare - capacities))
        if record_history:
            dual_history.append(_dual_value(network, demands, objective, weights, spare))
            gap_history.append(gap)
        if abs(gap) < tolerance:
            converged = True
            break
        # Sub-gradient step on the dual, projected onto w >= 0.
        step = step_rule(iteration - 1)
        weights = project_nonnegative(weights - step * (capacities - aggregate - spare))

    flows = FlowAssignment(network, destinations, flow_average)
    return FirstWeightsResult(
        weights=weights,
        spare_capacity=np.minimum(objective.derivative_inverse(weights), capacities),
        flows=flows,
        iterations=iteration,
        converged=converged,
        dual_objective_history=dual_history,
        dual_gap_history=gap_history,
    )


def round_weights(
    weights: np.ndarray,
    spare_capacity: np.ndarray,
    max_weight: int | None = None,
) -> np.ndarray:
    """Round first link weights to integers as in Section V-G.

    The scaling guarantees the link with the maximum spare capacity gets
    weight 1: ``w'_ij = round(w_ij * max_ij s_ij)``.  ``max_weight`` optionally
    caps the result to a protocol field width (OSPF weights are 16 bit).
    Weights that would round to zero are bumped to 1 so that shortest paths
    stay well defined.
    """
    scale = float(np.max(spare_capacity)) if spare_capacity.size else 1.0
    if scale <= 0:
        scale = 1.0
    rounded = np.rint(np.asarray(weights, dtype=float) * scale)
    rounded = np.maximum(rounded, 1.0)
    if max_weight is not None:
        rounded = np.minimum(rounded, float(max_weight))
    return rounded
