"""Algorithm 2: Network Entropy Maximization for the second link weights.

The second link weights ``v`` are the Lagrange multipliers of the link-flow
constraints (17b) in the NEM problem: maximise the entropy of the traffic
split across the equal-cost shortest paths subject to the per-link flows not
exceeding the optimal traffic distribution ``f*``.

Algorithm 2 is projected gradient ascent on the dual:

    v <- ( v - gamma * (f* - f(v)) )_+

where ``f(v)`` is the traffic distribution induced by the exponential split
(Algorithm 3).  Iterations stop when every link satisfies
``f_ij(v) <= f*_ij + eps``.

The dual objective

    d(v) = sum_r d_r * log( sum_k exp(-v-length of path k) ) + sum_ij v_ij f*_ij

is recorded per iteration; it is the series plotted in Fig. 12(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import ShortestPathDag
from ..routing import CompiledDagSet
from ..solvers.subgradient import StepRule, default_step_for_flows, project_nonnegative
from .traffic_distribution import traffic_distribution


@dataclass
class SecondWeightsResult:
    """Outcome of Algorithm 2."""

    weights: np.ndarray
    flows: FlowAssignment
    iterations: int
    converged: bool
    #: Maximum per-link excess ``max_ij (f_ij(v) - f*_ij)`` at the last iterate.
    max_excess: float
    dual_objective_history: list[float] = field(default_factory=list)


def nem_dual_objective(
    network: Network,
    demands: TrafficMatrix,
    dags: Mapping[Node, ShortestPathDag] | CompiledDagSet,
    second_weights: np.ndarray,
    target_flows: np.ndarray,
) -> float:
    """The NEM Lagrange dual ``d(v)`` (Fig. 12(b) series).

    Demands are normalised by the total volume so that the reported values
    stay comparable across congestion levels, mirroring the order of
    magnitude (~0.67 for Cernet2) shown in the paper.  ``Z(source)`` comes
    from one stacked :meth:`~repro.routing.CompiledDag.path_weight_sums`
    over the demands' destinations; Algorithm 2 passes its
    :class:`~repro.routing.CompiledDagSet` so the stack is reused.
    """
    total_volume = demands.total_volume()
    if total_volume <= 0:
        return 0.0
    second = np.asarray(second_weights, dtype=float)
    value = float(np.dot(second, target_flows)) / total_volume
    dag_set = dags if isinstance(dags, CompiledDagSet) else CompiledDagSet(network, dags)
    stack = dag_set.stacked(demands.destinations())
    z_values = stack.path_weight_sums(np.exp(-second[stack.links]))
    n = network.num_nodes
    block = {destination: k * n for k, destination in enumerate(stack.destinations)}
    for (source, destination), volume in demands.items():
        z_value = float(z_values[block[destination] + network.node_index(source)])
        if z_value > 0:
            value += (volume / total_volume) * float(np.log(z_value))
    return value


def compute_second_weights(
    network: Network,
    demands: TrafficMatrix,
    dags: Mapping[Node, ShortestPathDag],
    target_flows: np.ndarray,
    max_iterations: int = 1000,
    tolerance: float = 1e-3,
    step_rule: StepRule | None = None,
    step_ratio: float = 1.0,
    initial_weights: np.ndarray | None = None,
    record_history: bool = True,
) -> SecondWeightsResult:
    """Run Algorithm 2 and return the second link weights.

    Parameters
    ----------
    dags:
        The equal-cost shortest-path DAGs built from the first link weights.
    target_flows:
        ``f*``: the optimal per-link traffic distribution the split should
        reproduce (link-indexed vector).
    tolerance:
        The paper's ``eps``: stop once ``f_ij(v) <= f*_ij + eps`` everywhere.
        Interpreted in absolute traffic units; it is scaled internally by the
        largest target flow so the criterion is meaningful across instances.
    step_rule, step_ratio:
        Step-size rule; the default is the paper's constant step
        ``step_ratio / max f*_ij``.
    initial_weights:
        Starting second weights, ``v(0) = 0`` by default (the paper notes this
        is already a good approximation).

    The DAGs are compiled once; each iteration re-evaluates only the
    exponential ratios and one stacked propagation, which is where
    Algorithm 2 spends nearly all of its time.
    """
    demands.validate(network)
    target = np.asarray(target_flows, dtype=float)
    if target.shape != (network.num_links,):
        raise ValueError(
            f"target flows must have length {network.num_links}, got {target.shape}"
        )
    weights = (
        np.asarray(initial_weights, dtype=float).copy()
        if initial_weights is not None
        else np.zeros(network.num_links)
    )
    step_rule = step_rule or default_step_for_flows(target, step_ratio)
    scale = float(np.max(target)) if target.size and np.max(target) > 0 else 1.0
    epsilon = tolerance * scale

    dag_set = CompiledDagSet(network, dags)
    history: list[float] = []
    flows: FlowAssignment | None = None
    converged = False
    iteration = 0
    max_excess = float("inf")
    for iteration in range(1, max_iterations + 1):
        flows = traffic_distribution(network, demands, dag_set, weights)
        aggregate = flows.aggregate()
        if record_history:
            history.append(
                nem_dual_objective(network, demands, dag_set, weights, target)
            )
        excess = aggregate - target
        max_excess = float(np.max(excess)) if excess.size else 0.0
        if max_excess <= epsilon:
            converged = True
            break
        step = step_rule(iteration - 1)
        weights = project_nonnegative(weights - step * (target - aggregate))

    if flows is None:  # max_iterations == 0: report the v(0) distribution
        flows = traffic_distribution(network, demands, dag_set, weights)

    return SecondWeightsResult(
        weights=weights,
        flows=flows,
        iterations=iteration,
        converged=converged,
        max_excess=max_excess,
        dual_objective_history=history,
    )
