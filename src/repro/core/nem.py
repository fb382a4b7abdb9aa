"""Algorithm 2: Network Entropy Maximization for the second link weights.

The second link weights ``v`` are the Lagrange multipliers of the link-flow
constraints (17b) in the NEM problem: maximise the entropy of the traffic
split across the equal-cost shortest paths subject to the per-link flows not
exceeding the optimal traffic distribution ``f*``.

The NEM dual

    g(v) = sum_ij v_ij f*_ij + sum_r d_r * log( sum_k exp(-v-length of path k) )

is smooth and convex on ``v >= 0`` with gradient ``f* - f(v)``, where
``f(v)`` is the traffic distribution induced by the exponential split
(Algorithm 3).  The paper's Algorithm 2 is projected gradient descent on it,

    v <- ( v - gamma * (f* - f(v)) )_+

with the constant step ``gamma = 1 / max f*_ij``, stopping once every link
satisfies ``f_ij(v) <= f*_ij + eps``.

:func:`compute_second_weights` keeps that step, projection and stop test
and accelerates the loop with Nesterov momentum as in FISTA (Beck and
Teboulle, *SIAM J. Imaging Sci.* 2009).  The projected step is taken from
an extrapolated point ``y``:

    x+ = ( y - gamma * (f* - f(y)) )_+
    t+ = (1 + sqrt(1 + 4 t^2)) / 2
    y  = ( x+ + ((t - 1) / t+) * (x+ - x) )_+

``y`` is the point whose flows are computed, tested and returned.  The
momentum is reset (``t = 1``, so the next ``y`` is the plain projected step
``x+``) by either adaptive-restart rule of O'Donoghue and Candes (*Found.
Comput. Math.* 2015):

* the gradient-mapping test ``(y - x+) . (x+ - x) > 0``, and
* the function-value test: ``g(y)`` rose since the previous iterate.

The value test is what keeps the paper's step stable where it exceeds
``1 / L`` (e.g. the Fig. 4 example at ``beta = 5``): the gradient test
alone lets the momentum oscillate there.

``g(v)``, normalised by the total demand volume, is recorded per iteration;
it is the series plotted in Fig. 12(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..network.spt import ShortestPathDags
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
    #: Maximum per-link excess ``max_ij (f_ij(v) - f*_ij)`` at ``weights``.
    max_excess: float
    dual_objective_history: list[float] = field(default_factory=list)


def _dual_oracle(
    network: Network, demands: TrafficMatrix, dag_set: CompiledDagSet, target: np.ndarray
) -> Callable[[np.ndarray], float]:
    """``v -> g(v) / total volume``: one stacked DP plus a gather per call.

    Each demand's source position in the stack and its share of the total
    volume are laid out once.  Sources that cannot reach their destination
    (``Z = 0``) contribute nothing.
    """
    total_volume = demands.total_volume()
    if total_volume <= 0:
        return lambda _second: 0.0
    stack = dag_set.stacked(demands.destinations())
    sources, targets, volumes = demands.layout(network)
    positions = stack.block_bases[targets] + sources
    shares = volumes / total_volume

    def dual(second: np.ndarray) -> float:
        z_values = stack.path_weight_sums(np.exp(-second[stack.links]))[positions]
        logs = np.log(z_values, out=np.zeros_like(z_values), where=z_values > 0)
        return float(np.dot(second, target)) / total_volume + float(np.dot(shares, logs))

    return dual


def nem_dual_objective(
    network: Network,
    demands: TrafficMatrix,
    dags: ShortestPathDags | CompiledDagSet,
    second_weights: np.ndarray,
    target_flows: np.ndarray,
) -> float:
    """The NEM Lagrange dual ``g(v)`` (Fig. 12(b) series).

    Demands are normalised by the total volume so that the reported values
    stay comparable across congestion levels, mirroring the order of
    magnitude (~0.67 for Cernet2) shown in the paper.  ``Z(source)`` comes
    from one stacked :meth:`~repro.routing.CompiledDag.path_weight_sums`
    over the demands' destinations.
    """
    dag_set = dags if isinstance(dags, CompiledDagSet) else CompiledDagSet(network, dags)
    target = np.asarray(target_flows, dtype=float)
    return _dual_oracle(network, demands, dag_set, target)(
        np.asarray(second_weights, dtype=float)
    )


def compute_second_weights(
    network: Network,
    demands: TrafficMatrix,
    dags: ShortestPathDags,
    target_flows: np.ndarray,
    max_iterations: int = 1000,
    tolerance: float = 1e-3,
    step_rule: StepRule | None = None,
    step_ratio: float = 1.0,
    initial_weights: np.ndarray | None = None,
    record_history: bool = True,
) -> SecondWeightsResult:
    """Run Algorithm 2 (accelerated, see the module docstring) for the second weights.

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

    The returned ``weights`` are the iterate whose ``flows`` and
    ``max_excess`` were measured, also when the loop stops at its cap.  The
    DAGs are compiled once; each iteration re-evaluates only the
    exponential ratios, one stacked propagation and one stacked dual DP.

    Examples
    --------
    >>> from repro.core.te_problem import TEProblem, solve_optimal_te
    >>> from repro.network.spt import all_shortest_path_dags
    >>> from repro.topology import fig4_network, fig4_demands
    >>> network, demands = fig4_network(), fig4_demands()
    >>> te = solve_optimal_te(TEProblem(network, demands))
    >>> dags = all_shortest_path_dags(
    ...     network, demands.destinations(), te.link_weights, 0.05 * te.link_weights.mean()
    ... )
    >>> result = compute_second_weights(network, demands, dags, te.flows.aggregate())
    >>> result.converged, result.iterations < 100
    (True, True)
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
    dual = _dual_oracle(network, demands, dag_set, target)
    history: list[float] = []
    flows: FlowAssignment | None = None
    converged = False
    iteration = 0
    max_excess = float("inf")
    # FISTA state: the last projected step x, the extrapolated point y (the
    # one measured) and the momentum sequence t; ``previous`` is g(last y).
    x = y = weights
    t = 1.0
    previous = float("inf")
    for iteration in range(1, max_iterations + 1):
        weights = y
        flows = traffic_distribution(network, demands, dag_set, weights)
        aggregate = flows.aggregate()
        value = dual(weights)
        if record_history:
            history.append(value)
        excess = aggregate - target
        max_excess = float(np.max(excess)) if excess.size else 0.0
        if max_excess <= epsilon:
            converged = True
            break
        x_next = project_nonnegative(weights - step_rule(iteration - 1) * (target - aggregate))
        if value > previous or float(np.dot(weights - x_next, x_next - x)) > 0:
            t = 1.0  # adaptive restart: no momentum into the next point
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = project_nonnegative(x_next + ((t - 1.0) / t_next) * (x_next - x))
        x, t, previous = x_next, t_next, value

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
