"""The TE utility-maximization problem TE(V, G, c, D) and its reference solver.

Section III of the paper models optimal traffic engineering as maximising the
aggregate utility of spare capacity over the multi-commodity flow polytope
(problem (5)).  :class:`TEProblem` bundles an instance (network, demands,
objective) and :func:`solve_optimal_te` produces the optimal traffic
distribution together with the first link weights ``w = V'(s*)`` predicted by
Theorem 3.1.

The solver dispatches on the objective:

* ``beta = 0`` -- the utility is linear, so the problem *is* the minimum-cost
  multi-commodity flow LP (9) with costs ``q`` and is solved exactly.
* ``beta >= 1`` -- the utility is a barrier at saturation; the Frank-Wolfe
  flow-deviation method converges to the unique optimal spare capacity.
* ``0 < beta < 1`` -- strictly concave but finite at saturation; Frank-Wolfe
  with a capacitated LP subproblem.

Algorithm 1 (:mod:`repro.core.first_weights`) solves the same problem in a
distributed fashion; the tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..solvers.frank_wolfe import solve_frank_wolfe
from ..solvers.mcf import solve_min_cost_mcf
from .objectives import LoadBalanceObjective, marginal_utility, normalized_utility


@dataclass
class TEProblem:
    """An optimal traffic-engineering instance TE(V, G, c, D)."""

    network: Network
    demands: TrafficMatrix
    objective: LoadBalanceObjective = field(default_factory=LoadBalanceObjective.proportional)

    def __post_init__(self) -> None:
        self.demands.validate(self.network)

    def network_load(self) -> float:
        """Total demand over total capacity, the x-axis of Fig. 10."""
        return self.demands.network_load(self.network)

    def scaled(self, factor: float) -> TEProblem:
        """The same instance with demands uniformly scaled by ``factor``."""
        return TEProblem(
            network=self.network,
            demands=self.demands.scaled(factor),
            objective=self.objective,
        )


@dataclass
class TESolution:
    """Optimal traffic distribution plus the quantities Theorem 3.1 derives from it."""

    problem: TEProblem
    flows: FlowAssignment
    #: First link weights ``w_ij = V'_ij(s*_ij)`` (Lagrange multipliers of (5b)).
    link_weights: np.ndarray
    #: The achieved aggregate utility ``sum V_ij(s*_ij)``.
    utility: float
    iterations: int = 0
    converged: bool = True
    #: Frank-Wolfe's duality gap over ``max(|cost|, 1)`` when it stopped
    #: (0 for the exact LP and empty cases).
    relative_gap: float = 0.0
    objective_history: list[float] = field(default_factory=list)

    @property
    def spare_capacity(self) -> np.ndarray:
        return self.flows.spare_capacity()

    @property
    def max_link_utilization(self) -> float:
        return self.flows.max_link_utilization()

    def normalized_utility(self) -> float:
        """``sum log(1 - u_ij)``, the metric plotted in Fig. 10/13."""
        return normalized_utility(self.flows.utilization())


def solve_optimal_te(
    problem: TEProblem,
    max_iterations: int = 400,
    tolerance: float = 1e-7,
    initial_flows: FlowAssignment | None = None,
) -> TESolution:
    """Solve TE(V, G, c, D) centrally and return the optimal distribution.

    Raises
    ------
    SolverError
        When the demands cannot be routed (infeasible LP, or MLU >= 1 with a
        barrier objective).
    """
    network, demands, objective = problem.network, problem.demands, problem.objective
    if not len(demands):
        flows = FlowAssignment(network=network)
        return TESolution(
            problem=problem,
            flows=flows,
            link_weights=objective.derivative(network.capacities),
            utility=objective.total_utility(network.capacities),
        )

    if objective.beta == 0.0:
        # Linear utility: maximizing sum q*(c - f) == minimizing sum q*f.
        q = np.asarray(objective.q, dtype=float)
        costs = np.full(network.num_links, float(q)) if q.ndim == 0 else q
        lp = solve_min_cost_mcf(network, demands, costs, capacitated=True)
        flows = lp.flows
        spare = flows.spare_capacity()
        # The LP duals of the capacity constraints give the weight *increase*
        # on saturated links; the first weights are q on unsaturated links and
        # q + dual on saturated ones (conditions (6b)-(6c)).
        weights = costs.copy()
        if lp.capacity_duals is not None:
            weights = costs + np.maximum(lp.capacity_duals, 0.0)
        return TESolution(
            problem=problem,
            flows=flows,
            link_weights=weights,
            utility=objective.total_utility(spare),
            iterations=1,
            converged=True,
        )

    # The oracles are Phi(f) = -sum V(c - f) and V'(c - f)
    # (LoadBalanceObjective.congestion_cost / congestion_gradient) with the
    # capacities and q read once per solve instead of once per call; the
    # gradient skips derivative's per-call errstate (the line step opens one
    # for all of its probes).
    capacities = network.capacities
    q = objective.coefficients(capacities)
    result = solve_frank_wolfe(
        network,
        demands,
        cost=lambda f: -objective.total_utility(capacities - f),
        gradient=lambda f: marginal_utility(q, capacities - f, objective.beta),
        barrier=objective.is_barrier(),
        max_iterations=max_iterations,
        tolerance=tolerance,
        initial_flows=initial_flows,
    )
    spare = result.flows.spare_capacity()
    return TESolution(
        problem=problem,
        flows=result.flows,
        link_weights=result.link_weights,
        utility=objective.total_utility(spare),
        iterations=result.iterations,
        converged=result.converged,
        relative_gap=result.relative_gap,
        objective_history=[-value for value in result.objective_history],
    )


def optimality_gap(problem: TEProblem, candidate: FlowAssignment, reference: TESolution | None = None) -> float:
    """Relative utility gap of ``candidate`` against the optimal solution.

    A convenience used by tests and benchmarks to measure how close a
    protocol (OSPF, SPEF, PEFT) gets to the optimum for the problem's own
    objective.  Returns ``inf`` when the candidate saturates a link under a
    barrier objective.
    """
    if reference is None:
        reference = solve_optimal_te(problem)
    candidate_utility = problem.objective.total_utility(candidate.spare_capacity())
    if not np.isfinite(candidate_utility):
        return float("inf")
    denom = max(abs(reference.utility), 1e-12)
    return float((reference.utility - candidate_utility) / denom)
