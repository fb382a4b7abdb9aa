"""Min-max MLU routing (the "optimal MPLS" baseline of Table I).

Routes traffic so that the maximum link utilization is minimised, by solving
the LP of problem (2).  The paper uses this as one of the reference objective
functions in Table I and discusses why minimising MLU alone is not a
well-defined objective (infinitely many optima); we therefore also expose a
lexicographic refinement that, among the MLU-optimal flows, picks the one with
minimum total traffic -- this resolves the ``a in [0.1, 0.9]`` ambiguity of
Table I deterministically.
"""

from __future__ import annotations


import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..solvers.mcf import solve_min_cost_mcf, solve_min_mlu
from .base import RoutingProtocol


class MinMaxMLU(RoutingProtocol):
    """LP-based routing that minimises the maximum link utilization.

    Parameters
    ----------
    refine:
        When ``True`` (default) a second LP picks, among all MLU-optimal
        distributions, the one minimising total carried traffic.  This avoids
        gratuitous detours, making the output deterministic and comparable.
    allow_overload:
        Let the LP return solutions with MLU > 1 instead of failing when the
        demands simply do not fit (useful for high-load sweeps).
    """

    name = "MinMaxMLU"

    def __init__(self, refine: bool = True, allow_overload: bool = True) -> None:
        self.refine = refine
        self.allow_overload = allow_overload

    def optimal_mlu(self, network: Network, demands: TrafficMatrix) -> float:
        """The minimum achievable MLU for this instance (no routing returned)."""
        return solve_min_mlu(network, demands, allow_overload=self.allow_overload).objective

    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        solution = solve_min_mlu(network, demands, allow_overload=self.allow_overload)
        if not self.refine:
            return solution.flows
        # Lexicographic refinement: cap every link at r* c_ij and minimise the
        # total carried traffic (unit costs).  Scaling capacities by the
        # optimal ratio keeps the first objective optimal.
        ratio = max(solution.objective, 1e-12)
        capped = network.copy(name=f"{network.name}-mlu-capped")
        capped_scaled = Network(name=capped.name)
        for node in network.nodes:
            capped_scaled.add_node(node)
        for link in network.links:
            capped_scaled.add_link(
                link.source,
                link.target,
                capacity=link.capacity * ratio * (1 + 1e-9) + 1e-12,
                delay=link.delay,
            )
        refined = solve_min_cost_mcf(
            capped_scaled, demands, np.ones(network.num_links), capacitated=True
        )
        # Re-home the flows onto the original network object.
        return FlowAssignment(network, refined.flows.destinations, refined.flows.loads)

    def weights(self, network: Network, demands: TrafficMatrix) -> np.ndarray | None:
        """Link weights under which the MLU-optimal flows are shortest paths.

        Derived from the LP duals of the min-cost refinement; mirrors the
        "min-max MLU" weight column of Table I where only the bottleneck link
        carries a positive weight.
        """
        solution = solve_min_mlu(network, demands, allow_overload=self.allow_overload)
        ratio = max(solution.objective, 1e-12)
        scaled = Network(name=f"{network.name}-mlu-capped")
        for node in network.nodes:
            scaled.add_node(node)
        for link in network.links:
            scaled.add_link(
                link.source, link.target, link.capacity * ratio * (1 + 1e-9) + 1e-12, link.delay
            )
        refined = solve_min_cost_mcf(scaled, demands, np.ones(network.num_links), capacitated=True)
        if refined.capacity_duals is None:
            return None
        return np.maximum(refined.capacity_duals, 0.0)
