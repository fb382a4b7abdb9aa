"""Algorithm 4: the SPEF routing protocol (Shortest paths Penalizing Exponential Flow-splitting).

SPEF achieves optimal traffic engineering with an OSPF-compatible data plane
by configuring *two* weights per link:

1. the **first link weights** define the shortest paths (Theorem 3.1
   guarantees that an optimal routing exists that only uses those paths);
2. the **second link weights** let every router split traffic across its
   equal-cost next hops with the exponential ratios of Eq. (22), so that the
   resulting distribution matches the optimal one (Theorem 4.2).

:class:`SPEF` runs the full pipeline (Algorithm 4):

* solve TE(V, G, c, D) for the optimal distribution ``f*`` and the first
  weights (either centrally via Frank-Wolfe or distributedly via
  Algorithm 1);
* optionally round the first weights to integers (Section V-G);
* build the per-destination equal-cost shortest-path DAGs: one builder call
  (:class:`~repro.network.spt.ShortestPathDags`) with the optimal flow's
  downhill links OR-ed into its mask, which every later step reads;
* run Algorithm 2 to obtain the second weights;
* install the Table II forwarding tables and compute the realised flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..metrics.paths import histogram_from_dags, path_counts
from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import ShortestPathDags, all_shortest_path_dags
from ..obs import telemetry
from .first_weights import FirstWeightsResult, compute_first_weights, round_weights
from .forwarding import ForwardingTable, build_forwarding_tables
from .nem import SecondWeightsResult, compute_second_weights
from .objectives import LoadBalanceObjective, normalized_utility
from .te_problem import TEProblem, TESolution, solve_optimal_te

#: Optimal flow towards a destination, as a fraction of the total demand
#: volume, above which a downhill link joins that destination's DAG.
DAG_FLOW_THRESHOLD = 1e-4


@dataclass
class SPEFConfig:
    """Tunable knobs of the SPEF pipeline.

    Attributes
    ----------
    objective:
        The (q, beta) utility used for the optimal TE problem.  The paper's
        evaluation uses beta = 1 (proportional load balance).
    te_solver:
        ``"frank_wolfe"`` solves TE(V, G, c, D) centrally (fast, accurate);
        ``"dual"`` uses the distributed Algorithm 1, which is what a real
        deployment would run.
    ecmp_tolerance:
        Cost tolerance for declaring two paths equal in Dijkstra.  ``None``
        picks ``ecmp_tolerance_factor * mean(positive first weights)``, which
        mirrors the paper's use of a tolerance matched to the weight scale
        (0.3 for fractional weights, 1 for integer weights).
    integer_weights:
        Round the first weights to integers before building shortest paths
        (Section V-G / Fig. 13).
    """

    objective: LoadBalanceObjective = field(default_factory=LoadBalanceObjective.proportional)
    te_solver: str = "frank_wolfe"
    ecmp_tolerance: float | None = None
    ecmp_tolerance_factor: float = 0.05
    integer_weights: bool = False
    max_integer_weight: int | None = 65535
    te_max_iterations: int = 400
    te_tolerance: float = 1e-7
    alg1_max_iterations: int = 2000
    alg1_tolerance: float = 1e-3
    alg1_step_ratio: float = 1.0
    alg2_max_iterations: int = 500
    alg2_tolerance: float = 1e-3
    alg2_step_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.te_solver not in ("frank_wolfe", "dual"):
            raise ValueError(
                f"te_solver must be 'frank_wolfe' or 'dual', got {self.te_solver!r}"
            )


@dataclass
class SPEFSolution:
    """Everything SPEF computes for one (network, demands) instance."""

    network: Network
    demands: TrafficMatrix
    config: SPEFConfig
    #: First link weights actually installed (possibly integer-rounded).
    first_weights: np.ndarray
    #: The raw (un-rounded) first weights from the TE solution.
    raw_first_weights: np.ndarray
    second_weights: np.ndarray
    dags: ShortestPathDags
    forwarding_tables: dict[Node, ForwardingTable]
    #: Flows realised by the SPEF forwarding tables.
    flows: FlowAssignment
    #: The optimal traffic distribution ``f*`` SPEF aims to reproduce.
    target_flows: np.ndarray
    te_solution: TESolution | None = None
    first_result: FirstWeightsResult | None = None
    second_result: SecondWeightsResult | None = None

    # ------------------------------------------------------------------
    # headline metrics
    # ------------------------------------------------------------------
    def max_link_utilization(self) -> float:
        return self.flows.max_link_utilization()

    def utilization(self) -> np.ndarray:
        return self.flows.utilization()

    def normalized_utility(self) -> float:
        """``sum log(1 - u_ij)`` of the realised flows (Fig. 10 metric)."""
        return normalized_utility(self.flows.utilization())

    def utility(self) -> float:
        """Aggregate (q, beta) utility of the realised flows."""
        return self.config.objective.total_utility(self.flows.spare_capacity())

    def target_utility(self) -> float:
        """Aggregate utility of the optimal distribution ``f*`` (upper bound)."""
        spare = self.network.capacities - self.target_flows
        return self.config.objective.total_utility(spare)

    def optimality_gap(self) -> float:
        """Relative gap between realised and optimal utility (0 means optimal TE)."""
        realised = self.utility()
        optimal = self.target_utility()
        if not np.isfinite(realised):
            return float("inf")
        return float((optimal - realised) / max(abs(optimal), 1e-12))

    # ------------------------------------------------------------------
    # path-diversity views (Table V)
    # ------------------------------------------------------------------
    def equal_cost_paths(self, source: Node, destination: Node) -> int:
        """Number of equal-cost shortest paths SPEF uses for one pair (its row only)."""
        dags = self.dags
        if destination not in dags or not self.network.has_node(source):
            return 0
        k = dags.destinations.index(destination)
        rows = slice(k, k + 1)
        one = ShortestPathDags(self.network, [destination], dags.distances[rows], dags.mask[rows])
        return int(path_counts(one)[0, self.network.node_index(source)])

    def equal_cost_path_histogram(self, max_paths: int = 8) -> dict[int, int]:
        """``{i: number of ingress-egress pairs with i equal-cost paths}``.

        Counts every ordered pair of distinct nodes (as Table V does), not
        only the pairs with demand.
        """
        return histogram_from_dags(self.dags, self.network, max_paths)


class SPEF:
    """The SPEF protocol: compute both link weights and the forwarding state.

    Examples
    --------
    >>> from repro.topology import fig4_network, fig4_demands
    >>> spef = SPEF()
    >>> solution = spef.fit(fig4_network(), fig4_demands())
    >>> solution.max_link_utilization() <= 1.0
    True
    """

    def __init__(self, config: SPEFConfig | None = None, **overrides) -> None:
        if config is None:
            config = SPEFConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    def _solve_te(
        self,
        network: Network,
        demands: TrafficMatrix,
        initial_flows: FlowAssignment | None = None,
    ) -> tuple[
        np.ndarray, FlowAssignment, TESolution | None, FirstWeightsResult | None
    ]:
        """Step 1 of Algorithm 4: optimal flows ``f*`` and first weights."""
        cfg = self.config
        if cfg.te_solver == "dual":
            result = compute_first_weights(
                network,
                demands,
                objective=cfg.objective,
                max_iterations=cfg.alg1_max_iterations,
                tolerance=cfg.alg1_tolerance,
                step_ratio=cfg.alg1_step_ratio,
                record_history=False,
            )
            return result.weights, result.flows, None, result
        problem = TEProblem(network=network, demands=demands, objective=cfg.objective)
        te_solution = solve_optimal_te(
            problem,
            max_iterations=cfg.te_max_iterations,
            tolerance=cfg.te_tolerance,
            initial_flows=initial_flows,
        )
        return (
            te_solution.link_weights,
            te_solution.flows,
            te_solution,
            None,
        )

    def _ecmp_tolerance(self, weights: np.ndarray) -> float:
        cfg = self.config
        if cfg.ecmp_tolerance is not None:
            return cfg.ecmp_tolerance
        if cfg.integer_weights:
            return 1.0
        positive = weights[weights > 0]
        if positive.size == 0:
            return 1e-9
        return cfg.ecmp_tolerance_factor * float(np.mean(positive))

    def _warm_initial_flows(
        self,
        network: Network,
        demands: TrafficMatrix,
        warm_start: SPEFSolution,
    ) -> FlowAssignment | None:
        """A feasible Frank-Wolfe starting point derived from a previous fit.

        Flow assignments live in the polytope of the *current* demands, so a
        previous solution is only reusable when the new matrix is a uniform
        rescaling of the old one (the demand-drift events the online
        controller emits); the flows then rescale with it.  Anything else —
        different pairs, per-pair drift, a different topology (checked by
        the full edge list, not just the link count: flows are link-indexed
        and mean nothing on a differently wired network) — returns ``None``
        and the solver starts cold.
        """
        if warm_start.network.edges != network.edges:
            return None
        old = warm_start.demands
        if set(old.pairs()) != set(demands.pairs()) or not len(old):
            return None
        old_total = old.total_volume()
        new_total = demands.total_volume()
        if old_total <= 0 or new_total <= 0:
            return None
        factor = new_total / old_total
        for pair, volume in old.items():
            if abs(demands[pair] - factor * volume) > 1e-9 * max(1.0, factor * volume):
                return None
        scaled = warm_start.flows.scale(factor)
        if self.config.objective.is_barrier():
            utilization = scaled.aggregate() / network.capacities
            if utilization.size and float(np.max(utilization)) >= 0.98:
                return None  # too close to saturation for a barrier start
        return scaled

    # ------------------------------------------------------------------
    def fit(
        self,
        network: Network,
        demands: TrafficMatrix,
        warm_start: SPEFSolution | None = None,
    ) -> SPEFSolution:
        """Run the whole SPEF pipeline (Algorithm 4) on one instance.

        ``warm_start`` resumes from a previous solution: the Frank-Wolfe TE
        solve starts from the (rescaled) previous flows when the demands are
        a uniform rescaling of the warm start's, and Algorithm 2 starts from
        the previous second weights instead of ``v = 0`` — after a small
        perturbation both converge in a fraction of the cold iterations.
        Incompatible warm starts (different topology, reshaped demands) are
        silently ignored, never wrong.  With ``te_solver="dual"`` the flow
        warm start does not apply (Algorithm 1 runs its own distributed
        initialisation); only the second weights resume.
        """
        demands.validate(network)
        cfg = self.config

        initial_flows = None
        initial_second = None
        if warm_start is not None:
            initial_flows = self._warm_initial_flows(network, demands, warm_start)
            # Second weights are link-indexed too: only meaningful when the
            # wiring matches, not merely the link count.
            if warm_start.network.edges == network.edges:
                initial_second = warm_start.second_weights.copy()
        if telemetry.enabled() and warm_start is not None:
            telemetry.count(
                "optimizer.warm_start",
                1,
                optimizer="spef",
                flows=initial_flows is not None,
                second=initial_second is not None,
            )

        with telemetry.span("optimizer.spef_te", solver=cfg.te_solver):
            raw_weights, optimal_flows, te_solution, first_result = self._solve_te(
                network, demands, initial_flows
            )
        target_flows = np.minimum(np.maximum(optimal_flows.aggregate(), 0.0), network.capacities)

        installed = raw_weights
        if cfg.integer_weights:
            spare = network.capacities - target_flows
            installed = round_weights(raw_weights, spare, cfg.max_integer_weight)

        destinations = demands.destinations()
        dags = all_shortest_path_dags(
            network, destinations, installed, self._ecmp_tolerance(installed)
        )
        # At the exact TE optimum every link carrying flow towards a
        # destination is on a shortest path (complementary slackness,
        # (6d)-(6e)); approximate weights can miss some, which would make the
        # NEM target unattainable.  OR in every downhill link whose optimal
        # flow exceeds the threshold (downhill keeps the DAG acyclic).
        threshold = DAG_FLOW_THRESHOLD * max(demands.total_volume(), 1e-12)
        sources, targets = network.link_node_indices()
        tail, head = dags.distances[:, sources], dags.distances[:, targets]
        carrying = optimal_flows.rows(destinations) > threshold
        dags.mask |= carrying & (head < tail) & np.isfinite(tail)

        with telemetry.span("optimizer.spef_second_weights"):
            second = compute_second_weights(
                network,
                demands,
                dags,
                target_flows,
                max_iterations=cfg.alg2_max_iterations,
                tolerance=cfg.alg2_tolerance,
                step_ratio=cfg.alg2_step_ratio,
                initial_weights=initial_second,
                record_history=False,
            )
        if telemetry.enabled():
            telemetry.count(
                "optimizer.iterations",
                second.iterations,
                optimizer="spef",
                phase="second-weights",
            )
            telemetry.count(
                "optimizer.outcome",
                optimizer="spef",
                phase="second-weights",
                outcome="converged" if second.converged else "iteration-cap",
            )

        tables = build_forwarding_tables(network, dags, second.weights)
        return SPEFSolution(
            network=network,
            demands=demands,
            config=cfg,
            first_weights=installed,
            raw_first_weights=raw_weights,
            second_weights=second.weights,
            dags=dags,
            forwarding_tables=tables,
            flows=second.flows,
            target_flows=target_flows,
            te_solution=te_solution,
            first_result=first_result,
            second_result=second,
        )

    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        """Convenience wrapper returning only the realised flows."""
        return self.fit(network, demands).flows
