"""Fortz-Thorup OSPF weight optimization (INFOCOM 2000 / COA 2004).

Two pieces of the Fortz-Thorup work are needed by the paper:

* the **piecewise-linear link cost function** ``Phi_a(load)`` -- the "FT"
  curve of Fig. 2 and one of the objective columns in Table I;
* the **local-search weight optimizer** that looks for integer OSPF weights
  minimising the total piecewise-linear cost under even ECMP splitting (the
  problem shown NP-hard in [16]).

The cost function is implemented exactly (same breakpoints and slopes as the
original paper).  The local search is a faithful but deliberately compact
variant: single-weight neighbourhood moves, steepest-descent with random
sampling of neighbours and random restarts, bounded by an evaluation budget.
It is not meant to beat the original implementation's engineering, only to
reproduce its qualitative behaviour on the paper's topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..obs import telemetry
from ..solvers.assignment import ecmp_assignment
from .base import RoutingProtocol

#: Breakpoints of the Fortz-Thorup piecewise-linear cost, as fractions of the
#: link capacity.
FT_BREAKPOINTS: tuple[float, ...] = (0.0, 1.0 / 3.0, 2.0 / 3.0, 9.0 / 10.0, 1.0, 11.0 / 10.0)
#: Slopes of the cost on the corresponding segments (the last one extends to
#: infinity).
FT_SLOPES: tuple[float, ...] = (1.0, 3.0, 10.0, 70.0, 500.0, 5000.0)


def link_cost(load: float, capacity: float) -> float:
    """The Fortz-Thorup cost ``Phi_a(load)`` of a single link."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    cost = 0.0
    remaining = load
    for i, slope in enumerate(FT_SLOPES):
        lower = FT_BREAKPOINTS[i] * capacity
        upper = FT_BREAKPOINTS[i + 1] * capacity if i + 1 < len(FT_BREAKPOINTS) else float("inf")
        if load <= lower:
            break
        segment = min(load, upper) - lower
        cost += slope * segment
        remaining -= segment
    return cost


def link_cost_derivative(load: float, capacity: float) -> float:
    """Marginal Fortz-Thorup cost at ``load`` (the slope of the active segment)."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    utilization = load / capacity
    for i in range(len(FT_SLOPES) - 1, -1, -1):
        if utilization >= FT_BREAKPOINTS[i]:
            return FT_SLOPES[i]
    return FT_SLOPES[0]


def network_cost(flows: FlowAssignment) -> float:
    """Total Fortz-Thorup cost ``sum_a Phi_a(f_a)`` of a traffic distribution."""
    aggregate = flows.aggregate()
    capacities = flows.network.capacities
    return float(
        sum(link_cost(aggregate[i], capacities[i]) for i in range(flows.network.num_links))
    )


def normalized_cost(flows: FlowAssignment, demands: TrafficMatrix) -> float:
    """Fortz-Thorup's normalised cost ``Phi / Phi_uncap``.

    ``Phi_uncap`` is the cost of sending every demand along unit-weight
    shortest hop paths in an uncapacitated network; values near 1 mean the
    network is effectively uncongested, values above ~10 signal overload.
    """
    network = flows.network
    hop_flows = ecmp_assignment(network, demands, np.ones(network.num_links))
    aggregate = hop_flows.aggregate()
    uncap = float(np.sum(aggregate))
    if uncap <= 0:
        return 0.0
    return network_cost(flows) / uncap


@dataclass
class LocalSearchResult:
    """Outcome of the Fortz-Thorup weight search."""

    weights: np.ndarray
    cost: float
    evaluations: int
    history: list[float] = field(default_factory=list)


class FortzThorup(RoutingProtocol):
    """OSPF with Fortz-Thorup optimised integer weights.

    Parameters
    ----------
    max_weight:
        Upper bound of the integer weight range searched (the original paper
        allows 65535 but restricts the search to a small range; 20 is their
        common choice and ours).
    max_evaluations:
        Budget of full routing evaluations for the local search.
    neighbourhood_size:
        How many candidate single-weight moves are sampled per iteration.
    seed:
        Seed of the random sampling, for reproducibility.
    """

    name = "FortzThorup"

    def __init__(
        self,
        max_weight: int = 20,
        max_evaluations: int = 400,
        neighbourhood_size: int = 24,
        restarts: int = 2,
        seed: int = 0,
    ) -> None:
        if max_weight < 1:
            raise ValueError("max_weight must be at least 1")
        self.max_weight = max_weight
        self.max_evaluations = max_evaluations
        self.neighbourhood_size = neighbourhood_size
        self.restarts = restarts
        self.seed = seed
        self._last_result: LocalSearchResult | None = None

    # ------------------------------------------------------------------
    def _evaluate(
        self, network: Network, demands: TrafficMatrix, weights: np.ndarray
    ) -> float:
        flows = ecmp_assignment(network, demands, weights)
        return network_cost(flows)

    def _initial_weights(
        self,
        network: Network,
        rng: np.random.Generator,
        attempt: int,
        warm_start: np.ndarray | None = None,
    ) -> np.ndarray:
        if attempt == 0:
            if warm_start is not None:
                rounded = np.rint(np.asarray(warm_start, dtype=float))
                return np.clip(rounded, 1, self.max_weight).astype(float)
            # InvCap-style start, rounded into the weight range.
            capacities = network.capacities
            scaled = np.rint(self.max_weight * np.min(capacities) / capacities)
            return np.clip(scaled, 1, self.max_weight).astype(float)
        return rng.integers(1, self.max_weight + 1, size=network.num_links).astype(float)

    def optimize(
        self,
        network: Network,
        demands: TrafficMatrix,
        warm_start: np.ndarray | None = None,
    ) -> LocalSearchResult:
        """Run the local search and return the best weight setting found.

        ``warm_start`` replaces the InvCap-style start of the first attempt
        with an existing weight setting (rounded and clipped into the integer
        range).  After a small perturbation — a failed trunk, a demand drift
        — the previous optimum is usually near-stationary, so the
        warm-started search converges in a fraction of the evaluations; the
        random restarts (``restarts > 1``) still explore from scratch.
        """
        if warm_start is not None and np.shape(warm_start) != (network.num_links,):
            raise ValueError(
                f"warm start must have length {network.num_links}, "
                f"got shape {np.shape(warm_start)}"
            )
        demands.validate(network)
        rng = np.random.default_rng(self.seed)
        best_weights: np.ndarray | None = None
        best_cost = float("inf")
        evaluations = 0
        first_attempt_evaluations = 0
        history: list[float] = []
        for attempt in range(max(1, self.restarts)):
            weights = self._initial_weights(network, rng, attempt, warm_start)
            cost = self._evaluate(network, demands, weights)
            evaluations += 1
            improved = True
            while improved and evaluations < self.max_evaluations:
                improved = False
                links = rng.choice(
                    network.num_links,
                    size=min(self.neighbourhood_size, network.num_links),
                    replace=False,
                )
                best_move: tuple[int, float] | None = None
                best_move_cost = cost
                for link_index in links:
                    if evaluations >= self.max_evaluations:
                        break
                    candidate_value = float(rng.integers(1, self.max_weight + 1))
                    if candidate_value == weights[link_index]:
                        candidate_value = 1.0 + (candidate_value % self.max_weight)
                    candidate = weights.copy()
                    candidate[link_index] = candidate_value
                    candidate_cost = self._evaluate(network, demands, candidate)
                    evaluations += 1
                    if candidate_cost < best_move_cost - 1e-9:
                        best_move_cost = candidate_cost
                        best_move = (int(link_index), candidate_value)
                if best_move is not None:
                    weights[best_move[0]] = best_move[1]
                    cost = best_move_cost
                    improved = True
                history.append(cost)
            if attempt == 0:
                first_attempt_evaluations = evaluations
            if cost < best_cost:
                best_cost = cost
                best_weights = weights.copy()
        assert best_weights is not None
        if telemetry.enabled():
            telemetry.count("optimizer.evaluations", evaluations, optimizer="fortz-thorup")
            if warm_start is not None:
                # Warm-start hit depth: evaluations the warm-started attempt
                # needed before going stationary (the roadmap's "how much did
                # resuming from the previous optimum save?" signal).
                telemetry.count("optimizer.warm_start", 1, optimizer="fortz-thorup")
                telemetry.observe(
                    "optimizer.warm_start_depth",
                    first_attempt_evaluations,
                    edges=(10, 30, 100, 300, 1000, 3000, 10000),
                )
        result = LocalSearchResult(
            weights=best_weights, cost=best_cost, evaluations=evaluations, history=history
        )
        self._last_result = result
        return result

    # ------------------------------------------------------------------
    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        result = self.optimize(network, demands)
        return ecmp_assignment(network, demands, result.weights)

    @property
    def last_result(self) -> LocalSearchResult | None:
        """The search result of the most recent :meth:`route`/:meth:`optimize` call."""
        return self._last_result
