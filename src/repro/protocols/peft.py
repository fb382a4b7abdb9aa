"""PEFT baseline (Xu, Chiang, Rexford, INFOCOM 2008).

PEFT ("Penalizing Exponential Flow-splitTing") is the closest prior work to
SPEF: a link-state protocol where every router splits traffic over *all*
downward paths towards the destination, with an exponential penalty on the
extra length of a path beyond the shortest one.  The key difference to SPEF is
that PEFT does not restrict forwarding to shortest paths, which is exactly the
property the paper criticises (and the reason SPEF exists).

We implement *Downward PEFT*, the loop-free variant the PEFT paper actually
deploys: for destination ``t`` a node ``u`` may forward to any neighbour ``v``
that is strictly closer to ``t`` (``d_v < d_u``).  The traffic share of the
link ``(u, v)`` is proportional to

    exp(-(w_uv + d_v - d_u)) * Z_t(v)

where ``Z_t`` ("effective number of downward paths") satisfies the recursion
``Z_t(t) = 1``, ``Z_t(u) = sum_v exp(-(w_uv + d_v - d_u)) * Z_t(v)``.

Two corners keep the forwarding graph acyclic so every routable demand is
delivered: a node with no strictly-downward neighbour (only possible on
zero-weight plateaus) forwards along its shortest-path DAG's plateau links
(:func:`~repro.network.spt.shortest_path_mask`), and a node whose
exponential shares all underflow to zero splits evenly over its downward
neighbours.

PEFT's own theory sets the link weights to the Lagrange multipliers of the TE
problem -- the same quantities SPEF uses as first weights -- so by default the
protocol derives its weights from the optimal TE solution for the configured
objective.  Explicit weights can be supplied for ablations.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..core.objectives import LoadBalanceObjective
from ..core.te_problem import TEProblem, solve_optimal_te
from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import (
    WeightsLike,
    as_weight_vector,
    shortest_path_mask,
    tails_with,
    validate_weights,
)
from ..routing.compiled import CompiledDag
from .base import RoutingProtocol


class PEFT(RoutingProtocol):
    """Downward PEFT with exponential penalty on longer paths.

    Parameters
    ----------
    weights:
        Explicit link weights.  When omitted, the weights are derived from the
        optimal TE solution for ``objective`` (the PEFT paper's prescription).
    objective:
        Objective used to derive weights when none are given.
    temperature:
        Scales the exponential penalty: the share of a path decays as
        ``exp(-extra_length / temperature)``.  1.0 reproduces the original
        protocol; larger values spread traffic more aggressively.
    """

    name = "PEFT"

    def __init__(
        self,
        weights: WeightsLike | None = None,
        objective: LoadBalanceObjective | None = None,
        temperature: float = 1.0,
    ) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self._weights = weights
        self.objective = objective or LoadBalanceObjective.proportional()
        self.temperature = temperature

    # ------------------------------------------------------------------
    def link_weights(self, network: Network, demands: TrafficMatrix) -> np.ndarray:
        """The PEFT link weights for this instance."""
        if self._weights is not None:
            return as_weight_vector(network, self._weights)
        problem = TEProblem(network=network, demands=demands, objective=self.objective)
        return solve_optimal_te(problem).link_weights

    def _downward_graph(
        self, network: Network, destinations: Iterable[Node], weights: np.ndarray
    ) -> tuple[CompiledDag, np.ndarray]:
        """The destinations' downward graphs, stacked, and their split ratios.

        Edge ``(u, v)`` gets the factor ``exp(-(w_uv + d_v - d_u) / T)``; the
        ratios are the factor times ``Z_t(v)``, normalised per node.
        """
        destinations = list(destinations)
        validate_weights(weights)
        distances, dag_mask = shortest_path_mask(network, destinations, weights)
        sources, targets = network.link_node_indices()
        tail, head = distances[:, sources], distances[:, targets]
        # Every strictly downward link; a node with none keeps its DAG hops
        # (plateau links).
        downward = (head < tail) & np.isfinite(tail)
        lone = ~tails_with(downward, sources, network.num_nodes)[:, sources]
        mask = downward | (dag_mask & lone)
        stack = CompiledDag.from_mask(network, destinations, np.isfinite(distances), mask)
        dist = distances.ravel()
        head, tail = dist[stack.targets], dist[stack.rows]
        extra = weights[stack.links] + head - tail
        # Plateau links carry no downward path weight (Z counts downward paths only).
        factors = np.where(head < tail, np.exp(-extra / self.temperature), 0.0)
        return stack, stack.boltzmann_ratios(factors)

    # ------------------------------------------------------------------
    def split_ratios(
        self, network: Network, demands: TrafficMatrix
    ) -> dict[Node, dict[Node, dict[Node, float]]]:
        weights = self.link_weights(network, demands)
        stack, ratios = self._downward_graph(network, demands.destinations(), weights)
        nodes = network.nodes
        n = len(nodes)
        result: dict[Node, dict[Node, dict[Node, float]]] = {d: {} for d in stack.destinations}
        for row, target, ratio in zip(
            stack.rows.tolist(), stack.targets.tolist(), ratios.tolist(), strict=True
        ):
            if ratio > 0:
                block, index = divmod(row, n)
                per_node = result[stack.destinations[block]].setdefault(nodes[index], {})
                per_node[nodes[target - block * n]] = ratio
        return result

    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        demands.validate(network)
        weights = self.link_weights(network, demands)
        stack, ratios = self._downward_graph(network, demands.destinations(), weights)
        return stack.flows(demands, ratios, missing="drop")

    def batch_link_loads(
        self, network: Network, matrices: Sequence[TrafficMatrix]
    ) -> np.ndarray | None:
        """Batched ensemble evaluation, only when the weights are explicit.

        With derived weights the forwarding state depends on the demands (the
        PEFT prescription solves the TE problem per matrix), so batching
        would change semantics and ``None`` is returned.
        """
        if self._weights is None:
            return None
        weights = as_weight_vector(network, self._weights)
        matrices = list(matrices)
        for tm in matrices:
            tm.validate(network)
        destinations = dict.fromkeys(d for tm in matrices for d in tm.destinations())
        stack, ratios = self._downward_graph(network, destinations, weights)
        return stack.ensemble_loads(matrices, ratios, missing="drop")
