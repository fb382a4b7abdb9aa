"""OSPF baseline: configurable link weights, Dijkstra and even ECMP splitting.

The paper's comparison baseline is "the current version of OSPF": link weights
set inversely proportional to capacity (Cisco's InvCap recommendation) and
traffic split *evenly* over all equal-cost shortest paths.  This module
implements that baseline, plus the weight-setting variants needed elsewhere
(unit weights for minimum hop, explicit operator weights for the Fortz-Thorup
local search).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import DEFAULT_TOLERANCE, WeightsLike, all_shortest_path_dags, as_weight_vector
from ..routing import CompiledDag
from ..solvers.assignment import ecmp_assignment
from .base import RoutingProtocol


def invcap_weights(network: Network, reference_capacity: float | None = None) -> np.ndarray:
    """Cisco InvCap weights: ``w_ij = C_ref / c_ij``.

    ``reference_capacity`` defaults to the largest capacity in the network so
    the largest link gets weight 1, matching the usual router configuration.
    """
    capacities = network.capacities
    if reference_capacity is None:
        reference_capacity = float(np.max(capacities))
    if reference_capacity <= 0:
        raise ValueError("reference capacity must be positive")
    return reference_capacity / capacities


def unit_weights(network: Network) -> np.ndarray:
    """All-ones weights: plain hop-count shortest paths."""
    return np.ones(network.num_links)


class OSPF(RoutingProtocol):
    """OSPF with even splitting over equal-cost shortest paths.

    Parameters
    ----------
    weights:
        Explicit link weights; by default InvCap weights are derived from the
        network capacities at routing time.
    ecmp_tolerance:
        Cost tolerance when declaring paths equal (integer OSPF weights make
        exact ties common, so the default exact comparison is usually right).
    """

    name = "OSPF"

    def __init__(
        self,
        weights: WeightsLike | None = None,
        ecmp_tolerance: float = DEFAULT_TOLERANCE,
        name: str | None = None,
    ) -> None:
        self._weights = weights
        self.ecmp_tolerance = ecmp_tolerance
        if name is not None:
            self.name = name

    def link_weights(self, network: Network) -> np.ndarray:
        """The weight vector this OSPF instance uses on ``network``."""
        if self._weights is None:
            return invcap_weights(network)
        return as_weight_vector(network, self._weights)

    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        weights = self.link_weights(network)
        return ecmp_assignment(network, demands, weights, self.ecmp_tolerance)

    def batch_link_loads(
        self, network: Network, matrices: Sequence[TrafficMatrix]
    ) -> np.ndarray | None:
        """Stacked ECMP evaluation of a demand ensemble on one weight setting.

        OSPF's forwarding state depends only on the network (explicit weights
        or InvCap derived from capacities), so the shortest-path DAGs are
        compiled once and every matrix rides the same batched propagation.
        """
        matrices = list(matrices)
        for tm in matrices:
            tm.validate(network)
        destinations = list(dict.fromkeys(d for tm in matrices for d in tm.destinations()))
        stack = CompiledDag.from_weights(
            network, destinations, self.link_weights(network), self.ecmp_tolerance
        )
        return stack.ensemble_loads(matrices, stack.uniform_ratios())

    def ecmp_forwarding_weights(self, network: Network) -> np.ndarray | None:
        """OSPF's forwarding is exactly even-ECMP under its link weights.

        Returns the weight vector the incremental failure sweep should hold
        fixed while links fail and recover.  Declined (``None``) when the
        instance was configured with a raw link-indexed weight *vector*:
        such a vector cannot be applied to a pruned failure instance (its
        link indexing differs), so the cold per-cell path errors where the sweep would
        succeed — the two paths must stay result-equivalent.  Mapping
        weights and capacity-derived defaults carry over edge-by-edge and
        qualify.
        """
        if self._weights is not None and not isinstance(self._weights, Mapping):
            return None
        return self.link_weights(network)

    def capacity_independent_forwarding(self, network: Network) -> bool:
        """Explicit mapping weights survive capacity scaling; InvCap does not.

        The InvCap default re-derives weights from the (possibly degraded)
        capacities at routing time, so only instances configured with an
        explicit weight mapping qualify for incremental capacity sweeps.
        """
        return self.ecmp_forwarding_weights(network) is not None and self._weights is not None

    def split_ratios(
        self, network: Network, demands: TrafficMatrix
    ) -> dict[Node, dict[Node, dict[Node, float]]]:
        """Even split ratios over the equal-cost next hops (for the simulator)."""
        weights = self.link_weights(network)
        dags = all_shortest_path_dags(
            network, demands.destinations(), weights, self.ecmp_tolerance
        )
        ratios: dict[Node, dict[Node, dict[Node, float]]] = {}
        for destination, dag in dags.items():
            per_node: dict[Node, dict[Node, float]] = {}
            for node in dag.next_hops:
                hops = dag.next_hops_of(node)
                if hops:
                    per_node[node] = {hop: 1.0 / len(hops) for hop in hops}
            ratios[destination] = per_node
        return ratios


class MinHopOSPF(OSPF):
    """OSPF with unit weights (pure hop count), a common operator default."""

    name = "OSPF-minhop"

    def __init__(self, ecmp_tolerance: float = DEFAULT_TOLERANCE) -> None:
        super().__init__(weights=None, ecmp_tolerance=ecmp_tolerance)

    def link_weights(self, network: Network) -> np.ndarray:
        return unit_weights(network)

    def capacity_independent_forwarding(self, network: Network) -> bool:
        """Unit weights never look at capacities."""
        return self.ecmp_forwarding_weights(network) is not None
