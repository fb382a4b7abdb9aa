"""Common interface for routing protocols.

Every protocol in the library (OSPF, SPEF, PEFT, Fortz-Thorup, min-max MLU)
implements the same tiny interface: given a network and a traffic matrix it
produces a :class:`~repro.network.flows.FlowAssignment`.  The evaluation
harness, the benchmarks and the flow-level simulator only depend on this
interface, so protocols are interchangeable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.objectives import normalized_utility
from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node


class RoutingProtocol(abc.ABC):
    """A routing protocol maps (network, demands) to link flows."""

    #: Human-readable protocol name used in reports and plots.
    name: str = "protocol"

    @abc.abstractmethod
    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        """Compute the traffic distribution this protocol induces."""

    def batch_link_loads(
        self, network: Network, matrices: Sequence[TrafficMatrix]
    ) -> np.ndarray | None:
        """Aggregate link loads for a whole demand ensemble, when batchable.

        Protocols whose forwarding state depends only on the network (not on
        the demands -- OSPF with fixed or capacity-derived weights, PEFT with
        explicit weights) can route many traffic matrices against one
        compiled weight setting in a single stacked operation; they return an
        ``(len(matrices), num_links)`` array whose row ``i`` equals
        ``route(network, matrices[i]).aggregate()``.  Protocols that
        re-optimise per demand matrix (SPEF, Fortz-Thorup, PEFT with derived
        weights) return ``None`` and callers fall back to per-matrix
        :meth:`route` calls.  The scenario engine's batch runner uses this to
        amortise DAG compilation across demand-only scenarios; it probes
        support with an empty ensemble, so batchable implementations must
        return an empty ``(0, num_links)`` array for ``matrices=[]`` rather
        than ``None``.
        """
        return None

    def ecmp_forwarding_weights(self, network: Network) -> np.ndarray | None:
        """Link weights fully determining this protocol's forwarding, or ``None``.

        Protocols that forward with even ECMP splitting over shortest paths
        under demand-independent weights (the OSPF family) return the weight
        vector; the online TE controller can then replay pure link-failure
        scenarios against those weights with incremental shortest-path
        updates instead of from-scratch recomputes (the scenario runner's
        incremental fast path).  Everything else — protocols that
        re-optimise per instance or split unevenly — returns ``None``.
        """
        return None

    def capacity_independent_forwarding(self, network: Network) -> bool:
        """True when :meth:`ecmp_forwarding_weights` ignores link capacities.

        Capacity-degradation scenarios can only ride the incremental sweep
        when the weights the sweep holds fixed are the weights the cold path
        would derive on the *perturbed* instance.  Explicit (operator-
        configured) weights and unit weights qualify; capacity-derived
        defaults like Cisco InvCap do not — scaling a capacity rescales the
        cold path's weights, so the two paths legitimately route
        differently.  Meaningless (and ``False``) when
        :meth:`ecmp_forwarding_weights` returns ``None``.
        """
        return False

    def split_ratios(
        self, network: Network, demands: TrafficMatrix
    ) -> dict[Node, dict[Node, dict[Node, float]]] | None:
        """Per-destination next-hop split ratios, when the protocol has them.

        Returns ``destination -> node -> next hop -> ratio``.  Protocols that
        only produce aggregate flows (e.g. LP-based min-max MLU) return
        ``None``; the flow-level simulator then falls back to proportional
        splitting derived from the flow assignment itself.
        """
        return None

    def evaluate(self, network: Network, demands: TrafficMatrix) -> ProtocolEvaluation:
        """Route the demands and compute the headline metrics."""
        flows = self.route(network, demands)
        utilization = flows.utilization()
        return ProtocolEvaluation(
            protocol=self.name,
            network=network.name,
            network_load=demands.network_load(network),
            max_link_utilization=float(np.max(utilization)) if utilization.size else 0.0,
            normalized_utility=normalized_utility(utilization),
            flows=flows,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class ProtocolEvaluation:
    """Headline metrics of one protocol on one instance (a Fig. 10 point)."""

    protocol: str
    network: str
    network_load: float
    max_link_utilization: float
    normalized_utility: float
    flows: FlowAssignment

    def as_row(self) -> dict[str, object]:
        """A flat dict suitable for tabular reporting."""
        return {
            "protocol": self.protocol,
            "network": self.network,
            "network_load": round(self.network_load, 4),
            "mlu": round(self.max_link_utilization, 4),
            "utility": (
                float("-inf")
                if self.normalized_utility == float("-inf")
                else round(self.normalized_utility, 4)
            ),
        }
