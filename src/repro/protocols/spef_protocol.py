"""SPEF exposed through the common :class:`RoutingProtocol` interface.

The heavy lifting lives in :mod:`repro.core.spef`; this adapter lets the
evaluation harness, the benchmarks and the flow-level simulator treat SPEF
exactly like any other protocol.
"""

from __future__ import annotations


from ..core.forwarding import split_ratios_from_tables
from ..core.spef import SPEF, SPEFConfig, SPEFSolution
from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from .base import RoutingProtocol


class SPEFProtocol(RoutingProtocol):
    """SPEF as a drop-in routing protocol.

    The ``beta`` shorthand mirrors the paper's notation SPEF0 / SPEF1 / SPEF5
    for SPEF run with the (1, beta) load-balance objective.
    """

    name = "SPEF"

    def __init__(self, config: SPEFConfig | None = None, name: str | None = None, **overrides) -> None:
        self._spef = SPEF(config=config, **overrides)
        if name is not None:
            self.name = name
        else:
            beta = self._spef.config.objective.beta
            self.name = f"SPEF(beta={beta:g})"
        self._last_solution: SPEFSolution | None = None

    @classmethod
    def with_beta(cls, beta: float, **overrides) -> SPEFProtocol:
        """SPEF with the (1, beta) objective, e.g. ``with_beta(1)`` for SPEF1."""
        from ..core.objectives import LoadBalanceObjective

        config = SPEFConfig(objective=LoadBalanceObjective(beta=beta), **overrides)
        return cls(config=config, name=f"SPEF{beta:g}")

    @property
    def config(self) -> SPEFConfig:
        return self._spef.config

    @property
    def last_solution(self) -> SPEFSolution | None:
        """The full :class:`SPEFSolution` of the most recent route() call."""
        return self._last_solution

    def fit(self, network: Network, demands: TrafficMatrix) -> SPEFSolution:
        solution = self._spef.fit(network, demands)
        self._last_solution = solution
        return solution

    def route(self, network: Network, demands: TrafficMatrix) -> FlowAssignment:
        return self.fit(network, demands).flows

    def split_ratios(
        self, network: Network, demands: TrafficMatrix
    ) -> dict[Node, dict[Node, dict[Node, float]]]:
        solution = self._last_solution
        if (
            solution is None
            or solution.network is not network
            or solution.demands is not demands
        ):
            solution = self.fit(network, demands)
        return split_ratios_from_tables(solution.forwarding_tables)
