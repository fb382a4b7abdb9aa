"""Demand scaling to a target network load.

The paper "create[s] different test cases by uniformly increasing the traffic
demands until the maximal link utilization almost reaches 100% with SPEF".
:func:`scale_to_network_load` scales a base traffic matrix to a target
*network load* (total demand over total capacity, the x-axis of Fig. 10).
The saturation point itself and the Fig. 10 load grid are
:meth:`~repro.analysis.experiments.Instance.saturation_load` and
:meth:`~repro.analysis.experiments.Instance.fig10_loads`.
"""

from __future__ import annotations

from ..network.demands import TrafficMatrix
from ..network.graph import Network


def scale_to_network_load(
    network: Network,
    demands: TrafficMatrix,
    target_load: float,
) -> TrafficMatrix:
    """Uniformly scale ``demands`` so total demand / total capacity == target."""
    if target_load < 0:
        raise ValueError("target network load must be non-negative")
    current = demands.network_load(network)
    if current <= 0:
        raise ValueError("cannot scale an empty traffic matrix to a positive load")
    return demands.scaled(target_load / current)
