"""Algorithm 3: TrafficDistribution(v) -- exponential splitting over ECMP DAGs.

Given the shortest-path DAGs built from the *first* link weights and a vector
of *second* link weights ``v``, every router splits the traffic towards a
destination across its equal-cost next hops proportionally to

    Gamma_t(s, k) = sum_j exp(-v^(s,t)_kj) / sum_i sum_j exp(-v^(s,t)_ij)

(Eq. 22), where ``v^(s,t)_kj`` are the second-weight lengths of the equal-cost
paths from ``s`` through next hop ``k``.  Rather than enumerating paths, the
sums of ``exp(-length)`` are computed by dynamic programming over the DAG:

    Z_t(t) = 1,   Z_t(s) = sum_{k in nexthops(s)} exp(-v_sk) * Z_t(k)

so that ``Gamma_t(s, k) = exp(-v_sk) * Z_t(k) / Z_t(s)``.  This is exact and
keeps the computation polynomial even when the number of equal-cost paths is
exponential.

The dict forms below feed SPEF's forwarding tables and NEM's dual
objective; :func:`traffic_distribution` computes the same ratios and the
propagation on the routing kernel (:mod:`repro.routing`), all destinations
in one stacked pass, so every node splits its whole incoming flow at once as
the paper's Algorithm 3 prescribes.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import ShortestPathDag
from ..routing import CompiledDagSet


def path_weight_sums(
    network: Network,
    dag: ShortestPathDag,
    second_weights: np.ndarray,
) -> dict[Node, float]:
    """``Z_t(s) = sum over equal-cost paths p from s of exp(-v-length(p))``.

    Computed bottom-up over the DAG (nodes in increasing distance order).
    Nodes that cannot reach the destination are absent.
    """
    z_values: dict[Node, float] = {dag.destination: 1.0}
    for node in reversed(dag.topological_order()):
        if node == dag.destination:
            continue
        total = 0.0
        for hop in dag.next_hops_of(node):
            z_hop = z_values.get(hop)
            if z_hop is None:
                continue
            index = network.link_index(node, hop)
            total += float(np.exp(-second_weights[index])) * z_hop
        z_values[node] = total
    return z_values


def exponential_split_ratios(
    network: Network,
    dag: ShortestPathDag,
    second_weights: np.ndarray,
) -> dict[Node, dict[Node, float]]:
    """Per-node next-hop split ratios ``Gamma_t(s, k)`` of Eq. (22).

    Nodes with a single next hop get ratio 1 for it.  Nodes whose ``Z`` value
    is zero (numerically impossible unless the DAG is broken) fall back to an
    even split.
    """
    z_values = path_weight_sums(network, dag, second_weights)
    ratios: dict[Node, dict[Node, float]] = {}
    for node, hops in dag.next_hops.items():
        if node == dag.destination or not hops:
            continue
        weights = {}
        for hop in hops:
            z_hop = z_values.get(hop, 0.0)
            index = network.link_index(node, hop)
            weights[hop] = float(np.exp(-second_weights[index])) * z_hop
        total = sum(weights.values())
        if total <= 0:
            ratios[node] = {hop: 1.0 / len(hops) for hop in hops}
        else:
            ratios[node] = {hop: value / total for hop, value in weights.items()}
    return ratios


def traffic_distribution(
    network: Network,
    demands: TrafficMatrix,
    dags: Mapping[Node, ShortestPathDag] | CompiledDagSet,
    second_weights: np.ndarray,
) -> FlowAssignment:
    """Algorithm 3: the traffic distribution induced by second weights ``v``.

    Parameters
    ----------
    dags:
        Shortest-path DAGs per destination, built from the *first* weights
        (the set ``ON`` of the paper).  Callers that re-evaluate many ``v``
        against fixed DAGs (Algorithm 2) pass a
        :class:`~repro.routing.CompiledDagSet` to compile them only once.
    second_weights:
        Link-indexed vector ``v``; ``v = 0`` gives plain even-ish splitting
        weighted by the number of downstream equal-cost paths.
    """
    demands.validate(network)
    dag_set = dags if isinstance(dags, CompiledDagSet) else CompiledDagSet(network, dags)
    return dag_set.traffic_distribution(demands, second_weights)
