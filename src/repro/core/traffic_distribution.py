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

The library's only implementation of this dynamic program is the routing
kernel's :meth:`~repro.routing.CompiledDag.path_weight_sums` /
:meth:`~repro.routing.CompiledDag.exponential_ratios`, which SPEF's
forwarding tables, NEM's dual objective and :func:`traffic_distribution`
all read.  :func:`traffic_distribution` computes the ratios and the
propagation for all destinations in one stacked pass, so every node splits
its whole incoming flow at once as the paper's Algorithm 3 prescribes.
"""

from __future__ import annotations

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..network.spt import ShortestPathDags
from ..routing import CompiledDagSet


def traffic_distribution(
    network: Network,
    demands: TrafficMatrix,
    dags: ShortestPathDags | CompiledDagSet,
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
