"""Path-diversity metrics (Table V of the paper).

Table V reports, for Cernet2 at several load levels, how many ingress-egress
pairs see 1, 2, 3 or 4 equal-cost shortest paths under SPEF's first weights,
compared with OSPF's InvCap weights.  These helpers compute that histogram for
any weight setting.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..network.graph import Network
from ..network.spt import ShortestPathDags, WeightsLike, all_shortest_path_dags
from ..routing import CompiledDag


def path_counts(dags: ShortestPathDags) -> np.ndarray:
    """``counts[k, i]``: equal-cost shortest paths from node ``i`` to ``dags.destinations[k]``.

    One stacked :meth:`~repro.routing.CompiledDag.path_weight_sums` with
    unit edge factors, exact below 2**53 paths; 1 at the destination and 0
    where the node cannot reach it.
    """
    member = np.isfinite(dags.distances)
    stack = CompiledDag.from_mask(dags.network, dags.destinations, member, dags.mask)
    sums = stack.path_weight_sums(np.ones(stack.num_edges))
    return sums.reshape(dags.mask.shape[0], -1).astype(np.int64)


def _pair_counts(dags: ShortestPathDags, network: Network) -> dict[tuple, int]:
    """``{(source, destination): count}`` over every source but the destination itself."""
    nodes = network.nodes
    return {
        (source, destination): counts[index]
        for destination, counts in zip(dags.destinations, path_counts(dags).tolist(), strict=True)
        for index, source in enumerate(nodes)
        if source != destination
    }


def equal_cost_path_counts(
    network: Network,
    weights: WeightsLike,
    tolerance: float = 1e-9,
    destinations: list | None = None,
) -> dict[tuple, int]:
    """Number of equal-cost shortest paths for every ordered node pair.

    Examples
    --------
    >>> from repro.network import Network
    >>> diamond = Network.from_link_list([(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)])
    >>> counts = equal_cost_path_counts(diamond, [1.0, 1.0, 1.0, 1.0])
    >>> counts[(1, 4)], counts[(2, 4)], counts[(4, 1)]
    (2, 1, 0)
    """
    if destinations is None:
        destinations = network.nodes
    return _pair_counts(all_shortest_path_dags(network, destinations, weights, tolerance), network)


def equal_cost_path_histogram(
    network: Network,
    weights: WeightsLike,
    tolerance: float = 1e-9,
    max_paths: int = 8,
    destinations: list | None = None,
) -> dict[int, int]:
    """``{i: number of ingress-egress pairs with i equal-cost paths}`` (Table V)."""
    counts = equal_cost_path_counts(network, weights, tolerance, destinations)
    return dict(Counter(min(count, max_paths) for count in counts.values()))


def histogram_from_dags(
    dags: ShortestPathDags, network: Network, max_paths: int = 8
) -> dict[int, int]:
    """Table V histogram computed from already-built DAGs (e.g. a SPEF solution)."""
    counts = _pair_counts(dags, network)
    return dict(Counter(min(count, max_paths) for count in counts.values()))
