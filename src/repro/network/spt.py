"""Shortest-path machinery: one builder for every ECMP DAG in the library.

OSPF (and SPEF) forwards traffic hop-by-hop along shortest paths towards each
destination.  Two details from the paper matter here:

* ties are resolved *within a tolerance* (Section V-G uses tolerance 0.3 for
  fractional weights and 1 for integer weights), so "equal cost" really means
  "equal within the tolerance";
* the set of shortest paths towards a destination forms a DAG, and routers
  only need the *next hops* on that DAG (the set ``ON_t`` of the paper).

Every DAG comes from :func:`shortest_path_mask`: one C Dijkstra for all
destinations and one (destination x link) mask.  The routing kernel
compiles the mask directly; :class:`ShortestPathDags` carries it and builds
each destination's :class:`ShortestPathDag` dict view on access.  The
public functions below take link weights as an ``{(u, v): w}`` mapping or
a link-indexed vector.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import Edge, Network, NetworkError, Node

WeightsLike = Mapping[Edge, float] | Sequence[float] | np.ndarray

#: Default cost tolerance when comparing path lengths (paper Section V-G).
DEFAULT_TOLERANCE = 1e-9


class UnreachableError(NetworkError):
    """Raised when a demand endpoint cannot reach its destination."""


def as_weight_vector(network: Network, weights: WeightsLike) -> np.ndarray:
    """Normalise ``weights`` to a link-indexed numpy vector.

    Accepts a mapping from edges to weights or an already link-indexed
    sequence.  Missing edges in a mapping default to weight 0 (matching the
    ``β = 0`` Table I entry where an unused link gets weight 0).
    """
    if isinstance(weights, Mapping):
        return network.weight_vector(dict(weights))
    vector = np.asarray(weights, dtype=float)
    if vector.shape != (network.num_links,):
        raise NetworkError(
            f"expected {network.num_links} weights, got shape {vector.shape}"
        )
    return vector.copy()


def validate_weights(vector: np.ndarray) -> None:
    """Reject negative or non-finite weights."""
    if not np.isfinite(vector).all():
        raise NetworkError("link weights must be finite")
    if (vector < 0).any():
        raise NetworkError("link weights must be non-negative")


# ----------------------------------------------------------------------
# the builder: one C Dijkstra, one (destination x link) mask
# ----------------------------------------------------------------------
#: A tight link whose head is more than this much closer than its tail is *downhill*.
DOWNHILL_MARGIN = 1e-15


#: Per network: its reversed link graph as a CSR matrix (row ``v`` lists the
#: links entering ``v``; entry ``k`` is link ``order[k]``), whose shared
#: ``data`` each build refreshes under the lock.
_REVERSED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _distance_matrix(network: Network, indices: list[int], vector: np.ndarray) -> np.ndarray:
    """``(len(indices), num_nodes)`` distances to the nodes at ``indices``."""
    shape = (network.num_nodes, network.num_links)
    cached = _REVERSED.get(network)
    if cached is None or cached[0] != shape:
        sources, targets = network.link_node_indices()
        order = np.lexsort((sources, targets))
        indptr = np.searchsorted(targets[order], np.arange(shape[0] + 1))
        matrix = csr_matrix((vector[order], sources[order], indptr), shape=(shape[0],) * 2)
        cached = _REVERSED[network] = (shape, order, matrix, threading.Lock())
    _, order, matrix, lock = cached
    with lock:
        matrix.data = vector[order]
        return dijkstra(matrix, indices=indices)


def _distance_dict(nodes: list[Node], row: np.ndarray) -> dict[Node, float]:
    """``{node: distance}`` for the finite entries of a distance row."""
    reachable = np.flatnonzero(np.isfinite(row)).tolist()
    return dict(zip([nodes[i] for i in reachable], row[reachable].tolist(), strict=True))


def tails_with(mask: np.ndarray, sources: np.ndarray, num_nodes: int) -> np.ndarray:
    """``(rows, num_nodes)``: whether each node is the tail of a masked link."""
    rows, links = np.nonzero(mask)
    tails = np.zeros((mask.shape[0], num_nodes), dtype=bool)
    tails[rows, sources[links]] = True
    return tails


def shortest_path_mask(
    network: Network,
    destinations: Sequence[Node],
    vector: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """The one DAG builder: ``(distances, mask)`` towards every destination.

    ``vector`` holds validated link weights (``inf`` removes a link).
    ``distances[k, i]`` is node ``i``'s distance to ``destinations[k]``
    (``inf`` if unreachable); ``mask[k, l]`` puts link ``l`` in that DAG.
    A link ``u -> v`` is *tight* when ``w + d(v) <= d(u) + tolerance``; tight
    links with ``d(v) < d(u) - 1e-15`` (*downhill*) are DAG links.  On
    zero-weight plateaus, the other tight links with ``d(v) <= d(u)`` are
    *flat*, and join iff ``h(v) < h(u)``, ``h`` counting flat hops to the
    nearest node with a downhill link or the destination.  Links never
    climb and flat ones lower ``h``, so the DAG is acyclic, and every node
    that reaches the destination has a next hop.
    """
    index = [network.node_index(destination) for destination in destinations]
    distances = _distance_matrix(network, index, vector)
    sources, targets = network.link_node_indices()
    tail, head = distances[:, sources], distances[:, targets]
    tight = (vector + head <= tail + tolerance) & np.isfinite(tail)
    mask = tight & (head < tail - DOWNHILL_MARGIN)
    flat = tight & ~mask & (head <= tail)
    if not flat.any():
        return distances, mask
    # h = 0 at the destination and at nodes with a downhill link; grow it
    # one flat hop at a time over the flat links out of the other nodes.
    level = np.where(tails_with(mask, sources, network.num_nodes), 0, -1)
    level[np.arange(len(index)), index] = 0
    rows, links = np.nonzero(flat & (level[:, sources] < 0))
    tails, heads = sources[links], targets[links]
    depth = 0
    while True:
        grow = (level[rows, heads] == depth) & (level[rows, tails] < 0)
        if not grow.any():
            break
        depth += 1
        level[rows[grow], tails[grow]] = depth
    head_level = level[rows, heads]
    joins = (head_level >= 0) & (head_level < level[rows, tails])
    mask[rows[joins], links[joins]] = True
    return distances, mask


def distances_to(
    network: Network,
    destination: Node,
    weights: WeightsLike,
) -> dict[Node, float]:
    """Shortest distance from every node *to* ``destination``.

    Dijkstra on the reverse graph, which is the natural orientation for
    destination-based hop-by-hop forwarding.  Unreachable nodes are absent
    from the returned mapping.
    """
    vector = as_weight_vector(network, weights)
    validate_weights(vector)
    row = _distance_matrix(network, [network.node_index(destination)], vector)[0]
    return _distance_dict(network.nodes, row)


@dataclass
class ShortestPathDag:
    """The equal-cost shortest-path DAG towards one destination.

    Attributes
    ----------
    destination:
        The destination node ``t``.
    distances:
        Shortest distance from each node to the destination.
    next_hops:
        ``ON_t`` of the paper: for each node, the next hops that lie on some
        shortest path towards the destination (within the tolerance).
    tolerance:
        The cost tolerance used to declare two paths equal.
    """

    destination: Node
    distances: dict[Node, float]
    next_hops: dict[Node, list[Node]]
    tolerance: float = DEFAULT_TOLERANCE

    def reachable(self, node: Node) -> bool:
        return node in self.distances

    def distance(self, node: Node) -> float:
        try:
            return self.distances[node]
        except KeyError:
            raise UnreachableError(
                f"node {node!r} cannot reach destination {self.destination!r}"
            ) from None

    def next_hops_of(self, node: Node) -> list[Node]:
        """Shortest-path next hops of ``node`` (empty at the destination)."""
        return list(self.next_hops.get(node, []))

    def edges(self) -> list[Edge]:
        """All links that belong to some shortest path towards the destination."""
        return [
            (node, hop)
            for node, hops in self.next_hops.items()
            for hop in hops
        ]

    def paths_from(self, source: Node, limit: int | None = None) -> list[list[Node]]:
        """Enumerate the equal-cost shortest paths from ``source``.

        Paths are returned as node lists ending at the destination.  ``limit``
        caps the number of paths (useful on dense DAGs); ``None`` enumerates
        everything.
        """
        if not self.reachable(source):
            raise UnreachableError(
                f"node {source!r} cannot reach destination {self.destination!r}"
            )
        paths: list[list[Node]] = []
        stack: list[tuple[Node, list[Node]]] = [(source, [source])]
        while stack:
            node, prefix = stack.pop()
            if node == self.destination:
                paths.append(prefix)
                if limit is not None and len(paths) >= limit:
                    break
                continue
            for hop in self.next_hops.get(node, []):
                stack.append((hop, prefix + [hop]))
        return paths


class ShortestPathDags(Mapping[Node, ShortestPathDag]):
    """``{destination: ShortestPathDag}`` over one :func:`shortest_path_mask` result.

    ``distances`` (destinations x nodes, ``inf`` where a node cannot reach
    the destination) and ``mask`` (destinations x links) are the builder's
    rows as they are; routing code reads them directly.
    Indexing builds a destination's :class:`ShortestPathDag` from its rows,
    anew on each access, with next hops in link-index order (a node's first
    hop is its DAG link with the lowest index).
    """

    def __init__(
        self,
        network: Network,
        destinations: Sequence[Node],
        distances: np.ndarray,
        mask: np.ndarray,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.network = network
        self.destinations = list(destinations)
        self.distances = distances
        self.mask = mask
        self.tolerance = tolerance
        self._rows = {destination: row for row, destination in enumerate(self.destinations)}

    def __contains__(self, destination: object) -> bool:
        return destination in self._rows

    def __iter__(self) -> Iterator[Node]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, destination: Node) -> ShortestPathDag:
        row = self._rows[destination]
        nodes = self.network.nodes
        sources, targets = self.network.link_node_indices()
        dist = _distance_dict(nodes, self.distances[row])
        next_hops: dict[Node, list[Node]] = {node: [] for node in dist if node != destination}
        (links,) = self.mask[row].nonzero()
        for tail, head in zip(sources[links].tolist(), targets[links].tolist(), strict=True):
            next_hops[nodes[tail]].append(nodes[head])
        return ShortestPathDag(destination, dist, next_hops, self.tolerance)


def shortest_path_dag(
    network: Network,
    destination: Node,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ShortestPathDag:
    """The equal-cost shortest-path DAG towards ``destination``.

    A view of one :func:`shortest_path_mask` row; see there for which links
    join the DAG.
    """
    return all_shortest_path_dags(network, [destination], weights, tolerance)[destination]


def all_shortest_path_dags(
    network: Network,
    destinations: Sequence[Node],
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ShortestPathDags:
    """Shortest-path DAGs for every destination in ``destinations`` (one build)."""
    vector = as_weight_vector(network, weights)
    validate_weights(vector)
    destinations = list(destinations)
    distances, mask = shortest_path_mask(network, destinations, vector, tolerance)
    return ShortestPathDags(network, destinations, distances, mask, tolerance)


def shortest_path_length(
    network: Network,
    source: Node,
    destination: Node,
    weights: WeightsLike,
) -> float:
    """Length of the shortest path from ``source`` to ``destination``."""
    distances = distances_to(network, destination, weights)
    if source not in distances:
        raise UnreachableError(f"{source!r} cannot reach {destination!r}")
    return distances[source]


def shortest_paths(
    network: Network,
    source: Node,
    destination: Node,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
    limit: int | None = None,
) -> list[list[Node]]:
    """All equal-cost shortest paths between one source-destination pair."""
    dag = shortest_path_dag(network, destination, weights, tolerance)
    return dag.paths_from(source, limit=limit)


def path_cost(network: Network, path: Sequence[Node], weights: WeightsLike) -> float:
    """Total weight of ``path`` (a node list) under ``weights``."""
    vector = as_weight_vector(network, weights)
    return float(
        sum(vector[network.link_index(u, v)] for u, v in zip(path[:-1], path[1:], strict=True))
    )
