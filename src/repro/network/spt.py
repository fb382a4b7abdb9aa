"""Shortest-path machinery: Dijkstra with tolerance and ECMP DAGs.

OSPF (and SPEF) forwards traffic hop-by-hop along shortest paths towards each
destination.  Two details from the paper matter here:

* ties are resolved *within a tolerance* (Section V-G uses tolerance 0.3 for
  fractional weights and 1 for integer weights), so "equal cost" really means
  "equal within the tolerance";
* the set of shortest paths towards a destination forms a DAG, and routers
  only need the *next hops* on that DAG (the set ``ON_t`` of the paper).

All functions take link weights as an ``{(u, v): w}`` mapping or a
link-indexed vector and work on the :class:`~repro.network.graph.Network`
model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

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
    if np.any(~np.isfinite(vector)):
        raise NetworkError("link weights must be finite")
    if np.any(vector < 0):
        raise NetworkError("link weights must be non-negative")


# ----------------------------------------------------------------------
# Dijkstra towards a destination (reverse shortest path tree)
# ----------------------------------------------------------------------
def distances_to(
    network: Network,
    destination: Node,
    weights: WeightsLike,
) -> dict[Node, float]:
    """Shortest distance from every node *to* ``destination``.

    This is Dijkstra run on the reverse graph, which is the natural
    orientation for destination-based hop-by-hop forwarding.
    Unreachable nodes are absent from the returned mapping.
    """
    distances, _ = _dijkstra_to(network, destination, as_weight_vector(network, weights))
    return distances


def _dijkstra_to(
    network: Network,
    destination: Node,
    vector: np.ndarray,
) -> tuple[dict[Node, float], dict[Node, Node]]:
    """Dijkstra towards ``destination`` returning distances and tree next hops.

    The returned ``parents`` map gives, for every reachable node except the
    destination, the next hop on one shortest path (the Dijkstra tree edge).
    The tree is what keeps equal-cost DAGs acyclic on zero-weight plateaus,
    where cost comparisons alone cannot orient the ties.
    """
    validate_weights(vector)
    dist: dict[Node, float] = {destination: 0.0}
    parents: dict[Node, Node] = {}
    heap: list[tuple[float, int, Node]] = [(0.0, 0, destination)]
    counter = 1
    visited: dict[Node, bool] = {}
    while heap:
        d, _, node = heapq.heappop(heap)
        if visited.get(node):
            continue
        visited[node] = True
        for link in network.in_links(node):
            candidate = d + vector[link.index]
            previous = dist.get(link.source)
            if previous is None or candidate < previous - 1e-15:
                dist[link.source] = candidate
                parents[link.source] = node
                heapq.heappush(heap, (candidate, counter, link.source))
                counter += 1
    return dist, parents


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
    hop_links:
        Link index of every next hop, flattened in ``next_hops`` order
        (filled by :func:`shortest_path_dag`, so compiling the DAG needs no
        link lookups).  It is only used while its length matches the total
        next-hop count, so hops appended later (SPEF's DAG augmentation)
        make the compiler look every link up; code that *replaces* next
        hops in place must clear it.
    """

    destination: Node
    distances: dict[Node, float]
    next_hops: dict[Node, list[Node]]
    tolerance: float = DEFAULT_TOLERANCE
    hop_links: list[int] = field(default_factory=list)

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

    def nodes_by_decreasing_distance(self) -> list[Node]:
        """Nodes sorted by decreasing distance to the destination.

        Algorithm 3 of the paper propagates traffic in exactly this order so
        that every node's incoming flow is known before it splits it.
        """
        return sorted(self.distances, key=lambda n: self.distances[n], reverse=True)

    def topological_order(self) -> list[Node]:
        """Nodes in an order where every node precedes all of its next hops.

        This refines :meth:`nodes_by_decreasing_distance`: on zero-weight
        plateaus several nodes share a distance and the distance sort is not
        a valid processing order, whereas a topological order of the DAG
        always is.  The destination comes last.
        """
        # Kahn's algorithm over the next-hop edges (u -> hop).
        in_degree: dict[Node, int] = {node: 0 for node in self.distances}
        for hops in self.next_hops.values():
            for hop in hops:
                if hop in in_degree:
                    in_degree[hop] += 1
        # Start from nodes nobody forwards through, farthest first for
        # determinism.
        ready = sorted(
            (node for node, degree in in_degree.items() if degree == 0),
            key=lambda n: self.distances[n],
            reverse=True,
        )
        order: list[Node] = []
        queue = list(ready)
        while queue:
            node = queue.pop(0)
            order.append(node)
            for hop in self.next_hops.get(node, []):
                if hop not in in_degree:
                    continue
                in_degree[hop] -= 1
                if in_degree[hop] == 0:
                    queue.append(hop)
        if len(order) != len(self.distances):
            raise NetworkError(
                f"shortest-path structure towards {self.destination!r} contains a cycle"
            )
        return order

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

    def count_paths(self) -> dict[Node, int]:
        """Number of equal-cost shortest paths from each node to the destination.

        Computed by dynamic programming over the DAG, so it stays cheap even
        when explicit enumeration would blow up.
        """
        counts: dict[Node, int] = {self.destination: 1}
        for node in reversed(self.topological_order()):
            if node == self.destination:
                continue
            counts[node] = sum(counts.get(hop, 0) for hop in self.next_hops.get(node, []))
        return counts


def shortest_path_dag(
    network: Network,
    destination: Node,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ShortestPathDag:
    """Build the equal-cost shortest-path DAG towards ``destination``.

    A link ``(u, v)`` is part of the DAG when
    ``w_uv + dist(v) <= dist(u) + tolerance`` (going through ``v`` is a
    shortest path from ``u`` within the tolerance) *and* ``v`` is strictly
    closer to the destination.  On zero-weight plateaus -- where several nodes
    share the same distance and cost comparisons cannot orient the tie -- the
    Dijkstra tree edge of each node is added instead, which keeps the
    structure acyclic while guaranteeing every reachable node has a next hop.
    """
    vector = as_weight_vector(network, weights)
    distances, parents = _dijkstra_to(network, destination, vector)  # validates
    next_hops: dict[Node, list[Node]] = {}
    hop_links: list[int] = []
    for node, dist_node in distances.items():
        if node == destination:
            continue
        hops: list[Node] = []
        for link in network.out_links(node):
            dist_hop = distances.get(link.target)
            if dist_hop is None:
                continue
            on_shortest = vector[link.index] + dist_hop <= dist_node + tolerance
            if on_shortest and dist_hop < dist_node - 1e-15:
                hops.append(link.target)
                hop_links.append(link.index)
        parent = parents.get(node)
        # The tree edge is always on a shortest path; it is only missing
        # from `hops` when it lies on an equal-distance plateau.
        if (
            parent is not None
            and parent not in hops
            and distances.get(parent, float("inf")) >= dist_node - 1e-15
        ):
            hops.append(parent)
            hop_links.append(network.link_index(node, parent))
        next_hops[node] = hops
    return ShortestPathDag(
        destination=destination,
        distances=distances,
        next_hops=next_hops,
        tolerance=tolerance,
        hop_links=hop_links,
    )


def all_shortest_path_dags(
    network: Network,
    destinations: Sequence[Node],
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[Node, ShortestPathDag]:
    """Shortest-path DAGs for every destination in ``destinations``."""
    vector = as_weight_vector(network, weights)
    return {
        destination: shortest_path_dag(network, destination, vector, tolerance)
        for destination in destinations
    }


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
