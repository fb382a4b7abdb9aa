"""Dict-loop reference implementations of the routing kernel's entry points.

These are the original per-destination Python loops the library's routing
used before everything moved onto the stacked kernel in
:mod:`repro.routing`.  They stay here, outside ``src/``, as the oracle the
equivalence suite (``tests/test_routing_equivalence.py``) and the routing
speed benchmark (``benchmarks/test_routing_speed.py``) compare the kernel
against.  Flow is pushed over each destination DAG in topological order, so
a node's whole incoming flow (local demand plus transit) is known before it
is split.

The DAGs themselves come from :func:`shortest_path_dag` below: a heapq
Dijkstra and a node-by-node walk of the library's DAG rule, written
independently of the vectorised builder in ``repro.network.spt``, and are
walked in :func:`topological_order`.  The exponential split of Eq. (22) and
the Table V path counts are their own DAG dynamic programs below
(:func:`path_weight_sums`, :func:`exponential_split_ratios`,
:func:`count_paths`), so the oracle shares nothing with the kernel but the
data types and the degenerate-split log message.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping

import numpy as np

from repro.network.demands import TrafficMatrix
from repro.network.flows import FlowAssignment
from repro.network.graph import Network, NetworkError, Node
from repro.network.spt import (
    DEFAULT_TOLERANCE,
    ShortestPathDag,
    UnreachableError,
    WeightsLike,
    as_weight_vector,
    validate_weights,
)
from repro.routing.compiled import warn_degenerate_split


# ----------------------------------------------------------------------
# shortest-path DAGs
# ----------------------------------------------------------------------
def distances_to(network: Network, destination: Node, weights: WeightsLike) -> dict[Node, float]:
    """Heapq Dijkstra towards ``destination`` with strict relaxations."""
    vector = as_weight_vector(network, weights)
    validate_weights(vector)
    dist: dict[Node, float] = {destination: 0.0}
    heap: list[tuple[float, int, Node]] = [(0.0, 0, destination)]
    pushes = itertools.count(1)
    settled: set[Node] = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for link in network.in_links(node):
            candidate = d + float(vector[link.index])
            if candidate < dist.get(link.source, np.inf):
                dist[link.source] = candidate
                heapq.heappush(heap, (candidate, next(pushes), link.source))
    return dist


def shortest_path_dag(
    network: Network,
    destination: Node,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ShortestPathDag:
    """The DAG rule, one node at a time.

    A link ``u -> v`` is tight when ``w + d(v) <= d(u) + tolerance``.  Tight
    links whose head is more than 1e-15 closer (downhill) always join.  A
    node without one is on a zero-weight plateau: its tight links to heads
    no farther away (flat links) join when the head is one flat hop closer
    to an exit -- a node with a downhill link, or the destination.
    """
    vector = as_weight_vector(network, weights)
    dist = distances_to(network, destination, vector)
    downhill: dict[Node, list[Node]] = {}
    flat: dict[Node, list[Node]] = {}
    for node, d_node in dist.items():
        if node == destination:
            continue
        downhill[node], flat[node] = [], []
        for link in network.out_links(node):
            d_hop = dist.get(link.target)
            if d_hop is None or vector[link.index] + d_hop > d_node + tolerance:
                continue
            if d_hop < d_node - 1e-15:
                downhill[node].append(link.target)
            elif d_hop <= d_node:
                flat[node].append(link.target)
    level = {node: 0 for node, hops in downhill.items() if hops}
    level[destination] = 0
    depth = 0
    while True:
        grown = [
            node
            for node, hops in flat.items()
            if node not in level and any(level.get(hop) == depth for hop in hops)
        ]
        if not grown:
            break
        depth += 1
        level.update(dict.fromkeys(grown, depth))
    next_hops = {
        node: hops
        or [hop for hop in flat[node] if node in level and level.get(hop, depth + 1) < level[node]]
        for node, hops in downhill.items()
    }
    return ShortestPathDag(destination, dist, next_hops, tolerance)


def topological_order(dag: ShortestPathDag) -> list[Node]:
    """Nodes in an order where every node precedes all of its next hops.

    A sort by decreasing distance is not enough: on zero-weight plateaus
    several nodes share a distance, whereas a topological order of the DAG
    is always a valid processing order.  The destination comes last.
    """
    # Kahn's algorithm over the next-hop edges (u -> hop).
    in_degree: dict[Node, int] = {node: 0 for node in dag.distances}
    for hops in dag.next_hops.values():
        for hop in hops:
            if hop in in_degree:
                in_degree[hop] += 1
    # Start from nodes nobody forwards through, farthest first for determinism.
    queue = sorted(
        (node for node, degree in in_degree.items() if degree == 0),
        key=lambda n: dag.distances[n],
        reverse=True,
    )
    order: list[Node] = []
    while queue:
        node = queue.pop(0)
        order.append(node)
        for hop in dag.next_hops.get(node, []):
            if hop not in in_degree:
                continue
            in_degree[hop] -= 1
            if in_degree[hop] == 0:
                queue.append(hop)
    if len(order) != len(dag.distances):
        raise NetworkError(
            f"shortest-path structure towards {dag.destination!r} contains a cycle"
        )
    return order


def count_paths(dag: ShortestPathDag) -> dict[Node, int]:
    """Number of equal-cost shortest paths from each node to the destination."""
    counts: dict[Node, int] = {dag.destination: 1}
    for node in reversed(topological_order(dag)):
        if node == dag.destination:
            continue
        counts[node] = sum(counts.get(hop, 0) for hop in dag.next_hops.get(node, []))
    return counts


def _propagate_over_dag(
    network: Network,
    dag: ShortestPathDag,
    entering: Mapping[Node, float],
    split_ratios: Mapping[Node, Mapping[Node, float]] | None,
    flows: FlowAssignment,
) -> None:
    """Push per-destination demand over ``dag`` using ``split_ratios``.

    ``entering[s]`` is the demand entering at node ``s`` destined to the DAG's
    destination.  ``split_ratios[s][v]`` is the fraction of that node's total
    traffic forwarded to next hop ``v``; when ``split_ratios`` is ``None``
    the traffic is split evenly across all next hops.
    """
    destination = dag.destination
    vector = flows.ensure_destination(destination)
    transit: dict[Node, float] = {}
    for node in topological_order(dag):
        if node == destination:
            continue
        load = entering.get(node, 0.0) + transit.get(node, 0.0)
        if load <= 0:
            continue
        hops = dag.next_hops_of(node)
        if not hops:
            raise UnreachableError(
                f"node {node!r} has traffic for {destination!r} but no next hop"
            )
        if split_ratios is None:
            ratios = {hop: 1.0 / len(hops) for hop in hops}
        else:
            ratios = dict(split_ratios.get(node, {}))
            total = sum(ratios.get(hop, 0.0) for hop in hops)
            if total <= 0:
                if ratios:
                    warn_degenerate_split(node, destination, total, len(hops))
                ratios = {hop: 1.0 / len(hops) for hop in hops}
            else:
                ratios = {hop: ratios.get(hop, 0.0) / total for hop in hops}
        for hop in hops:
            share = load * ratios.get(hop, 0.0)
            if share <= 0:
                continue
            vector[network.link_index(node, hop)] += share
            transit[hop] = transit.get(hop, 0.0) + share


def ecmp_assignment(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
    dags: dict[Node, ShortestPathDag] | None = None,
) -> FlowAssignment:
    """Even splitting over equal-cost shortest paths."""
    demands.validate(network)
    flows = FlowAssignment(network=network)
    for destination, entering in demands.by_destination().items():
        dag = (
            dags[destination]
            if dags is not None and destination in dags
            else shortest_path_dag(network, destination, weights, tolerance)
        )
        for source in entering:
            if not dag.reachable(source):
                raise UnreachableError(
                    f"demand source {source!r} cannot reach {destination!r}"
                )
        _propagate_over_dag(network, dag, entering, None, flows)
    return flows


def all_or_nothing_assignment(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FlowAssignment:
    """Every demand along the DAG's first next hop at each node."""
    demands.validate(network)
    flows = FlowAssignment(network=network)
    for destination, entering in demands.by_destination().items():
        dag = shortest_path_dag(network, destination, weights, tolerance)
        single_hop: dict[Node, dict[Node, float]] = {}
        for node in dag.next_hops:
            hops = dag.next_hops_of(node)
            if hops:
                single_hop[node] = {hops[0]: 1.0}
        for source in entering:
            if not dag.reachable(source):
                raise UnreachableError(
                    f"demand source {source!r} cannot reach {destination!r}"
                )
        _propagate_over_dag(network, dag, entering, single_hop, flows)
    return flows


def split_ratio_assignment(
    network: Network,
    demands: TrafficMatrix,
    dags: Mapping[Node, ShortestPathDag],
    split_ratios: Mapping[Node, Mapping[Node, Mapping[Node, float]]],
) -> FlowAssignment:
    """Explicit per-node split ratios over precomputed DAGs."""
    demands.validate(network)
    flows = FlowAssignment(network=network)
    for destination, entering in demands.by_destination().items():
        if destination not in dags:
            raise UnreachableError(f"no shortest-path DAG for destination {destination!r}")
        _propagate_over_dag(
            network, dags[destination], entering, split_ratios.get(destination), flows
        )
    return flows


# ----------------------------------------------------------------------
# Eq. (22): exponential split ratios
# ----------------------------------------------------------------------
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
    for node in reversed(topological_order(dag)):
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


def verify_split_consistency(
    network: Network,
    dags: Mapping[Node, ShortestPathDag],
    second_weights: np.ndarray,
    tables: Mapping,
    tolerance: float = 1e-9,
) -> bool:
    """Check that forwarding-table split ratios match Eq. (22) recomputed here.

    ``tables`` maps each node to its ``repro.core.ForwardingTable``; the
    distributed view (per-router tables) and this centralised recomputation
    must agree.
    """
    second = np.asarray(second_weights, dtype=float)
    for destination, dag in dags.items():
        expected = exponential_split_ratios(network, dag, second)
        for node, hop_ratios in expected.items():
            table = tables.get(node)
            if table is None:
                return False
            actual = table.split_ratios(destination)
            for hop, ratio in hop_ratios.items():
                if abs(actual.get(hop, 0.0) - ratio) > tolerance:
                    return False
    return True


def traffic_distribution(
    network: Network,
    demands: TrafficMatrix,
    dags: Mapping[Node, ShortestPathDag],
    second_weights: np.ndarray,
) -> FlowAssignment:
    """Algorithm 3: exponential split ratios (Eq. 22), then dict propagation."""
    second = np.asarray(second_weights, dtype=float)
    if second.shape != (network.num_links,):
        raise ValueError(
            f"second weights must have length {network.num_links}, got {second.shape}"
        )
    split_ratios = {
        destination: exponential_split_ratios(network, dag, second)
        for destination, dag in dags.items()
    }
    return split_ratio_assignment(network, demands, dags, split_ratios)


# ----------------------------------------------------------------------
# PEFT
# ----------------------------------------------------------------------
def _peft_downward_split(
    network: Network, destination: Node, weights: np.ndarray, temperature: float
) -> dict[Node, dict[Node, float]]:
    """Per-node split ratios over downward neighbours for one destination."""
    distances = distances_to(network, destination, weights)
    z_values: dict[Node, float] = {destination: 1.0}
    order = sorted(distances, key=lambda n: distances[n])
    for node in order:
        if node == destination:
            continue
        total = 0.0
        for link in network.out_links(node):
            neighbour = link.target
            if neighbour not in distances or distances[neighbour] >= distances[node]:
                continue
            extra = weights[link.index] + distances[neighbour] - distances[node]
            total += float(np.exp(-extra / temperature)) * z_values.get(neighbour, 0.0)
        z_values[node] = total
    ratios: dict[Node, dict[Node, float]] = {}
    for node in order:
        if node == destination:
            continue
        shares: dict[Node, float] = {}
        for link in network.out_links(node):
            neighbour = link.target
            if neighbour not in distances or distances[neighbour] >= distances[node]:
                continue
            extra = weights[link.index] + distances[neighbour] - distances[node]
            share = float(np.exp(-extra / temperature)) * z_values.get(neighbour, 0.0)
            if share > 0:
                shares[neighbour] = share
        total = sum(shares.values())
        if total > 0:
            ratios[node] = {hop: share / total for hop, share in shares.items()}
    return ratios


def peft_route(
    network: Network,
    demands: TrafficMatrix,
    weights: np.ndarray,
    temperature: float = 1.0,
) -> FlowAssignment:
    """Downward PEFT with explicit weights, in decreasing-distance order.

    Covers instances where every reachable node has a strictly-downward
    neighbour with a positive share (strictly positive weights without
    underflow), which is where the kernel's corner rules do not apply.
    """
    demands.validate(network)
    flows = FlowAssignment(network=network)
    for destination, entering in demands.by_destination().items():
        ratios = _peft_downward_split(network, destination, weights, temperature)
        distances = distances_to(network, destination, weights)
        vector = flows.ensure_destination(destination)
        transit: dict[Node, float] = {}
        for node in sorted(distances, key=lambda n: distances[n], reverse=True):
            if node == destination:
                continue
            load = entering.get(node, 0.0) + transit.get(node, 0.0)
            if load <= 0:
                continue
            node_ratios = ratios.get(node)
            if not node_ratios:
                raise RuntimeError(
                    f"PEFT has no downward next hop at {node!r} for {destination!r}"
                )
            for hop, ratio in node_ratios.items():
                share = load * ratio
                if share <= 0:
                    continue
                vector[network.link_index(node, hop)] += share
                transit[hop] = transit.get(hop, 0.0) + share
    return flows
