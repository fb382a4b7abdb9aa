"""Synthetic topology generators: GT-ITM-style 2-level hierarchies and random graphs.

The paper evaluates on the same synthetic families as Fortz and Thorup [16]:

* **2-level hierarchical networks** generated with GT-ITM: a backbone of
  "transit" nodes connected by long-distance links of capacity 5, each
  attached to a local cluster of "stub" nodes connected by local-access links
  of capacity 1 (Hier50a with 222 directional links, Hier50b with 152).

* **Random networks** where each node pair is connected with a constant
  probability and every link has capacity 1 (Rand50a/242, Rand50b/230,
  Rand100/392 directional links).

GT-ITM itself is not redistributable here, so :func:`hierarchical_network`
implements the same construction with a seeded RNG; the generators accept a
target number of directional links and keep adding (or trimming) random
candidate edges until the target is met, so the paper's exact link counts are
reproduced.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..network.graph import Network

#: Capacities used by the Fortz-Thorup synthetic families.
LOCAL_ACCESS_CAPACITY = 1.0
LONG_DISTANCE_CAPACITY = 5.0
RANDOM_LINK_CAPACITY = 1.0


def _spanning_edges(nodes: list[int], rng: np.random.Generator) -> list[tuple[int, int]]:
    """A random spanning tree over ``nodes`` (guarantees connectivity)."""
    edges: list[tuple[int, int]] = []
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        j = int(rng.integers(0, i))
        edges.append((shuffled[j], shuffled[i]))
    return edges


def _fill_to_target(
    existing: list[tuple[int, int]],
    candidates: list[tuple[int, int]],
    target_edges: int,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Add random candidate edges until ``target_edges`` bidirectional edges exist."""
    chosen = list(existing)
    chosen_set = {frozenset(e) for e in chosen}
    pool = [e for e in candidates if frozenset(e) not in chosen_set]
    rng.shuffle(pool)
    for edge in pool:
        if len(chosen) >= target_edges:
            break
        chosen.append(edge)
        chosen_set.add(frozenset(edge))
    return chosen


def random_network(
    num_nodes: int,
    num_directed_links: int,
    capacity: float = RANDOM_LINK_CAPACITY,
    seed: int = 0,
    name: str | None = None,
) -> Network:
    """A connected random topology with exactly ``num_directed_links`` links.

    Every link is bidirectional (so ``num_directed_links`` must be even) and
    has the same capacity, matching the Fortz-Thorup random family.
    """
    if num_directed_links % 2 != 0:
        raise ValueError("num_directed_links must be even (links are bidirectional)")
    target_edges = num_directed_links // 2
    max_edges = num_nodes * (num_nodes - 1) // 2
    if target_edges < num_nodes - 1 or target_edges > max_edges:
        raise ValueError(
            f"cannot build a connected graph on {num_nodes} nodes with {target_edges} edges"
        )
    rng = np.random.default_rng(seed)
    nodes = list(range(1, num_nodes + 1))
    edges = _spanning_edges(nodes, rng)
    candidates = [(u, v) for u, v in itertools.combinations(nodes, 2)]
    edges = _fill_to_target(edges, candidates, target_edges, rng)
    net = Network(name=name or f"Rand{num_nodes}")
    for node in nodes:
        net.add_node(node)
    for u, v in edges:
        net.add_duplex_link(u, v, capacity)
    return net


def hierarchical_network(
    num_nodes: int = 50,
    num_directed_links: int = 222,
    num_transit: int = 10,
    local_capacity: float = LOCAL_ACCESS_CAPACITY,
    long_capacity: float = LONG_DISTANCE_CAPACITY,
    seed: int = 0,
    name: str | None = None,
) -> Network:
    """A GT-ITM style 2-level hierarchy (transit backbone + stub clusters).

    Parameters
    ----------
    num_transit:
        Number of backbone (transit) nodes; the remaining nodes are stubs
        assigned round-robin to transit domains.
    num_directed_links:
        Total number of directional links to generate (e.g. 222 for Hier50a,
        152 for Hier50b).
    """
    if num_directed_links % 2 != 0:
        raise ValueError("num_directed_links must be even (links are bidirectional)")
    if num_transit >= num_nodes:
        raise ValueError("num_transit must be smaller than num_nodes")
    target_edges = num_directed_links // 2
    rng = np.random.default_rng(seed)
    transit = list(range(1, num_transit + 1))
    stubs = list(range(num_transit + 1, num_nodes + 1))

    # Backbone: spanning tree over transit nodes plus random extra long links.
    backbone_edges = _spanning_edges(transit, rng)
    backbone_candidates = [(u, v) for u, v in itertools.combinations(transit, 2)]
    backbone_target = min(len(backbone_candidates), max(len(backbone_edges), num_transit * 2))
    backbone_edges = _fill_to_target(backbone_edges, backbone_candidates, backbone_target, rng)
    backbone_set = {frozenset(e) for e in backbone_edges}

    # Stub attachment: each stub connects to its transit domain head, then to
    # random peers inside the same domain.
    domain_of = {stub: transit[i % num_transit] for i, stub in enumerate(stubs)}
    access_edges: list[tuple[int, int]] = [(domain_of[stub], stub) for stub in stubs]
    access_candidates: list[tuple[int, int]] = []
    for stub in stubs:
        head = domain_of[stub]
        peers = [s for s in stubs if domain_of[s] == head and s != stub]
        access_candidates.extend((stub, peer) for peer in peers if stub < peer)
        access_candidates.extend(
            (other_head, stub) for other_head in transit if other_head != head
        )
    edges = backbone_edges + access_edges
    if len(edges) > target_edges:
        raise ValueError(
            f"target of {target_edges} edges is below the {len(edges)} needed for connectivity"
        )
    edges = _fill_to_target(edges, access_candidates, target_edges, rng)

    net = Network(name=name or f"Hier{num_nodes}")
    for node in transit + stubs:
        net.add_node(node)
    for u, v in edges:
        is_backbone = frozenset((u, v)) in backbone_set or (u in transit and v in transit)
        capacity = long_capacity if is_backbone else local_capacity
        net.add_duplex_link(u, v, capacity)
    return net


# ----------------------------------------------------------------------
# The named instances from Table III
# ----------------------------------------------------------------------
def hier50a(seed: int = 11) -> Network:
    """Hier50a: 50 nodes, 222 directional links (2-level hierarchy)."""
    return hierarchical_network(50, 222, num_transit=10, seed=seed, name="Hier50a")


def hier50b(seed: int = 12) -> Network:
    """Hier50b: 50 nodes, 152 directional links (2-level hierarchy)."""
    return hierarchical_network(50, 152, num_transit=10, seed=seed, name="Hier50b")


def rand50a(seed: int = 21) -> Network:
    """Rand50a: 50 nodes, 242 directional links, unit capacities."""
    return random_network(50, 242, seed=seed, name="Rand50a")


def rand50b(seed: int = 22) -> Network:
    """Rand50b: 50 nodes, 230 directional links, unit capacities."""
    return random_network(50, 230, seed=seed, name="Rand50b")


def rand100(seed: int = 23) -> Network:
    """Rand100: 100 nodes, 392 directional links, unit capacities."""
    return random_network(100, 392, seed=seed, name="Rand100")


def rand500(seed: int = 25) -> Network:
    """Rand500: 500 nodes, 2000 directional links, unit capacities.

    The Rocketfuel-scale stress instance: the online controller's
    dirty-row sweep is benchmarked on it at 500-node scale.
    """
    return random_network(500, 2000, seed=seed, name="Rand500")
