"""SPEF forwarding tables (Table II of the paper).

A SPEF router stores, for every destination ``t`` and every equal-cost next
hop ``v_k``, the lengths (under the *second* link weights) of the equal-cost
shortest paths that go through that next hop.  From those lengths it computes
the exponential split ratio of Eq. (22) locally, without any knowledge of the
rest of the network beyond the two weights per link -- this is what makes SPEF
deployable on an OSPF-like control plane.

:class:`ForwardingTable` materialises this structure.  For compactness the
split ratios are computed exactly with the DAG dynamic program of Eq. (22)
on the routing kernel (:meth:`repro.routing.CompiledDag.exponential_ratios`),
one stacked pass over all destinations.  The explicit per-path lengths (the
literal content of Table II) are enumerated by :func:`build_forwarding_tables`
for every (router, destination, next hop) entry on every build, but only up
to a configurable cap per entry, since their number can grow exponentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

import numpy as np

from ..network.graph import Network, Node
from ..network.spt import ShortestPathDag, ShortestPathDags
from ..routing import CompiledDag


@dataclass(frozen=True)
class ForwardingEntry:
    """One row of Table II: a next hop with its equal-cost path lengths."""

    next_hop: Node
    #: Second-weight lengths of the equal-cost paths through this next hop
    #: (possibly truncated, see ``ForwardingTable.max_paths_per_entry``).
    path_lengths: tuple[float, ...]
    #: Fraction of the node's traffic towards the destination sent to this hop.
    split_ratio: float

    @property
    def num_paths(self) -> int:
        return len(self.path_lengths)


@dataclass
class ForwardingTable:
    """The SPEF forwarding state of a single router (one node).

    Maps each destination to the list of :class:`ForwardingEntry` rows for the
    router's equal-cost next hops.
    """

    node: Node
    entries: dict[Node, list[ForwardingEntry]] = field(default_factory=dict)

    def destinations(self) -> list[Node]:
        return list(self.entries)

    def next_hops(self, destination: Node) -> list[Node]:
        return [entry.next_hop for entry in self.entries.get(destination, [])]

    def split_ratio(self, destination: Node, next_hop: Node) -> float:
        for entry in self.entries.get(destination, []):
            if entry.next_hop == next_hop:
                return entry.split_ratio
        return 0.0

    def split_ratios(self, destination: Node) -> dict[Node, float]:
        return {
            entry.next_hop: entry.split_ratio
            for entry in self.entries.get(destination, [])
        }

    def num_equal_cost_paths(self, destination: Node) -> int:
        """Total number of equal-cost paths this router sees towards ``destination``."""
        return sum(entry.num_paths for entry in self.entries.get(destination, []))

    def as_rows(self, destination: Node) -> list[tuple[Node, tuple[float, ...]]]:
        """The literal Table II rows: (next hop, tuple of path lengths)."""
        return [
            (entry.next_hop, entry.path_lengths)
            for entry in self.entries.get(destination, [])
        ]


def _paths_through_hop(
    dag: ShortestPathDag,
    node: Node,
    hop: Node,
    limit: int,
) -> list[list[Node]]:
    """Equal-cost paths from ``node`` whose first hop is ``hop`` (capped)."""
    suffixes = dag.paths_from(hop, limit=limit)
    return [[node] + suffix for suffix in suffixes]


def build_forwarding_tables(
    network: Network,
    dags: ShortestPathDags,
    second_weights: np.ndarray,
    max_paths_per_entry: int = 32,
) -> dict[Node, ForwardingTable]:
    """Build the SPEF forwarding table of every router.

    Parameters
    ----------
    dags:
        Equal-cost shortest-path DAGs per destination (from the first weights).
    second_weights:
        Link-indexed second weight vector ``v``.
    max_paths_per_entry:
        Cap on how many per-path lengths are materialised per (destination,
        next hop) row.  Split ratios are always exact (computed by the DAG
        dynamic program), only the explicit length listing is truncated.
    """
    second = np.asarray(second_weights, dtype=float)
    tables: dict[Node, ForwardingTable] = {
        node: ForwardingTable(node=node) for node in network.nodes
    }
    # Eq. (22) for every destination in one stacked pass, indexed by
    # (destination row, link): each DAG edge is one such pair.
    member = np.isfinite(dags.distances)
    stack = CompiledDag.from_mask(network, dags.destinations, member, dags.mask)
    ratios = np.zeros(dags.mask.shape)
    ratios[stack.rows // network.num_nodes, stack.links] = stack.exponential_ratios(second)
    for row, (destination, dag) in enumerate(dags.items()):
        for node in dag.distances:
            if node == destination:
                continue
            hops = dag.next_hops_of(node)
            if not hops:
                continue
            entries: list[ForwardingEntry] = []
            for hop in hops:
                lengths = []
                for path in _paths_through_hop(dag, node, hop, max_paths_per_entry):
                    length = sum(
                        second[network.link_index(u, v)]
                        for u, v in zip(path[:-1], path[1:], strict=True)
                    )
                    lengths.append(float(length))
                entries.append(
                    ForwardingEntry(
                        next_hop=hop,
                        path_lengths=tuple(lengths),
                        split_ratio=float(ratios[row, network.link_index(node, hop)]),
                    )
                )
            tables[node].entries[destination] = entries
    return tables


def split_ratios_from_tables(
    tables: Mapping[Node, ForwardingTable],
) -> dict[Node, dict[Node, dict[Node, float]]]:
    """Re-index forwarding tables as ``destination -> node -> hop -> ratio``.

    This is the format :func:`repro.solvers.assignment.split_ratio_assignment`
    consumes, and it is also what the flow-level simulator installs on its
    routers.
    """
    ratios: dict[Node, dict[Node, dict[Node, float]]] = {}
    for node, table in tables.items():
        for destination in table.destinations():
            ratios.setdefault(destination, {})[node] = table.split_ratios(destination)
    return ratios
