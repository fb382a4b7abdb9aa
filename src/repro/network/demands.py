"""Traffic demands (the multi-commodity part of the TE problem).

The paper describes demands as source-destination pairs ``(s_r, t_r)`` with
intensity ``d_r`` and then aggregates them per destination: the flow towards a
destination ``t`` is one commodity.  :class:`TrafficMatrix` stores the pairwise
demands and exposes the per-destination aggregation used by every solver.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .graph import Network, Node

Pair = tuple[Node, Node]


class DemandError(ValueError):
    """Raised for malformed demands (self demands, negative volumes, ...)."""


@dataclass(frozen=True)
class Demand:
    """A single source-destination demand ``d_r`` for pair ``(s_r, t_r)``."""

    source: Node
    target: Node
    volume: float

    @property
    def pair(self) -> Pair:
        return (self.source, self.target)


class TrafficMatrix:
    """A set of source-destination demands.

    The matrix behaves like a mapping from ``(source, target)`` pairs to
    demand volumes.  Adding a demand for an existing pair accumulates the
    volume, which mirrors how prefix-level demands aggregate in practice.

    Examples
    --------
    >>> tm = TrafficMatrix()
    >>> tm.add(1, 3, 1.0)
    >>> tm.add(3, 4, 0.9)
    >>> tm.total_volume()
    1.9
    """

    def __init__(self, demands: Mapping[Pair, float] | None = None) -> None:
        self._demands: dict[Pair, float] = {}
        self._layout: tuple[list[Node], np.ndarray, np.ndarray, np.ndarray] | None = None
        if demands:
            for (source, target), volume in demands.items():
                self.add(source, target, volume)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, source: Node, target: Node, volume: float) -> None:
        """Add ``volume`` units of demand from ``source`` to ``target``."""
        if source == target:
            raise DemandError(f"demand from {source} to itself is not allowed")
        if volume < 0:
            raise DemandError(f"demand volume must be non-negative, got {volume}")
        if volume == 0:
            return
        self._demands[(source, target)] = self._demands.get((source, target), 0.0) + float(volume)
        self._layout = None

    @classmethod
    def from_demands(cls, demands: Iterable[Demand]) -> TrafficMatrix:
        tm = cls()
        for demand in demands:
            tm.add(demand.source, demand.target, demand.volume)
        return tm

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[Node, Node, float]]) -> TrafficMatrix:
        tm = cls()
        for source, target, volume in triples:
            tm.add(source, target, volume)
        return tm

    # ------------------------------------------------------------------
    # mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, pair: Pair) -> float:
        return self._demands.get(pair, 0.0)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._demands

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._demands)

    def __len__(self) -> int:
        return len(self._demands)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return self._demands == other._demands

    def items(self) -> Iterator[tuple[Pair, float]]:
        return iter(self._demands.items())

    def pairs(self) -> list[Pair]:
        """Source-destination pairs with positive demand."""
        return list(self._demands)

    def demands(self) -> list[Demand]:
        """The demands as :class:`Demand` objects."""
        return [Demand(s, t, v) for (s, t), v in self._demands.items()]

    def get(self, pair: Pair, default: float = 0.0) -> float:
        return self._demands.get(pair, default)

    # ------------------------------------------------------------------
    # aggregations
    # ------------------------------------------------------------------
    def destinations(self) -> list[Node]:
        """The destination set ``D`` (nodes that terminate some demand)."""
        return list(dict.fromkeys(map(itemgetter(1), self._demands)))

    def sources(self) -> list[Node]:
        """Nodes that originate some demand."""
        seen: dict[Node, None] = {}
        for (source, _) in self._demands:
            seen.setdefault(source, None)
        return list(seen)

    def by_destination(self) -> dict[Node, dict[Node, float]]:
        """Per-destination demand vectors ``d^t_s`` used by the commodities."""
        result: dict[Node, dict[Node, float]] = {}
        for (source, target), volume in self._demands.items():
            result.setdefault(target, {})[source] = volume
        return result

    def toward(self, destination: Node) -> dict[Node, float]:
        """Demand entering the network at each source and destined to ``destination``."""
        return {
            source: volume
            for (source, target), volume in self._demands.items()
            if target == destination
        }

    def total_volume(self) -> float:
        """Aggregate demand (numerator of the paper's *network load*)."""
        return float(sum(self._demands.values()))

    def network_load(self, network: Network) -> float:
        """Ratio of total demand over total capacity, as used in Fig. 9/10."""
        total_capacity = network.total_capacity()
        if total_capacity <= 0:
            raise DemandError("network has no capacity")
        return self.total_volume() / total_capacity

    def outgoing_volume(self, node: Node) -> float:
        """Total demand originating at ``node``."""
        return float(
            sum(v for (s, _), v in self._demands.items() if s == node)
        )

    def incoming_volume(self, node: Node) -> float:
        """Total demand destined to ``node``."""
        return float(
            sum(v for (_, t), v in self._demands.items() if t == node)
        )

    def matrix(self, network: Network) -> np.ndarray:
        """Dense ``N x N`` demand matrix indexed by the network's node order."""
        sources, targets, volumes = self.layout(network)
        dense = np.zeros((network.num_nodes,) * 2)
        dense[sources, targets] = volumes
        return dense

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> TrafficMatrix:
        """A copy of the matrix with every demand multiplied by ``factor``."""
        if factor < 0:
            raise DemandError("demand scale factor must be non-negative")
        return TrafficMatrix({pair: volume * factor for pair, volume in self._demands.items()})

    def restricted_to(self, nodes: Iterable[Node]) -> TrafficMatrix:
        """Only the demands whose both endpoints are in ``nodes``."""
        keep = set(nodes)
        return TrafficMatrix(
            {
                pair: volume
                for pair, volume in self._demands.items()
                if pair[0] in keep and pair[1] in keep
            }
        )

    def validate(self, network: Network) -> None:
        """Check that every demand endpoint exists in ``network``.

        Raises
        ------
        DemandError
            If some endpoint is not a node of the network.
        """
        self.layout(network)

    def layout(self, network: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs as ``(source index, target index, volume)`` arrays, in pair order.

        Computed once and kept until the next :meth:`add` or a network with
        another node list; callers must not modify them.  Raises
        :class:`DemandError` for the first unknown endpoint, as :meth:`validate`.
        """
        nodes = network.nodes
        cached = self._layout
        if cached is None or cached[0] != nodes:
            index = {node: i for i, node in enumerate(nodes)}
            ends = itertools.chain.from_iterable(self._demands)
            flat = np.array(list(map(index.get, ends, itertools.repeat(-1))), dtype=np.int64)
            unknown = np.flatnonzero(flat < 0)
            if unknown.size:
                pair, end = divmod(int(unknown[0]), 2)
                role, node = ("source", "target")[end], list(self._demands)[pair][end]
                raise DemandError(f"demand {role} {node!r} is not in the network")
            sources, targets = flat.reshape(-1, 2).T.copy()
            volumes = np.fromiter(self._demands.values(), dtype=float, count=len(self._demands))
            # One tuple assignment: a concurrent reader sees the old or the new layout.
            cached = self._layout = (nodes, sources, targets, volumes)
        return cached[1:]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrafficMatrix(pairs={len(self)}, volume={self.total_volume():.3f})"
