"""Directed capacitated network model.

The paper models the network as a directed graph ``G = (N, J)`` where every
edge ``(i, j)`` has a capacity ``c_ij``.  :class:`Network` is the central data
structure of the library: every solver, protocol and metric operates on it.

Links are indexed both by their endpoints ``(u, v)`` and by a dense integer
index (the order in which they were added), which makes it cheap to convert
between dictionary-style and vector-style (numpy) representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

Node = Hashable
Edge = tuple[Node, Node]


class NetworkError(ValueError):
    """Raised for malformed networks (missing nodes, duplicate links, ...)."""


@dataclass(frozen=True)
class Link:
    """A directed link of the network.

    Attributes
    ----------
    source, target:
        Endpoint node identifiers.
    capacity:
        Maximum traffic the link can carry (same unit as the demands).
    delay:
        Processing plus propagation delay, used by the ``(d, 0)`` objective
        (Example 3 of the paper).  Defaults to 1.0 so that ``(d, 0)`` reduces
        to minimum-hop routing when delays are left unspecified.
    index:
        Dense integer index of the link inside its :class:`Network`.
    """

    source: Node
    target: Node
    capacity: float
    delay: float = 1.0
    index: int = -1

    @property
    def endpoints(self) -> Edge:
        """The ``(source, target)`` pair identifying this link."""
        return (self.source, self.target)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Link({self.source}->{self.target}, c={self.capacity})"


class Network:
    """A directed graph with capacities, the substrate of every TE problem.

    Parameters
    ----------
    name:
        Human readable identifier, used in reports and benchmark output.

    Examples
    --------
    >>> net = Network(name="triangle")
    >>> for u, v in [(1, 2), (2, 3), (1, 3)]:
    ...     _ = net.add_link(u, v, capacity=10.0)
    >>> net.num_nodes, net.num_links
    (3, 3)
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: list[Node] = []
        self._node_set: dict[Node, int] = {}
        self._links: list[Link] = []
        self._link_index: dict[Edge, int] = {}
        self._out_links: dict[Node, list[int]] = {}
        self._in_links: dict[Node, list[int]] = {}
        # Lazy adjacency memos: Link-object lists are rebuilt on demand and
        # dropped whenever a link is added (the hot incremental paths call
        # out_links/in_links millions of times on a static topology).
        self._out_cache: dict[Node, list[Link]] = {}
        self._in_cache: dict[Node, list[Link]] = {}
        self._endpoints: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Add ``node`` to the network (idempotent)."""
        if node not in self._node_set:
            self._node_set[node] = len(self._nodes)
            self._nodes.append(node)
            self._out_links[node] = []
            self._in_links[node] = []
        return node

    def add_link(
        self,
        source: Node,
        target: Node,
        capacity: float,
        delay: float = 1.0,
    ) -> Link:
        """Add a directed link ``source -> target``.

        Raises
        ------
        NetworkError
            If the link already exists, is a self loop, or has a
            non-positive capacity.
        """
        if source == target:
            raise NetworkError(f"self loop {source}->{target} not allowed")
        if capacity <= 0:
            raise NetworkError(f"capacity must be positive, got {capacity}")
        if (source, target) in self._link_index:
            raise NetworkError(f"duplicate link {source}->{target}")
        self.add_node(source)
        self.add_node(target)
        link = Link(source, target, float(capacity), float(delay), len(self._links))
        self._links.append(link)
        self._link_index[(source, target)] = link.index
        self._out_links[source].append(link.index)
        self._in_links[target].append(link.index)
        self._out_cache.pop(source, None)
        self._in_cache.pop(target, None)
        self._endpoints = None
        return link

    def add_duplex_link(
        self,
        u: Node,
        v: Node,
        capacity: float,
        delay: float = 1.0,
    ) -> tuple[Link, Link]:
        """Add the pair of directed links ``u -> v`` and ``v -> u``."""
        return (
            self.add_link(u, v, capacity, delay),
            self.add_link(v, u, capacity, delay),
        )

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        """Nodes in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> list[Link]:
        """Links in insertion order (i.e. by :attr:`Link.index`)."""
        return list(self._links)

    @property
    def edges(self) -> list[Edge]:
        """``(source, target)`` pairs in link-index order."""
        return [link.endpoints for link in self._links]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def has_node(self, node: Node) -> bool:
        return node in self._node_set

    def has_link(self, source: Node, target: Node) -> bool:
        return (source, target) in self._link_index

    def node_index(self, node: Node) -> int:
        """Dense index of ``node`` (its position in :attr:`nodes`)."""
        try:
            return self._node_set[node]
        except KeyError:
            raise NetworkError(f"unknown node {node!r}") from None

    def link(self, source: Node, target: Node) -> Link:
        """The :class:`Link` object for ``source -> target``."""
        try:
            return self._links[self._link_index[(source, target)]]
        except KeyError:
            raise NetworkError(f"unknown link {source}->{target}") from None

    def link_by_index(self, index: int) -> Link:
        return self._links[index]

    def link_index(self, source: Node, target: Node) -> int:
        """Dense index of the link ``source -> target``."""
        try:
            return self._link_index[(source, target)]
        except KeyError:
            raise NetworkError(f"unknown link {source}->{target}") from None

    def link_node_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense node indices of every link's source and target, link-indexed.

        Memoised until the next :meth:`add_link`; callers must not modify the
        returned arrays.
        """
        if self._endpoints is None:
            index = self._node_set
            self._endpoints = (
                np.array([index[link.source] for link in self._links], dtype=np.int64),
                np.array([index[link.target] for link in self._links], dtype=np.int64),
            )
        return self._endpoints

    def out_links(self, node: Node) -> list[Link]:
        """Links leaving ``node`` (a shared cached list — do not mutate)."""
        cached = self._out_cache.get(node)
        if cached is None:
            cached = [self._links[i] for i in self._out_links.get(node, [])]
            self._out_cache[node] = cached
        return cached

    def in_links(self, node: Node) -> list[Link]:
        """Links entering ``node`` (a shared cached list — do not mutate)."""
        cached = self._in_cache.get(node)
        if cached is None:
            cached = [self._links[i] for i in self._in_links.get(node, [])]
            self._in_cache[node] = cached
        return cached

    def neighbors(self, node: Node) -> list[Node]:
        """Nodes reachable from ``node`` by a single link."""
        return [self._links[i].target for i in self._out_links.get(node, [])]

    def predecessors(self, node: Node) -> list[Node]:
        """Nodes with a single link into ``node``."""
        return [self._links[i].source for i in self._in_links.get(node, [])]

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __len__(self) -> int:
        return self.num_links

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._link_index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )

    # ------------------------------------------------------------------
    # vector views
    # ------------------------------------------------------------------
    @property
    def capacities(self) -> np.ndarray:
        """Link capacities as a vector indexed by link index."""
        return np.array([link.capacity for link in self._links], dtype=float)

    @property
    def delays(self) -> np.ndarray:
        """Link delays as a vector indexed by link index."""
        return np.array([link.delay for link in self._links], dtype=float)

    def capacity_of(self, source: Node, target: Node) -> float:
        return self.link(source, target).capacity

    def total_capacity(self) -> float:
        """Sum of all link capacities (denominator of *network load*)."""
        return float(sum(link.capacity for link in self._links))

    def weight_vector(self, weights: dict[Edge, float]) -> np.ndarray:
        """Convert an ``{(u, v): w}`` mapping to a link-indexed vector."""
        vec = np.zeros(self.num_links)
        for edge, value in weights.items():
            vec[self.link_index(*edge)] = value
        return vec

    def weight_dict(self, vector: Sequence[float]) -> dict[Edge, float]:
        """Convert a link-indexed vector to an ``{(u, v): w}`` mapping."""
        values = np.asarray(vector, dtype=float)
        if values.shape != (self.num_links,):
            raise NetworkError(
                f"expected a vector of length {self.num_links}, got {values.shape}"
            )
        return {link.endpoints: float(values[link.index]) for link in self._links}

    # ------------------------------------------------------------------
    # structure checks and conversions
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> csr_matrix:
        """The link graph as a scipy CSR matrix with one ``1.0`` per link."""
        sources, targets = self.link_node_indices()
        shape = (self.num_nodes, self.num_nodes)
        return csr_matrix((np.ones(sources.size), (sources, targets)), shape=shape)

    def is_connected(self) -> bool:
        """True when the underlying undirected graph is connected."""
        graph = self.adjacency_matrix()
        return connected_components(graph, connection="weak", return_labels=False) <= 1

    def is_strongly_connected(self) -> bool:
        """True when every node can reach every other node."""
        graph = self.adjacency_matrix()
        return connected_components(graph, connection="strong", return_labels=False) <= 1

    def is_symmetric(self) -> bool:
        """True when every link has a reverse link (possibly different capacity)."""
        return all((link.target, link.source) in self._link_index for link in self._links)

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with capacity/delay attributes.

        Needs the optional ``networkx`` package.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(self._nodes)
        for link in self._links:
            graph.add_edge(
                link.source,
                link.target,
                capacity=link.capacity,
                delay=link.delay,
                index=link.index,
            )
        return graph

    @classmethod
    def from_networkx(cls, graph, name: str | None = None) -> Network:
        """Build a :class:`Network` from a networkx digraph.

        Edge attribute ``capacity`` is required; ``delay`` defaults to 1.
        """
        net = cls(name=name or graph.name or "network")
        for node in graph.nodes():
            net.add_node(node)
        for u, v, data in graph.edges(data=True):
            if "capacity" not in data:
                raise NetworkError(f"edge {u}->{v} is missing a capacity attribute")
            net.add_link(u, v, data["capacity"], data.get("delay", 1.0))
        return net

    @classmethod
    def from_link_list(
        cls,
        links: Iterable[tuple[Node, Node, float]],
        name: str = "network",
        duplex: bool = False,
    ) -> Network:
        """Build a network from ``(u, v, capacity)`` triples.

        With ``duplex=True`` every triple adds both directions.
        """
        net = cls(name=name)
        for u, v, capacity in links:
            if duplex:
                net.add_duplex_link(u, v, capacity)
            else:
                net.add_link(u, v, capacity)
        return net

    def copy(self, name: str | None = None) -> Network:
        """A deep copy of the network (links are immutable, so this is cheap)."""
        net = Network(name=name or self.name)
        for node in self._nodes:
            net.add_node(node)
        for link in self._links:
            net.add_link(link.source, link.target, link.capacity, link.delay)
        return net

    def scaled(self, factor: float, name: str | None = None) -> Network:
        """A copy of the network with every capacity multiplied by ``factor``."""
        if factor <= 0:
            raise NetworkError("capacity scale factor must be positive")
        net = Network(name=name or f"{self.name}-x{factor:g}")
        for node in self._nodes:
            net.add_node(node)
        for link in self._links:
            net.add_link(link.source, link.target, link.capacity * factor, link.delay)
        return net


@dataclass
class NetworkSummary:
    """Compact description of a topology, used for Table III."""

    name: str
    kind: str
    num_nodes: int
    num_links: int
    total_capacity: float = 0.0
    extra: dict[str, object] = field(default_factory=dict)

    @classmethod
    def of(cls, network: Network, kind: str = "custom", **extra: object) -> NetworkSummary:
        return cls(
            name=network.name,
            kind=kind,
            num_nodes=network.num_nodes,
            num_links=network.num_links,
            total_capacity=network.total_capacity(),
            extra=dict(extra),
        )
