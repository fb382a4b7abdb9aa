"""Flow assignments (traffic distributions) over a network.

A *traffic distribution* in the paper is the aggregate flow vector
``f = (f_ij)`` together with its per-destination decomposition
``f^t = (f^t_ij)``.  :class:`FlowAssignment` stores the decomposition as one
``(destination x link)`` array -- the array the routing kernel, the MCF LPs,
Frank-Wolfe and Algorithm 1 all compute -- and derives ``f`` as its column
sum.  It checks the multi-commodity flow constraints (1a)-(1c) and exposes
the derived quantities used throughout the evaluation (utilization, spare
capacity, maximum link utilization, ...).
"""

from __future__ import annotations

import types
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .demands import TrafficMatrix
from .graph import Edge, Network, Node
from .incidence import incidence_matrix


class FlowError(ValueError):
    """Raised when a flow assignment violates the flow constraints."""


@dataclass
class FlowAssignment:
    """Per-destination link flows for a network, one row per destination.

    Attributes
    ----------
    network:
        The network the flows live on.
    destinations:
        The commodities (destination nodes), in row order.
    loads:
        ``(len(destinations), num_links)`` array; row ``k`` is the commodity
        flow ``f^t_ij`` destined to ``destinations[k]``.  Zeros by default.

    >>> import numpy as np
    >>> from repro.routing.compiled import CompiledDag
    >>> from repro.topology import fig4_demands, fig4_network
    >>> network, demands = fig4_network(), fig4_demands()
    >>> stack = CompiledDag.from_weights(
    ...     network, demands.destinations(), np.ones(network.num_links))
    >>> flows = stack.flows(demands, stack.uniform_ratios())
    >>> flows.destinations, flows.loads.shape
    ([2, 3, 7], (3, 13))
    >>> float(flows.aggregate().sum()), float(flows.aggregate().max())
    (28.0, 6.0)
    """

    network: Network
    destinations: list[Node] = field(default_factory=list)
    loads: np.ndarray | None = None
    _row: dict[Node, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.destinations = list(self.destinations)
        shape = (len(self.destinations), self.network.num_links)
        if self.loads is None:
            self.loads = np.zeros(shape)
        if self.loads.shape != shape:
            raise FlowError(f"loads must have shape {shape}, got {self.loads.shape}")
        self._row = {destination: row for row, destination in enumerate(self.destinations)}
        if len(self._row) != len(self.destinations):
            raise FlowError("destinations must be distinct")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, network: Network, destinations: Iterable[Node] = ()) -> FlowAssignment:
        """An all-zero assignment with a row for each destination."""
        return cls(network=network, destinations=list(destinations))

    def copy(self) -> FlowAssignment:
        return FlowAssignment(self.network, self.destinations, self.loads.copy())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def ensure_destination(self, destination: Node) -> np.ndarray:
        """The flow row for ``destination``, appending a zero row if missing.

        The returned row is a view into :attr:`loads`, valid until the next
        new destination is added.
        """
        row = self._row.get(destination)
        if row is None:
            row = self._row[destination] = len(self.destinations)
            self.destinations.append(destination)
            self.loads = np.vstack((self.loads, np.zeros(self.network.num_links)))
        return self.loads[row]

    def add_flow(self, destination: Node, source: Node, target: Node, amount: float) -> None:
        """Add ``amount`` of commodity ``destination`` on link ``source -> target``."""
        if amount < 0:
            raise FlowError(f"flow amount must be non-negative, got {amount}")
        vector = self.ensure_destination(destination)
        vector[self.network.link_index(source, target)] += amount

    def add_path_flow(self, destination: Node, path: list[Node], amount: float) -> None:
        """Add ``amount`` of commodity ``destination`` along ``path`` (a node list)."""
        for u, v in zip(path[:-1], path[1:], strict=True):
            self.add_flow(destination, u, v, amount)

    def scale(self, factor: float) -> FlowAssignment:
        """A copy with every flow multiplied by ``factor``."""
        if factor < 0:
            raise FlowError("flow scale factor must be non-negative")
        return FlowAssignment(self.network, self.destinations, self.loads * factor)

    def __add__(self, other: FlowAssignment) -> FlowAssignment:
        if other.network is not self.network and other.network.edges != self.network.edges:
            raise FlowError("cannot add flows defined on different networks")
        destinations = list(dict.fromkeys([*self.destinations, *other.destinations]))
        return FlowAssignment(
            self.network, destinations, self.rows(destinations) + other.rows(destinations)
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def per_destination(self) -> Mapping[Node, np.ndarray]:
        """Read-only ``{destination: row}`` view of :attr:`loads`."""
        return types.MappingProxyType(dict(zip(self.destinations, self.loads, strict=True)))

    def rows(self, destinations: Iterable[Node]) -> np.ndarray:
        """A new ``(len(destinations), num_links)`` array of those rows, in that order.

        A destination without a row gets zeros.
        """
        positions = np.array([self._row.get(d, -1) for d in destinations], dtype=np.intp)
        out = np.zeros((positions.size, self.network.num_links))
        present = positions >= 0
        out[present] = self.loads[positions[present]]
        return out

    def aggregate(self) -> np.ndarray:
        """Total flow ``f_ij`` per link (sum over destinations)."""
        return self.loads.sum(axis=0)

    def aggregate_dict(self) -> dict[Edge, float]:
        """Aggregate flow as an ``{(u, v): f}`` mapping."""
        return self.network.weight_dict(self.aggregate())

    def flow_on(self, source: Node, target: Node, destination: Node | None = None) -> float:
        """Flow on a link, total or restricted to one destination commodity."""
        index = self.network.link_index(source, target)
        if destination is None:
            return float(self.aggregate()[index])
        row = self._row.get(destination)
        return 0.0 if row is None else float(self.loads[row, index])

    def spare_capacity(self) -> np.ndarray:
        """Spare capacity ``s_ij = c_ij - f_ij`` per link."""
        return self.network.capacities - self.aggregate()

    def utilization(self) -> np.ndarray:
        """Link utilization ``f_ij / c_ij`` per link."""
        return self.aggregate() / self.network.capacities

    def utilization_dict(self) -> dict[Edge, float]:
        return self.network.weight_dict(self.utilization())

    def max_link_utilization(self) -> float:
        """The maximum link utilization (MLU)."""
        if self.network.num_links == 0:
            return 0.0
        return float(np.max(self.utilization()))

    def sorted_utilizations(self, descending: bool = True) -> np.ndarray:
        """Link utilizations sorted for the Fig. 9 style plots."""
        values = np.sort(self.utilization())
        return values[::-1] if descending else values

    def used_links(self, threshold: float = 1e-9) -> list[Edge]:
        """Links carrying more than ``threshold`` units of traffic."""
        aggregate = self.aggregate()
        return [
            link.endpoints
            for link in self.network.links
            if aggregate[link.index] > threshold
        ]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def is_capacity_feasible(self, tolerance: float = 1e-6) -> bool:
        """True when no link carries more than its capacity (within tolerance)."""
        return bool(np.all(self.aggregate() <= self.network.capacities + tolerance))

    def conservation_violation(self, demands: TrafficMatrix) -> float:
        """Largest violation of the flow conservation constraints (1b).

        Returns the maximum absolute imbalance ``|B f^t - d^t|`` across every
        (node, destination) pair, the destination's own node excepted, over
        every demand destination and every row; an absent row counts as
        zero flow.  So 0 means the decomposition exactly routes the demands.
        """
        network = self.network
        destinations = list(dict.fromkeys([*demands.destinations(), *self.destinations]))
        columns = [network.node_index(d) for d in destinations]
        residual = np.abs(
            incidence_matrix(network) @ self.rows(destinations).T
            - demands.matrix(network)[:, columns]
        )
        residual[columns, np.arange(len(columns))] = 0.0
        return float(residual.max(initial=0.0))

    def validate(self, demands: TrafficMatrix, tolerance: float = 1e-6) -> None:
        """Raise :class:`FlowError` unless constraints (1a)-(1c) hold."""
        negative = np.flatnonzero((self.loads < -tolerance).any(axis=1))
        if negative.size:
            raise FlowError(f"negative flow for destination {self.destinations[negative[0]]!r}")
        if not self.is_capacity_feasible(tolerance):
            overload = self.aggregate() - self.network.capacities
            worst = int(np.argmax(overload))
            link = self.network.link_by_index(worst)
            raise FlowError(
                f"capacity violated on {link.source}->{link.target}: "
                f"flow {self.aggregate()[worst]:.4f} > capacity {link.capacity:.4f}"
            )
        violation = self.conservation_violation(demands)
        if violation > tolerance:
            raise FlowError(f"flow conservation violated by {violation:.6f}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlowAssignment(network={self.network.name!r}, "
            f"destinations={len(self.destinations)}, "
            f"mlu={self.max_link_utilization():.3f})"
        )
