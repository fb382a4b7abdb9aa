"""The routing kernel: destination DAGs stacked into one block-diagonal edge list.

Every routing computation in the library -- ECMP and all-or-nothing
assignment, explicit split ratios, SPEF's exponential split (Algorithm 3),
PEFT's downward graph -- is the same linear algebra over per-destination
DAGs, and this module is its only implementation:

* position ``k * n + i`` holds network node ``i`` (``network.node_index``) in
  destination block ``k``.  A DAG edge is a (tail position, head position,
  link index) triple; ``P[u, v]`` is the share of ``u``'s throughflow
  forwarded to ``v``;
* node throughflows solve ``x = b + P^T x`` (``b`` the demand entering at each
  position) and the path-weight sums of Eq. (22) solve ``Z = e_t + A Z``
  (``A[u, v]`` a per-edge factor, ``e_t`` one at each destination).  The DAGs
  are acyclic, so ``P`` and ``A`` are nilpotent and iterating either equation
  from its right-hand side is exact after DAG-depth steps: level scheduling
  of a triangular solve (Anderson & Saad, 1989).  Each step is one
  ``bincount`` over the edges of all destinations at once, and the loop stops
  as soon as an iterate repeats;
* link loads follow as ``f[link(u, v)] = P[u, v] * x[u]``.

Compiling is one ``nonzero`` over a (destination x link) DAG mask
(:meth:`CompiledDag.from_mask`), the one DAG format routing code compiles:
the shortest-path builder's mask
(:func:`~repro.network.spt.shortest_path_mask`) as is, whether it comes
straight from the builder, from the rows a
:class:`~repro.network.spt.ShortestPathDags` carries (SPEF's augmented
DAGs among them) or from the dirty rows of the online controller's
:class:`~repro.online.DynamicSPT`.  The result is reused across demand
matrices, gradient iterations and scenario sweeps.  The dict-loop reference
the equivalence suite checks this kernel against lives in
``tests/routing_oracle.py``.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, NetworkError, Node
from ..network.spt import (
    DEFAULT_TOLERANCE,
    UnreachableError,
    WeightsLike,
    all_shortest_path_dags,
)

logger = logging.getLogger(__name__)

#: ``split_ratios[destination][node][hop]``: explicit per-node split ratios.
SplitRatios = Mapping[Node, Mapping[Node, Mapping[Node, float]]]


def warn_degenerate_split(node: Node, destination: Node, total: float, count: int) -> None:
    """Log the even-split fallback for degenerate stored split ratios.

    Called when a node carrying traffic has *stored* split ratios towards a
    destination that sum to (numerically) zero over its next hops.  The
    traffic is still delivered -- split evenly -- but silently ignoring the
    configured ratios would hide configuration bugs.
    """
    logger.warning(
        "stored split ratios at node %r towards %r sum to %g over %d next hop(s); "
        "falling back to an even split",
        node,
        destination,
        total,
        count,
    )


#: The layout of a matrix without pairs (see ``TrafficMatrix.layout``).
_NO_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))


def _scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``out[index[e]] += values[e]`` as one ``bincount``; ``values`` 1-D or ``(E, m)``."""
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=size)
    m = values.shape[1]
    flat = (index[:, None] * m + np.arange(m)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=size * m).reshape(size, m)


def _solve_levels(
    rhs: np.ndarray, push: Callable[[np.ndarray], np.ndarray], depth_bound: int
) -> np.ndarray:
    """Fixed point of ``y = rhs + push(y)`` for a nilpotent linear ``push``.

    Iterates from ``rhs``; after DAG-depth steps every entry is final and the
    next iterate repeats exactly, which ends the loop.
    """
    y = rhs
    for _ in range(depth_bound + 1):
        following = rhs + push(y)
        # Element-wise ``==`` (NaN never repeats), without a ufunc call.
        if memoryview(following) == memoryview(y):
            return y
        y = following
    raise NetworkError("routing graph contains a cycle")


@dataclass
class CompiledDag:
    """One or more destination DAGs compiled into a single stacked edge list.

    Attributes
    ----------
    network:
        The network the DAGs live on; ``n = network.num_nodes`` positions
        per destination block.
    destinations:
        Destination of each block, in block order.
    rows, targets, links:
        Per edge: tail position, head position and dense link index.  Edges
        are sorted by tail (a CSR layout), each node's in link-index order.
    member:
        Per position: whether the node is part of its block's DAG (can reach
        the destination).  Demand entering elsewhere is unroutable.
    """

    network: Network
    destinations: list[Node]
    rows: np.ndarray
    targets: np.ndarray
    links: np.ndarray
    member: np.ndarray

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_mask(
        cls,
        network: Network,
        destinations: Sequence[Node],
        member: np.ndarray,
        mask: np.ndarray,
    ) -> CompiledDag:
        """Stack (destination x node) members and (destination x link) DAG links.

        One ``nonzero`` over the mask's columns in tail order yields the edge
        arrays, so each node's first hop is its lowest-index DAG link.

        Raises
        ------
        UnreachableError
            If some next hop is not a member of its destination's DAG.
        """
        n = network.num_nodes
        sources, heads = network.link_node_indices()
        by_tail = sources.argsort(kind="stable")
        blocks, columns = mask[:, by_tail].nonzero()
        links = by_tail[columns]
        offsets = blocks * n
        compiled = cls(
            network=network,
            destinations=list(destinations),
            rows=sources[links] + offsets,
            targets=heads[links] + offsets,
            links=links,
            member=np.asarray(member, dtype=bool).ravel(),
        )
        (outside,) = (~compiled.member[compiled.targets]).nonzero()
        if outside.size:
            link = network.link_by_index(int(links[outside[0]]))
            raise UnreachableError(
                f"next hop {link.target!r} of {link.source!r} is not part of the DAG "
                f"towards {compiled.destinations[int(blocks[outside[0]])]!r}"
            )
        return compiled

    @classmethod
    def from_weights(
        cls,
        network: Network,
        destinations: Sequence[Node],
        weights: WeightsLike,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> CompiledDag:
        """The destinations' shortest-path DAGs under ``weights``, stacked."""
        dags = all_shortest_path_dags(network, destinations, weights, tolerance)
        return cls.from_mask(network, dags.destinations, np.isfinite(dags.distances), dags.mask)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of (destination, node) positions."""
        return int(self.member.size)

    @property
    def num_edges(self) -> int:
        return int(self.links.size)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer: the out-edges of position ``i`` are ``indptr[i]:indptr[i + 1]``."""
        return np.concatenate(([0], np.cumsum(self.out_degree())))

    def out_degree(self) -> np.ndarray:
        """Number of next hops per position."""
        return np.bincount(self.rows, minlength=self.num_nodes)

    @cached_property
    def destination_positions(self) -> np.ndarray:
        """Position of each block's destination."""
        n = self.network.num_nodes
        return np.array(
            [k * n + self.network.node_index(d) for k, d in enumerate(self.destinations)],
            dtype=np.int64,
        )

    @cached_property
    def block_bases(self) -> np.ndarray:
        """Per network node: ``k * n`` if it is ``destinations[k]``, else ``-n``.

        Pair ``(s, t)`` enters at position ``block_bases[t] + s``.
        """
        n = self.network.num_nodes
        nodes, bases = self.destination_positions % n, np.full(n, -n, dtype=np.int64)
        bases[nodes] = self.destination_positions - nodes
        return bases

    def _label(self, position: int) -> tuple[Node, Node]:
        """``(node, destination)`` of a position."""
        block, index = divmod(int(position), self.network.num_nodes)
        return self.network.nodes[index], self.destinations[block]

    def split_matrix(self, ratios: np.ndarray | None = None):
        """The split-ratio matrix ``P`` as a :class:`scipy.sparse.csr_matrix`.

        With ``ratios=None`` the even ECMP split is used.  A debugging and
        interop view -- the kernels work on the edge arrays directly.
        """
        import scipy.sparse as sp

        data = self.uniform_ratios() if ratios is None else np.asarray(ratios, dtype=float)
        return sp.csr_matrix(
            (data, self.targets, self.indptr), shape=(self.num_nodes, self.num_nodes)
        )

    # ------------------------------------------------------------------
    # ratio vectors (one value per edge)
    # ------------------------------------------------------------------
    def uniform_ratios(self) -> np.ndarray:
        """Even ECMP split: ``1 / out_degree`` on every edge."""
        return 1.0 / self.out_degree()[self.rows]

    def _first_edges(self) -> np.ndarray:
        """Index of each node's first edge (edges are grouped by tail)."""
        if not self.num_edges:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(np.concatenate(([True], self.rows[1:] != self.rows[:-1])))

    def first_hop_ratios(self) -> np.ndarray:
        """All-or-nothing split: the first next hop of every node gets 1.0."""
        ratios = np.zeros(self.num_edges)
        ratios[self._first_edges()] = 1.0
        return ratios

    def bind_ratios(
        self, split_ratios: SplitRatios | None
    ) -> tuple[np.ndarray, list[tuple[int, float]]]:
        """Normalise stored ``{destination: {node: {hop: ratio}}}`` into edge ratios.

        Nodes without stored ratios split evenly.  Stored ratios are
        normalised by their signed total over the node's next hops and
        negative shares are clamped to zero; a node whose total is not
        positive splits evenly too and is returned as a ``(position,
        total)`` pair, so :meth:`warn_loaded_degenerates` can warn for the
        ones that actually carry traffic.
        """
        ratios = self.uniform_ratios()
        degenerate: list[tuple[int, float]] = []
        if not split_ratios:
            return ratios, degenerate
        nodes = self.network.nodes
        n = len(nodes)
        starts = self._first_edges()
        ends = np.append(starts[1:], self.num_edges)
        for start, end in zip(starts.tolist(), ends.tolist(), strict=True):
            block, index = divmod(int(self.rows[start]), n)
            stored = (split_ratios.get(self.destinations[block]) or {}).get(nodes[index])
            if not stored:
                continue
            values = np.array(
                [stored.get(nodes[t], 0.0) for t in (self.targets[start:end] - block * n).tolist()]
            )
            total = float(values.sum())
            if total <= 0:
                degenerate.append((int(self.rows[start]), total))
            else:
                ratios[start:end] = np.maximum(values / total, 0.0)
        return ratios, degenerate

    def warn_loaded_degenerates(
        self, degenerate: Sequence[tuple[int, float]], throughflow: np.ndarray
    ) -> None:
        """Warn for degenerate-ratio nodes (from :meth:`bind_ratios`) that carried traffic."""
        if not degenerate:
            return
        degrees = self.out_degree()
        for position, total in degenerate:
            if np.any(throughflow[position] > 0):
                node, destination = self._label(position)
                warn_degenerate_split(node, destination, total, int(degrees[position]))

    def path_weight_sums(self, edge_factors: np.ndarray) -> np.ndarray:
        """``Z(s) = sum over DAG paths p from s of the product of edge factors on p``.

        ``Z = e_t + A Z`` solved level by level; ``Z(destination) = 1``.  With
        ``edge_factors = exp(-v[links])`` this is the dynamic program of the
        paper's Eq. (22).
        """
        rhs = np.zeros(self.num_nodes)
        rhs[self.destination_positions] = 1.0
        rows, targets, size = self.rows, self.targets, self.num_nodes
        return _solve_levels(
            rhs,
            lambda z: np.bincount(rows, weights=edge_factors * z[targets], minlength=size),
            self.network.num_nodes,
        )

    def boltzmann_ratios(self, edge_factors: np.ndarray) -> np.ndarray:
        """Split ``(s, k)`` proportionally to ``factor(s, k) * Z(k)``.

        With ``edge_factors = exp(-v[links])`` these are the exponential split
        ratios of Eq. (22).  Nodes whose total is not positive split evenly.
        """
        z_values = self.path_weight_sums(edge_factors)
        data = edge_factors * z_values[self.targets]
        totals = np.bincount(self.rows, weights=data, minlength=self.num_nodes)[self.rows]
        positive = totals > 0
        return np.where(
            positive,
            data / np.where(positive, totals, 1.0),
            1.0 / self.out_degree()[self.rows],
        )

    def exponential_ratios(self, link_lengths: np.ndarray) -> np.ndarray:
        """Eq. (22) ratios for a link-indexed length vector (the second weights ``v``)."""
        return self.boltzmann_ratios(np.exp(-np.asarray(link_lengths, dtype=float)[self.links]))

    # ------------------------------------------------------------------
    # demand vectors
    # ------------------------------------------------------------------
    def entering(
        self, matrices: Sequence[TrafficMatrix], missing: str = "raise", batched: bool = True
    ) -> np.ndarray:
        """Demand entering at each position: ``(num_nodes, m)`` (or 1-D for one matrix).

        Column ``j`` holds ``matrices[j]``, whose destinations must all be in
        this stack.  ``missing`` controls sources that cannot reach their
        destination: ``"raise"`` (ECMP, all-or-nothing) or ``"drop"``
        (explicit and exponential splits).  Each matrix's pairs are read
        from its :meth:`~repro.network.demands.TrafficMatrix.layout`.
        """
        layouts = [matrix.layout(self.network) for matrix in matrices] or [_NO_PAIRS]
        sources, targets, volume_array = map(np.concatenate, zip(*layouts, strict=True))
        position_array = self.block_bases[targets] + sources
        if position_array.size and position_array.min() < 0:
            node = self.network.nodes[targets[position_array.argmin()]]
            raise UnreachableError(f"no DAG towards {node!r} in this stack")
        routable = self.member[position_array]
        dropped = not routable.all()
        if dropped and missing == "raise":
            source, destination = self._label(position_array[~routable][0])
            raise UnreachableError(f"demand source {source!r} cannot reach {destination!r}")
        m = len(matrices) if batched else 1
        if batched:  # entry (position, column) of the (num_nodes, m) result
            columns = np.repeat(np.arange(m), [len(matrix) for matrix in matrices])
            position_array = position_array * m + columns
        if dropped:
            position_array, volume_array = position_array[routable], volume_array[routable]
        sums = np.bincount(position_array, weights=volume_array, minlength=self.num_nodes * m)
        return sums.reshape(self.num_nodes, m) if batched else sums

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def propagate(self, entering: np.ndarray, ratios: np.ndarray) -> np.ndarray:
        """Node throughflows ``x`` solving ``x = entering + P^T x``, level by level.

        A 2-D ``entering`` of shape ``(num_nodes, m)`` routes ``m`` demand
        vectors at once.

        Raises
        ------
        UnreachableError
            If positive traffic reaches a position with no next hops other
            than a destination.
        """
        rhs = np.asarray(entering, dtype=float)
        rows, targets, size = self.rows, self.targets, self.num_nodes
        weights = ratios if rhs.ndim == 1 else ratios[:, None]
        x = _solve_levels(
            rhs,
            lambda y: _scatter_add(targets, weights * y[rows], size),
            self.network.num_nodes,
        )
        dead = self.out_degree() == 0
        dead[self.destination_positions] = False
        loaded = dead & (x > 0 if x.ndim == 1 else (x > 0).any(axis=1))
        if loaded.any():
            node, destination = self._label(int(np.flatnonzero(loaded)[0]))
            raise UnreachableError(
                f"node {node!r} has traffic for {destination!r} but no next hop"
            )
        return x

    def link_loads(self, throughflow: np.ndarray, ratios: np.ndarray) -> np.ndarray:
        """Aggregate per-link loads ``(num_links,)`` (or ``(num_links, m)``)."""
        weights = ratios if throughflow.ndim == 1 else ratios[:, None]
        return _scatter_add(self.links, weights * throughflow[self.rows], self.network.num_links)

    def destination_loads(self, throughflow: np.ndarray, ratios: np.ndarray) -> np.ndarray:
        """Per-destination link loads ``(len(destinations), num_links)`` of a 1-D throughflow."""
        num_links = self.network.num_links
        blocks = self.rows // self.network.num_nodes
        return np.bincount(
            blocks * num_links + self.links,
            weights=ratios * throughflow[self.rows],
            minlength=len(self.destinations) * num_links,
        ).reshape(len(self.destinations), num_links)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def flows(
        self,
        demands: TrafficMatrix,
        ratios: np.ndarray,
        missing: str = "raise",
        degenerate: Sequence[tuple[int, float]] = (),
    ) -> FlowAssignment:
        """Route one matrix over the stack: the per-destination flow decomposition.

        ``degenerate`` comes from :meth:`bind_ratios`; see :meth:`entering`
        for ``missing``.
        """
        throughflow = self.propagate(self.entering([demands], missing, batched=False), ratios)
        self.warn_loaded_degenerates(degenerate, throughflow)
        return FlowAssignment(
            self.network, self.destinations, self.destination_loads(throughflow, ratios)
        )

    def ensemble_loads(
        self,
        matrices: Sequence[TrafficMatrix],
        ratios: np.ndarray,
        missing: str = "raise",
        degenerate: Sequence[tuple[int, float]] = (),
    ) -> np.ndarray:
        """Route ``m`` matrices in one propagation: ``(m, num_links)`` aggregate loads."""
        throughflow = self.propagate(self.entering(matrices, missing), ratios)
        self.warn_loaded_degenerates(degenerate, throughflow)
        return self.link_loads(throughflow, ratios).T
