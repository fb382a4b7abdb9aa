"""Per-destination shortest-path state under link events: dirty rows, one builder.

:class:`DynamicSPT` holds what every cold protocol evaluation builds -- the
distances towards each destination and its shortest-path DAG (the paper's
``ON_t``) -- as the two arrays the library's one DAG builder
(:func:`repro.network.spt.shortest_path_mask`) returns: ``(destinations x
nodes)`` distances and a ``(destinations x links)`` DAG mask.  A link event
recomputes nothing.  It marks the destination rows it can change *dirty*,
and the next read re-runs the builder on the dirty rows only, in one call, so
a duplex trunk failure costs one Dijkstra call however many rows it touched.

**The one rule.**  An event moves link ``l = u -> v`` from effective weight
``w`` to ``w'`` (``inf`` while the link is failed).  A clean row is exact
under ``w``, and ``d(v)`` does not depend on ``l`` (a shortest path from
``v`` never re-enters ``v``).  The event dirties every row where::

    min(w, w') + d(v) <= d(u) + tolerance

that is, where ``l`` is *tight* -- the builder's own test -- before or after
the event.  A link tight at neither weight lies on no shortest path at
either, so no distance moves; the mask is a function of the distances and
the set of tight links, so no DAG link moves either, and the row is provably
unchanged.  Every DAG link is tight, so the rule covers failures and
increases of DAG links and recoveries and decreases that create or tie a
path, for any weights, zero-weight plateaus included.  The *old* tightness
matters even off the DAG: a tight link the DAG leaves out (a flat plateau
link that does not join, or one climbing within the tolerance) can still
carry ``d(u)``, which its failure moves by up to the tolerance.

A recomputed row equals the same row of an all-rows cold build
bit-for-bit, because the builder treats every row on its own.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from ..network.graph import Edge, Network, NetworkError, Node
from ..network.spt import (
    DEFAULT_TOLERANCE,
    ShortestPathDag,
    ShortestPathDags,
    WeightsLike,
    as_weight_vector,
    shortest_path_mask,
    validate_weights,
)
from ..obs import telemetry


@dataclass
class DsptStats:
    """Counters describing the work :class:`DynamicSPT` did.

    ``event_fallbacks`` and ``events_with_fallback`` are always 0: every
    event takes the one dirty-row path.  They stay so readers of the
    counters and of older records keep their keys.
    """

    events: int = 0
    #: Destination rows events dirtied, summed over events.
    destinations_changed: int = 0
    #: Dirty rows recomputed by the builder.
    incremental_updates: int = 0
    #: Rows built outside the dirty-row rule: new destinations and
    #: whole-vector :meth:`DynamicSPT.set_weights` installs.
    full_rebuilds: int = 0
    #: Rows built for newly added destinations (part of ``full_rebuilds``).
    initial_builds: int = 0
    #: Node distances the recomputed rows held (rows x nodes).
    nodes_recomputed: int = 0
    event_fallbacks: int = 0
    events_with_fallback: int = 0

    @property
    def event_fallback_rate(self) -> float:
        """Fraction of events where any destination fell back (0.0 when idle)."""
        return self.events_with_fallback / self.events if self.events else 0.0


def publish_dspt_counters(before: DsptStats, after: DsptStats) -> None:
    """Publish the delta between two stats snapshots as telemetry counters.

    Called once per sweep/replay (never per event); the counters land as
    ``dspt.events``, ``dspt.update[path=incremental]`` (rows recomputed) and
    ``dspt.nodes_recomputed``.  No-op when telemetry is disabled.
    """
    if not telemetry.enabled():
        return
    deltas = (
        ("dspt.events", {}, after.events - before.events),
        ("dspt.update", {"path": "incremental"},
         after.incremental_updates - before.incremental_updates),
        ("dspt.nodes_recomputed", {}, after.nodes_recomputed - before.nodes_recomputed),
    )
    for name, tags, value in deltas:
        if value:
            telemetry.count(name, value, **tags)


def snapshot_stats(stats: DsptStats) -> DsptStats:
    """A frozen copy of the counters, for before/after delta publishing."""
    return replace(stats)


class DynamicSPT:
    """Per-destination distances and DAG masks, kept exact under link events.

    Parameters
    ----------
    network:
        The base topology.  Failed links stay in the network with an
        effective weight of ``inf``, so link indices (and therefore load
        vectors) keep the base indexing.
    weights:
        Initial link weights (mapping or link-indexed vector).
    destinations:
        Destinations to hold rows for; more can be added later with
        :meth:`add_destination`.
    tolerance:
        ECMP cost tolerance, as in :func:`~repro.network.spt.shortest_path_mask`.

    Examples
    --------
    >>> from repro.topology.backbones import abilene_network
    >>> net = abilene_network()
    >>> spt = DynamicSPT(net, [1.0] * net.num_links, destinations=net.nodes)
    >>> edge = net.links[0].endpoints
    >>> changed = spt.fail_link(*edge)
    >>> spt.recover_link(*edge) == changed  # reverting dirties the same rows
    True
    """

    def __init__(
        self,
        network: Network,
        weights: WeightsLike,
        destinations: Iterable[Node] = (),
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.network = network
        self.tolerance = float(tolerance)
        self._weights = as_weight_vector(network, weights)
        validate_weights(self._weights)
        #: The weights in effect: the configured weight, ``inf`` while failed.
        self._effective = self._weights.copy()
        self._destinations: list[Node] = []
        self._rows: dict[Node, int] = {}
        self._distances = np.empty((0, network.num_nodes))
        self._mask = np.empty((0, network.num_links), dtype=bool)
        self._dirty: set[int] = set()
        self.stats = DsptStats()
        self._add(destinations)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def destinations(self) -> list[Node]:
        """Destinations in row order."""
        return list(self._destinations)

    @property
    def weights(self) -> np.ndarray:
        """The current weight vector (failed links keep their last weight)."""
        return self._weights.copy()

    @property
    def active_mask(self) -> np.ndarray:
        """The per-link active mask (False = failed)."""
        return np.isfinite(self._effective)

    def is_active(self, source: Node, target: Node) -> bool:
        return bool(np.isfinite(self._effective[self.network.link_index(source, target)]))

    def failed_links(self) -> list[Edge]:
        """Currently failed directed links, in link-index order."""
        links = self.network.links
        failed = np.flatnonzero(np.isinf(self._effective)).tolist()
        return [links[index].endpoints for index in failed]

    def row(self, destination: Node) -> int:
        """The row index of one destination."""
        try:
            return self._rows[destination]
        except KeyError:
            raise NetworkError(f"no SPT row for destination {destination!r}") from None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(distances, mask)`` with every dirty row recomputed.

        The arrays are the engine's own and change with later events: read,
        do not mutate, and copy what must outlive the next event.
        """
        self._refresh()
        return self._distances, self._mask

    def dag(self, destination: Node) -> ShortestPathDag:
        """A :class:`ShortestPathDag` snapshot of one destination's row."""
        row = self.row(destination)
        distances, mask = self.arrays()
        return ShortestPathDags(
            self.network, [destination], distances[row : row + 1], mask[row : row + 1],
            self.tolerance,
        )[destination]

    def next_hops(self, destination: Node) -> dict[Node, list[Node]]:
        """Each node's DAG next hops towards ``destination``, in link-index order.

        Nodes without a next hop (the destination, unreachable nodes) are
        absent; the cheap read behind the serve ``forwarding`` query.
        """
        row = self.row(destination)
        _, mask = self.arrays()
        nodes = self.network.nodes
        sources, targets = self.network.link_node_indices()
        (links,) = mask[row].nonzero()
        hops: dict[Node, list[Node]] = {}
        for source, target in zip(sources[links].tolist(), targets[links].tolist(), strict=True):
            hops.setdefault(nodes[source], []).append(nodes[target])
        return hops

    def distances(self, destination: Node) -> dict[Node, float]:
        return self.dag(destination).distances

    def reachable(self, source: Node, destination: Node) -> bool:
        """True when ``source`` currently reaches ``destination``."""
        row = self.row(destination)
        return bool(np.isfinite(self.arrays()[0][row, self.network.node_index(source)]))

    # ------------------------------------------------------------------
    # events (each returns the destinations whose rows it dirtied)
    # ------------------------------------------------------------------
    def add_destination(self, destination: Node) -> None:
        """Start holding (and build) a row for one more destination."""
        self._add([destination])

    def fail_link(self, source: Node, target: Node) -> set[Node]:
        """Mask one directed link out."""
        index = self.network.link_index(source, target)
        weight = self._effective[index]
        if weight == np.inf:
            return set()
        self._effective[index] = np.inf
        return self._event(index, weight)

    def recover_link(self, source: Node, target: Node) -> set[Node]:
        """Re-activate a failed link at its configured weight."""
        index = self.network.link_index(source, target)
        if self._effective[index] != np.inf:
            return set()
        weight = self._effective[index] = self._weights[index]
        return self._event(index, weight)

    def set_weight(self, source: Node, target: Node, weight: float) -> set[Node]:
        """Change one link's weight (no-op for equal weight)."""
        if not np.isfinite(weight) or weight < 0:
            raise NetworkError(f"link weight must be finite and non-negative, got {weight}")
        index = self.network.link_index(source, target)
        old = float(self._weights[index])
        if old == weight:
            return set()
        self._weights[index] = float(weight)
        if self._effective[index] == np.inf:
            return set()  # takes effect on recovery
        self._effective[index] = float(weight)
        return self._event(index, min(old, float(weight)))

    def set_weights(self, weights: WeightsLike) -> set[Node]:
        """Install a whole new weight vector (every row rebuilt, one call)."""
        vector = as_weight_vector(self.network, weights)
        validate_weights(vector)
        self._weights = vector
        self._effective = np.where(np.isfinite(self._effective), vector, np.inf)
        self.stats.events += 1
        self._build(range(len(self._destinations)))
        self.stats.full_rebuilds += len(self._destinations)
        self.stats.destinations_changed += len(self._destinations)
        return set(self._destinations)

    # ------------------------------------------------------------------
    # sweep restores
    # ------------------------------------------------------------------
    def install_rows(self, rows: list[int], distances: np.ndarray, mask: np.ndarray) -> None:
        """Put saved rows back and mark them clean (the caller restored their links)."""
        self._distances[rows] = distances
        self._mask[rows] = mask
        self._dirty.difference_update(rows)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _event(self, index: int, weight: float) -> set[Node]:
        """Dirty every row where link ``index`` is tight at ``weight`` (the one rule)."""
        sources, targets = self.network.link_node_indices()
        head = self._distances[:, targets[index]]
        hit = np.isfinite(head) & (
            weight + head <= self._distances[:, sources[index]] + self.tolerance
        )
        rows = hit.nonzero()[0].tolist()
        self._dirty.update(rows)
        self.stats.events += 1
        self.stats.destinations_changed += len(rows)
        return {self._destinations[row] for row in rows}

    def _build(self, rows: Iterable[int]) -> None:
        """Rebuild ``rows`` with the builder on the weights in effect."""
        rows = list(rows)
        if not rows:
            return
        destinations = [self._destinations[row] for row in rows]
        distances, mask = shortest_path_mask(
            self.network, destinations, self._effective, self.tolerance
        )
        index = np.array(rows)
        self._distances[index] = distances
        self._mask[index] = mask
        self._dirty.difference_update(rows)

    def _refresh(self) -> None:
        if self._dirty:
            count = len(self._dirty)
            self._build(sorted(self._dirty))
            self.stats.incremental_updates += count
            self.stats.nodes_recomputed += count * self.network.num_nodes

    def _add(self, destinations: Iterable[Node]) -> None:
        new = [d for d in dict.fromkeys(destinations) if d not in self._rows]
        for destination in new:
            if not self.network.has_node(destination):
                raise NetworkError(f"unknown node {destination!r}")
        if not new:
            return
        start = len(self._destinations)
        for offset, destination in enumerate(new):
            self._rows[destination] = start + offset
        self._destinations.extend(new)
        count = len(new)
        self._distances = np.vstack((self._distances, np.empty((count, self.network.num_nodes))))
        self._mask = np.vstack((self._mask, np.empty((count, self.network.num_links), dtype=bool)))
        self._build(range(start, start + count))
        self.stats.initial_builds += count
        self.stats.full_rebuilds += count
