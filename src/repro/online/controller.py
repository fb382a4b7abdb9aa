"""The online TE controller: event-driven routing state with bounded updates.

:class:`TEController` is the facade the rest of the library talks to when a
network *changes* instead of being re-posed from scratch:

* it owns a :class:`~repro.online.dspt.DynamicSPT` (distances + equal-cost
  DAGs per destination, updated incrementally per event);
* each destination's DAG is compiled to CSR (:class:`CompiledDag`) lazily
  and *only recompiled when an event actually touched it* — the
  delta-compilation counterpart of :class:`~repro.routing.CompiledDagSet`;
* per-destination link-load vectors are cached, so after an event only the
  affected destinations are re-propagated — and when the event's footprint
  is known (the :attr:`DynamicSPT.last_event_regions` changed-node region)
  only the *subtree below the affected cone* is re-propagated through the
  cached throughflow state instead of the whole destination DAG;
* the aggregate load vector is maintained incrementally (one subtract/add
  per re-routed destination) instead of being re-summed over every
  destination at each measurement;
* demands that an event disconnects are *dropped* (tracked per pair and in
  volume), mirroring :meth:`Scenario.apply`;
* :meth:`reoptimize` re-runs the Fortz–Thorup weight search warm-started
  from the installed weights and installs the result as one bulk event.

The controller is deliberately ECMP (even splitting over the equal-cost
DAGs, i.e. the OSPF data plane): that is the regime where incremental
shortest paths pay for the whole routing state.  Scenario sweeps use it
through :meth:`TEController.sweep_scenarios` — the scenario runner's
incremental fast path, covering link/node failures, capacity brown-outs
and their mixes; the discrete-event simulator replays timed traces through
:meth:`TEController.bind`, where :mod:`repro.online.policy` closes the
loop with thresholded warm-started reoptimization.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..core.objectives import normalized_utility
from ..network.demands import Pair, TrafficMatrix
from ..network.graph import Network, Node
from ..network.spt import DEFAULT_TOLERANCE, WeightsLike
from ..obs import telemetry
from ..routing.sparse import SparseRouter
from ..scenarios.scenario import Scenario
from ..simulator.events import Simulator
from .dspt import DynamicSPT, publish_dspt_counters, snapshot_stats
from .events import (
    CapacityChange,
    DemandUpdate,
    EventError,
    LinkFailure,
    LinkRecovery,
    LinkWeightChange,
    NetworkEvent,
    scenario_events,
)


@dataclass
class ControllerUpdate:
    """What one :meth:`TEController.apply` did (its return value)."""

    event: NetworkEvent
    #: Destinations whose DAG changed (and were therefore recompiled).
    affected_destinations: int
    #: Seconds the controller spent applying the event (routing excluded —
    #: loads are recomputed lazily on the next measurement).
    elapsed: float
    sequence: int


@dataclass
class ControllerBaseline:
    """Picklable snapshot of a controller's compiled baseline state.

    Produced by :meth:`TEController.snapshot` and adopted by
    :meth:`TEController.from_snapshot`: the full per-destination SPT/DAG
    state plus the routed load caches, so a parallel sweep worker installs
    the parent's compiled baseline instead of re-running one cold Dijkstra
    per destination.  Tied to a topology by name: adoption validates the
    network has the same name, node count and link count.
    """

    topology: str
    num_nodes: int
    num_links: int
    weights: np.ndarray
    active: np.ndarray
    capacities: np.ndarray
    demands: dict[Pair, float]
    tolerance: float
    max_affected_fraction: float
    #: ``{destination: (dist, next_hops)}`` per-destination DAG state.
    states: dict[Node, tuple[dict[Node, float], dict[Node, list[Node]]]]
    dest_loads: dict[Node, np.ndarray]
    dest_through: dict[Node, dict[Node, float]]
    dest_dropped: dict[Node, dict[Node, float]]


@dataclass
class ControllerMeasurement:
    """A routing-state snapshot taken by :meth:`TEController.measure`."""

    loads: np.ndarray
    mlu: float
    utility: float
    routed_volume: float
    dropped_volume: float
    dropped_pairs: tuple[Pair, ...] = field(default_factory=tuple)

    @property
    def connected(self) -> bool:
        return not self.dropped_pairs

    @property
    def feasible(self) -> bool:
        return bool(np.all(np.isfinite(self.loads)))


class TEController:
    """Maintain ECMP routing state for a live network under an event stream.

    Parameters
    ----------
    network:
        The base topology.  Failures mask links; the link indexing (and the
        shape of every load vector) stays that of the base network, with
        failed links carrying zero load.
    demands:
        The offered traffic matrix (copied; updated by :class:`DemandUpdate`).
    weights:
        Link weights defining the shortest paths; defaults to Cisco InvCap
        derived from the base capacities.
    tolerance:
        ECMP cost tolerance (see :func:`~repro.network.spt.shortest_path_dag`).
    max_affected_fraction, verify:
        Passed to :class:`~repro.online.dspt.DynamicSPT` (fallback threshold
        and the verified-fallback debug mode).

    Examples
    --------
    >>> from repro.topology.backbones import abilene_network
    >>> from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
    >>> net = abilene_network()
    >>> tm = abilene_traffic_matrix(net, total_volume=50.0, seed=1)
    >>> controller = TEController(net, tm)
    >>> baseline = controller.measure().mlu
    >>> edge = net.links[0].endpoints
    >>> _ = controller.apply(LinkFailure(link=edge))
    >>> degraded = controller.measure().mlu
    >>> _ = controller.apply(LinkRecovery(link=edge))
    >>> abs(controller.measure().mlu - baseline) < 1e-9
    True
    """

    def __init__(
        self,
        network: Network,
        demands: TrafficMatrix,
        weights: WeightsLike | None = None,
        *,
        tolerance: float = DEFAULT_TOLERANCE,
        max_affected_fraction: float | None = None,
        verify: bool = False,
        _defer_build: bool = False,
    ) -> None:
        demands.validate(network)
        self.network = network
        self._demands: dict[Pair, float] = dict(demands.items())
        self.capacities = network.capacities
        if weights is None:
            from ..protocols.ospf import invcap_weights

            weights = invcap_weights(network)
        with telemetry.span(
            "controller.setup",
            topology=network.name,
            destinations=len(demands.destinations()),
        ):
            self.spt = DynamicSPT(
                network,
                weights,
                destinations=() if _defer_build else demands.destinations(),
                tolerance=tolerance,
                max_affected_fraction=max_affected_fraction,
                verify=verify,
            )
        self._dest_loads: dict[Node, np.ndarray] = {}
        self._dest_through: dict[Node, dict[Node, float]] = {}
        self._dest_dropped: dict[Node, dict[Node, float]] = {}
        self._dirty: set[Node] = set(demands.destinations())
        #: Per-dirty-destination changed-node region accumulated since the
        #: last route (``None`` = unknown footprint, full re-route).
        self._dirty_regions: dict[Node, set[Node] | None] = {}
        self._agg_loads: np.ndarray | None = None
        #: Lazy flat adjacency for the delta kernel: node -> [(index, target)].
        self._out_pairs: dict[Node, list[tuple[int, Node]]] | None = None
        self._in_indices: dict[Node, list[int]] | None = None
        self._by_destination: dict[Node, dict[Node, float]] | None = None
        self._router: SparseRouter | None = None
        self._router_dirty: set[Node] = set()
        self._sequence = 0

    # ------------------------------------------------------------------
    # baseline snapshots (shared across parallel sweep workers)
    # ------------------------------------------------------------------
    def snapshot(self) -> ControllerBaseline:
        """Freeze the current compiled state into a picklable baseline."""
        self._refresh_loads()
        return ControllerBaseline(
            topology=self.network.name,
            num_nodes=self.network.num_nodes,
            num_links=self.network.num_links,
            weights=self.spt.weights,
            active=self.spt.active_mask,
            capacities=self.capacities.copy(),
            demands=dict(self._demands),
            tolerance=self.spt.tolerance,
            max_affected_fraction=self.spt.max_affected_fraction,
            states=self.spt.export_states(),
            dest_loads={d: v.copy() for d, v in self._dest_loads.items()},
            dest_through={d: dict(t) for d, t in self._dest_through.items()},
            dest_dropped={d: dict(t) for d, t in self._dest_dropped.items()},
        )

    @classmethod
    def from_snapshot(
        cls,
        network: Network,
        snapshot: ControllerBaseline,
        *,
        verify: bool = False,
    ) -> TEController:
        """Adopt a :meth:`snapshot` baseline without any cold SPT builds.

        ``network`` must be the same topology the snapshot came from (name
        and shape are validated).  The returned controller is fully warm:
        its load caches match the snapshot and the first measurement costs a
        vector sum, not a route.
        """
        if (
            network.name != snapshot.topology
            or network.num_nodes != snapshot.num_nodes
            or network.num_links != snapshot.num_links
        ):
            raise EventError(
                f"snapshot of topology {snapshot.topology!r} "
                f"({snapshot.num_nodes} nodes / {snapshot.num_links} links) does not "
                f"match network {network.name!r} "
                f"({network.num_nodes} nodes / {network.num_links} links)"
            )
        controller = cls(
            network,
            TrafficMatrix(snapshot.demands),
            weights=snapshot.weights,
            tolerance=snapshot.tolerance,
            max_affected_fraction=snapshot.max_affected_fraction,
            verify=verify,
            _defer_build=True,
        )
        controller.spt.install_states(snapshot.active, snapshot.states)
        controller.capacities = snapshot.capacities.copy()
        controller._dest_loads = {d: v.copy() for d, v in snapshot.dest_loads.items()}
        controller._dest_through = {d: dict(t) for d, t in snapshot.dest_through.items()}
        controller._dest_dropped = {d: dict(t) for d, t in snapshot.dest_dropped.items()}
        controller._dirty = set()
        controller._dirty_regions = {}
        return controller

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------
    @property
    def demands(self) -> TrafficMatrix:
        """A copy of the current offered traffic matrix."""
        return TrafficMatrix(self._demands)

    @property
    def weights(self) -> np.ndarray:
        return self.spt.weights

    def active_network(self) -> Network:
        """The current topology as a standalone :class:`Network`.

        Failed links are omitted and current capacities installed — the
        network a from-scratch optimizer (e.g. :meth:`reoptimize`) sees.
        """
        pruned = Network(name=f"{self.network.name}/online")
        for node in self.network.nodes:
            pruned.add_node(node)
        failed = set(self.spt.failed_links())
        for link in self.network.links:
            if link.endpoints in failed:
                continue
            pruned.add_link(
                link.source, link.target, float(self.capacities[link.index]), link.delay
            )
        return pruned

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def apply(self, event: NetworkEvent) -> ControllerUpdate:
        """Consume one event, updating routing state incrementally."""
        start = _time.perf_counter()
        structural = True
        regions: dict[Node, set[Node] | None] | None = None
        if isinstance(event, LinkFailure):
            affected = self.spt.fail_link(*event.link)
            regions = self.spt.last_event_regions
        elif isinstance(event, LinkRecovery):
            affected = self.spt.recover_link(*event.link)
            regions = self.spt.last_event_regions
        elif isinstance(event, LinkWeightChange):
            affected = self.spt.set_weight(*event.link, event.weight)
            regions = self.spt.last_event_regions
        elif isinstance(event, CapacityChange):
            affected, structural = self._apply_capacity(event)
            regions = self.spt.last_event_regions if structural else None
        elif isinstance(event, DemandUpdate):
            affected = self._apply_demand(event)
        elif type(event) is NetworkEvent:
            affected = set()
        else:
            raise EventError(f"unknown event type {type(event).__name__}")
        self._invalidate(affected, structural=structural, regions=regions)
        update = ControllerUpdate(
            event=event,
            affected_destinations=len(affected),
            elapsed=_time.perf_counter() - start,
            sequence=self._sequence,
        )
        self._sequence += 1
        if telemetry.enabled():
            telemetry.count("controller.event", 1, kind=event.kind)
            telemetry.count("controller.dirtied_destinations", len(affected))
        return update

    def apply_all(self, events: Iterable[NetworkEvent]) -> list[ControllerUpdate]:
        """Consume a batch of events in order."""
        return [self.apply(event) for event in events]

    def _apply_capacity(self, event: CapacityChange) -> tuple[set[Node], bool]:
        """Apply one capacity event; returns ``(affected, structural)``.

        A capacity at or below zero is an explicit link failure — the exact
        semantics :meth:`Scenario.apply` gives a capacity factor of 0, so the
        incremental and cold paths agree on what a dead link means.  The
        link's *configured* capacity stays in :attr:`capacities` (the failed
        link carries zero load, so its utilization is a well-defined 0, never
        0/0); recovery restores it like any other failure.
        """
        if event.capacity <= 0:
            return self.spt.fail_link(*event.link), True
        index = self.network.link_index(*event.link)
        self.capacities = self.capacities.copy()
        self.capacities[index] = float(event.capacity)
        return set(), False  # forwarding state (weights) is untouched

    def _apply_demand(self, event: DemandUpdate) -> set[Node]:
        if event.source == event.target:
            raise EventError("demand source and target must differ")
        if event.volume < 0:
            raise EventError(f"demand volume must be non-negative, got {event.volume}")
        for node in (event.source, event.target):
            if not self.network.has_node(node):
                raise EventError(f"unknown node {node!r}")
        pair = (event.source, event.target)
        if event.volume == 0:
            self._demands.pop(pair, None)
        else:
            self._demands[pair] = float(event.volume)
        self._by_destination = None
        if event.target not in self.spt.destinations:
            self.spt.add_destination(event.target)
            self._router_dirty.add(event.target)
        # Only this destination's entering vector changed; an entering
        # change has no known DAG footprint, so the region is None (full
        # re-route) even though the forwarding state is untouched.
        self._dirty.add(event.target)
        self._dirty_regions[event.target] = None
        return set()

    def _invalidate(
        self,
        affected: set[Node],
        structural: bool = True,
        regions: dict[Node, set[Node] | None] | None = None,
    ) -> None:
        if not structural:
            return
        # Stale load caches are kept (not popped): the delta kernel needs the
        # old loads/throughflow as its starting state, and the aggregate
        # maintenance needs the old vector to subtract.  Regions accumulate
        # across events until the next route: union of sets, None (unknown
        # footprint) absorbing.
        dirty_regions = self._dirty_regions
        for destination in affected:
            self._dirty.add(destination)
            region = regions.get(destination) if regions is not None else None
            if destination in dirty_regions:
                current = dirty_regions[destination]
                if current is None or region is None:
                    dirty_regions[destination] = None
                else:
                    current.update(region)
            else:
                dirty_regions[destination] = set(region) if region is not None else None
        self._router_dirty.update(affected)

    # ------------------------------------------------------------------
    # routing state (lazy, per-destination cached)
    # ------------------------------------------------------------------
    def _route_destination(self, destination: Node, entering: dict[Node, float]) -> None:
        # An event-dirtied DAG is routed once before the next event touches
        # it, so the fused single-pass kernel beats compile-then-propagate;
        # batched multi-matrix work goes through `ensemble_link_loads`,
        # which amortises a delta-recompiled CSR router instead.  When the
        # event's footprint is known (a bounded changed-node region) and the
        # old loads/throughflow are cached, only the subtree below the
        # region is re-propagated.
        region = self._dirty_regions.get(destination)
        if (
            region
            and destination in self._dest_loads
            and destination in self._dest_through
            and self.spt.plateau_free
            and self._route_delta(destination, entering, region)
        ):
            if telemetry.enabled():
                telemetry.count("controller.route", 1, path="delta")
            return
        loads, dropped, through = self.spt.ecmp_link_loads(
            destination, entering, with_through=True
        )
        self._store_destination(destination, loads, dropped, through)
        if telemetry.enabled():
            telemetry.count("controller.route", 1, path="full")

    def _route_delta(
        self, destination: Node, entering: dict[Node, float], region: set[Node]
    ) -> bool:
        """Re-propagate loads only through the subtree below ``region``.

        Seeds a max-distance-first worklist with the structurally changed
        nodes and pushes load *deltas* down the DAG: a popped node recomputes
        every out-link load from its current throughflow (idempotent, so
        re-pushes are safe), applying the difference to the downstream
        throughflow.  A node already waiting in the worklist is not pushed
        again: it reads its throughflow when popped.  Requires a plateau-free state (DAG edges then strictly
        decrease the distance, so the max-distance order is topological up
        to benign re-pushes).  Works on copies and commits only on success;
        returns False — caches untouched — when the worklist exceeds its
        budget or the state looks inconsistent, and the caller falls back to
        the full fused pass.
        """
        spt = self.spt
        state = spt.dag(destination)  # live view sharing the engine's dicts
        dist = state.distances
        next_hops = state.next_hops
        out_pairs, in_indices = self._flat_adjacency()
        # The kernel indexes single elements millions of times across a
        # sweep; a memoryview over a copy of the cached loads reads and
        # writes Python floats without converting the whole vector.
        updated = self._dest_loads[destination].copy()
        loads = memoryview(updated)
        through = dict(self._dest_through[destination])
        dropped = dict(self._dest_dropped.get(destination, {}))

        heap: list[tuple[float, int, Node]] = []
        queued: set[Node] = set()
        seq = 0
        for node in region:
            d = dist.get(node)
            if d is None:
                # Newly unreachable: clear its caches, zero its out-loads
                # (deltas flow downstream), drop its entering demand.
                through.pop(node, None)
                if node in entering:
                    dropped[node] = entering[node]
                for index, target in out_pairs[node]:
                    load = loads[index]
                    if load != 0.0:
                        loads[index] = 0.0
                        if target in dist:
                            through[target] = through.get(target, 0.0) - load
                            if target != destination and target not in queued:
                                queued.add(target)
                                heapq.heappush(heap, (-dist[target], seq, target))
                                seq += 1
                continue
            if node not in through:
                # Newly reachable: seed its inflow from the current link
                # loads; upstream corrections arrive later as deltas.
                inflow = entering.get(node, 0.0)
                for index in in_indices[node]:
                    inflow += loads[index]
                through[node] = inflow
                dropped.pop(node, None)
            if node != destination and node not in queued:
                queued.add(node)
                heapq.heappush(heap, (-d, seq, node))
                seq += 1

        budget = 4 * len(dist) + 16
        while heap:
            budget -= 1
            if budget < 0:
                return False
            _, _, node = heapq.heappop(heap)
            queued.discard(node)
            flow = through.get(node, 0.0)
            hops = next_hops.get(node) or ()
            if flow != 0.0 and not hops:
                return False  # inconsistent; the full pass raises properly
            share = flow / len(hops) if hops else 0.0
            for index, target in out_pairs[node]:
                new_load = share if target in hops else 0.0
                delta = new_load - loads[index]
                if delta == 0.0:
                    continue
                loads[index] = new_load
                if target in dist:
                    through[target] += delta
                    if target != destination and target not in queued:
                        queued.add(target)
                        heapq.heappush(heap, (-dist[target], seq, target))
                        seq += 1

        self._store_destination(destination, updated, dropped, through)
        return True

    def _flat_adjacency(
        self,
    ) -> tuple[dict[Node, list[tuple[int, Node]]], dict[Node, list[int]]]:
        """Per-node ``(link index, target)`` pairs / in-link indices, memoized."""
        out_pairs = self._out_pairs
        if out_pairs is None:
            network = self.network
            out_pairs = {
                node: [(link.index, link.target) for link in network.out_links(node)]
                for node in network.nodes
            }
            self._in_indices = {
                node: [link.index for link in network.in_links(node)]
                for node in network.nodes
            }
            self._out_pairs = out_pairs
        return out_pairs, self._in_indices

    def _store_destination(
        self,
        destination: Node,
        loads: np.ndarray,
        dropped: dict[Node, float],
        through: dict[Node, float],
    ) -> None:
        """Install one destination's routed state, maintaining the aggregate."""
        if self._agg_loads is not None:
            old = self._dest_loads.get(destination)
            if old is not None:
                self._agg_loads -= old
            self._agg_loads += loads
        self._dest_loads[destination] = loads
        self._dest_dropped[destination] = dropped
        self._dest_through[destination] = through

    def _refresh_loads(self) -> None:
        by_destination = self._by_destination
        if by_destination is None:
            by_destination = {}
            for (source, target), volume in self._demands.items():
                by_destination.setdefault(target, {})[source] = volume
            self._by_destination = by_destination
        # Destinations that lost all their demand drop out of the caches.
        for destination in list(self._dest_loads):
            if destination not in by_destination:
                if self._agg_loads is not None:
                    self._agg_loads -= self._dest_loads[destination]
                self._dest_loads.pop(destination, None)
                self._dest_dropped.pop(destination, None)
                self._dest_through.pop(destination, None)
        for destination, entering in by_destination.items():
            if destination in self._dirty or destination not in self._dest_loads:
                self._route_destination(destination, entering)
        self._dirty.clear()
        self._dirty_regions.clear()

    def link_loads(self) -> np.ndarray:
        """Aggregate per-link loads of the current routing state.

        Indexed by the *base* network's link indices; failed links carry 0.
        The aggregate is maintained incrementally (one subtract/add per
        re-routed destination) once built; a copy is returned, so callers
        may keep the vector across later events.
        """
        self._refresh_loads()
        if self._agg_loads is None:
            if self._dest_loads:
                self._agg_loads = np.sum(list(self._dest_loads.values()), axis=0)
            else:
                self._agg_loads = np.zeros(self.network.num_links)
        loads = self._agg_loads.copy()
        # Every per-destination vector is exactly 0 on inactive links, but
        # the in-place subtract/add maintenance can leave ~1e-17 residue in
        # the aggregate; failed links must carry an exact 0.
        inactive = ~self.spt.active_mask
        if inactive.any():
            loads[inactive] = 0.0
        return loads

    def measure(self) -> ControllerMeasurement:
        """Loads, MLU, utility and drop accounting in one snapshot."""
        loads = self.link_loads()
        utilization = loads / self.capacities
        dropped_pairs: list[Pair] = []
        dropped_volume = 0.0
        for destination, dropped in self._dest_dropped.items():
            for source, volume in dropped.items():
                dropped_pairs.append((source, destination))
                dropped_volume += volume
        routed = sum(self._demands.values()) - dropped_volume
        return ControllerMeasurement(
            loads=loads,
            mlu=float(np.max(utilization)) if utilization.size else 0.0,
            utility=normalized_utility(utilization) if utilization.size else 0.0,
            routed_volume=float(routed),
            dropped_volume=float(dropped_volume),
            dropped_pairs=tuple(sorted(dropped_pairs, key=repr)),
        )

    def mlu(self) -> float:
        return self.measure().mlu

    def ensemble_link_loads(self, matrices: Sequence[TrafficMatrix]) -> np.ndarray:
        """Batched ECMP loads of a demand ensemble under the *current* state.

        The amortised counterpart of :meth:`measure`: the controller keeps a
        :class:`~repro.routing.SparseRouter` whose compiled CSR state is
        *delta-refreshed* — after an event only the affected destinations
        are handed back to :meth:`SparseRouter.refresh_destination` for
        recompilation — and the whole ensemble rides the stacked batched
        propagation.  Returns ``(len(matrices), num_links)`` loads on the
        base link indexing (failed links carry 0).

        Sources an event disconnected are dropped, matching :meth:`measure`.
        Destinations the controller has not seen yet (absent from the
        constructor demands and every event so far) get dynamic SPT state
        built on first use.
        """
        for matrix in matrices:
            matrix.validate(self.network)
            for destination in matrix.destinations():
                if destination not in self.spt.destinations:
                    self.spt.add_destination(destination)
                    self._router_dirty.add(destination)
        if self._router is None:
            self._router = SparseRouter(
                self.network,
                dags={
                    destination: self.spt.dag(destination)
                    for destination in self.spt.destinations
                },
                mode="split",
                tolerance=self.spt.tolerance,
            )
            self._router_dirty.clear()
        else:
            # DynamicSPT state only ever grows, so every dirty destination
            # still exists and gets its updated DAG handed back.
            for destination in self._router_dirty:
                self._router.refresh_destination(destination, self.spt.dag(destination))
            self._router_dirty.clear()
        # mode="split" with no explicit ratios falls back to an even split
        # per DAG — ECMP semantics with drop (not raise) on unreachable
        # sources, matching the controller's event-driven drop accounting.
        return self._router.link_loads_many(matrices, split_ratios={})

    # ------------------------------------------------------------------
    # warm-started reoptimization
    # ------------------------------------------------------------------
    def reoptimize(
        self,
        optimizer: object | None = None,
        warm_start: bool = True,
        install: bool = True,
    ):
        """Re-run the OSPF weight search on the *current* topology/demands.

        ``optimizer`` defaults to a single-restart
        :class:`~repro.protocols.fortz_thorup.FortzThorup`; with
        ``warm_start`` the search starts from the currently installed
        weights, which after a small perturbation converges in a fraction of
        the cold iterations.  With ``install`` the resulting weights are
        installed as one bulk weight event (full DAG rebuild).

        Returns the optimizer's
        :class:`~repro.protocols.fortz_thorup.LocalSearchResult`.
        """
        from ..protocols.fortz_thorup import FortzThorup

        if optimizer is None:
            optimizer = FortzThorup(restarts=1)
        active = self.active_network()
        demands = self.demands
        with telemetry.span("controller.reoptimize", warm_start=warm_start):
            result = optimizer.optimize(
                active,
                demands,
                warm_start=self.weights[self._active_indices()] if warm_start else None,
            )
        if install:
            # Map the pruned-network weight vector back onto base indices;
            # failed links keep their previous weight (they are masked).
            installed = self.weights
            for link in active.links:
                installed[self.network.link_index(link.source, link.target)] = (
                    result.weights[link.index]
                )
            self.set_weights(installed)
        return result

    def _active_indices(self) -> np.ndarray:
        failed = set(self.spt.failed_links())
        return np.array(
            [link.index for link in self.network.links if link.endpoints not in failed],
            dtype=np.int64,
        )

    def set_weights(self, weights: WeightsLike) -> ControllerUpdate:
        """Install a new weight vector (one bulk event)."""
        start = _time.perf_counter()
        affected = self.spt.set_weights(weights)
        self._invalidate(affected)
        update = ControllerUpdate(
            event=NetworkEvent(),
            affected_destinations=len(affected),
            elapsed=_time.perf_counter() - start,
            sequence=self._sequence,
        )
        self._sequence += 1
        return update

    # ------------------------------------------------------------------
    # scenario sweeps and simulator binding
    # ------------------------------------------------------------------
    def sweep_scenarios(
        self, scenarios: Sequence[Scenario]
    ) -> list[ControllerMeasurement]:
        """Measure every topology-perturbing scenario by applying and reverting it.

        Generalises the pure-failure sweep to the full topology algebra:
        each scenario is expanded by :func:`scenario_events` into link
        failures (node failures and factor-0 capacities included) and
        capacity changes, applied as incremental events, measured, and
        reverted — so a sweep costs one delta update per perturbed trunk
        instead of a full recompute per scenario, and a capacity-only
        scenario costs no routing work at all (forwarding is untouched;
        only the utilization denominator moves).

        The controller ends in its starting state: the baseline's load
        caches *and capacity vector* are snapshotted once and restored after
        each scenario (links the sweep failed are recovered individually —
        their footprint is all that is ever recompiled).
        """
        # Force the aggregate into existence so every cell's measurement is
        # one subtract/add per re-routed destination, then freeze the whole
        # baseline (loads, drops, throughflow, aggregate, capacities).
        baseline_agg = self.link_loads()
        baseline_loads = dict(self._dest_loads)
        baseline_dropped = dict(self._dest_dropped)
        baseline_through = dict(self._dest_through)
        baseline_capacities = self.capacities
        measurements: list[ControllerMeasurement] = []
        stats_before = snapshot_stats(self.spt.stats) if telemetry.enabled() else None
        with telemetry.span("controller.sweep", scenarios=len(scenarios)):
            for scenario in scenarios:
                with telemetry.span(
                    "controller.cell", scenario=scenario.scenario_id
                ) as cell:
                    events = scenario_events(self.network, scenario)
                    already_down = set(self.spt.failed_links())
                    applied = [
                        event
                        for event in events
                        if not (
                            isinstance(event, LinkFailure)
                            and event.link in already_down
                        )
                    ]
                    updates = self.apply_all(applied)
                    measurements.append(self.measure())
                    # Revert by diffing the failed set (robust even when a
                    # capacity event converted to a failure) and
                    # snapshot-restoring the capacity vector in one assignment.
                    reverts = self.apply_all(
                        [
                            LinkRecovery(link=edge)
                            for edge in self.spt.failed_links()
                            if edge not in already_down
                        ]
                    )
                    self.capacities = baseline_capacities
                    # The recovery returned the DAGs to the baseline; restore
                    # the baseline's load caches instead of re-routing the
                    # roundtrip's footprint on the next measure.  The
                    # aggregate is restored from a fresh copy so per-cell
                    # in-place maintenance never drifts across scenarios.
                    self._dest_loads = dict(baseline_loads)
                    self._dest_dropped = dict(baseline_dropped)
                    self._dest_through = dict(baseline_through)
                    self._agg_loads = baseline_agg.copy()
                    self._dirty.clear()
                    self._dirty_regions.clear()
                    if cell is not None:
                        cell.tags["dirtied"] = str(
                            sum(u.affected_destinations for u in updates + reverts)
                        )
        if stats_before is not None:
            publish_dspt_counters(stats_before, self.spt.stats)
        return measurements

    def bind(
        self,
        simulator: Simulator,
        events: Iterable[NetworkEvent],
        on_update: Callable[["TEController", ControllerUpdate], None] | None = None,
    ) -> int:
        """Schedule an event trace on a discrete-event simulator.

        Each event is applied at its ``time``; ``on_update`` (if given) runs
        after each application — the place to sample :meth:`measure` or
        trigger :meth:`reoptimize`.  Returns the number of scheduled events.
        """
        count = 0
        for event in events:
            def _fire(sim: Simulator, event: NetworkEvent = event) -> None:
                update = self.apply(event)
                if on_update is not None:
                    on_update(self, update)

            simulator.schedule(event.time, _fire, label=event.kind)
            count += 1
        return count
