"""The online TE controller: event-driven routing state with bounded updates.

:class:`TEController` is the facade the rest of the library talks to when a
network *changes* instead of being re-posed from scratch:

* it owns a :class:`~repro.online.dspt.DynamicSPT`, the per-destination
  distances and DAG masks, whose rows an event only marks dirty;
* it keeps a ``(destination x node)`` demand array built once and
  ``(destination x link)`` per-destination loads; after an event only the
  rows the event dirtied (or whose demand changed) are compiled with
  :meth:`CompiledDag.from_mask` and re-propagated, in one stacked pass, at
  the next measurement;
* demands that an event disconnects are *dropped* (tracked per pair and in
  volume), mirroring :meth:`Scenario.apply`;
* :meth:`reoptimize` re-runs the Fortz–Thorup weight search warm-started
  from the installed weights and installs the result as one bulk event.

The controller is deliberately ECMP (even splitting over the equal-cost
DAGs, i.e. the OSPF data plane).  Scenario sweeps use it through
:meth:`TEController.sweep_scenarios` — the scenario runner's incremental
fast path, covering link/node failures, capacity brown-outs and their
mixes.  Timed traces and closed-loop reoptimization
(:mod:`repro.online.policy`) run through
:class:`~repro.online.session.ControllerSession`, which owns a controller.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.objectives import normalized_utility
from ..network.demands import Pair, TrafficMatrix
from ..network.graph import Network, Node
from ..network.spt import DEFAULT_TOLERANCE, WeightsLike
from ..obs import telemetry
from ..routing.compiled import CompiledDag
from ..scenarios.scenario import Scenario
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
    #: Destinations whose rows the event dirtied (re-propagated on the next read).
    affected_destinations: int
    #: Seconds the controller spent applying the event (routing excluded —
    #: loads are recomputed lazily on the next measurement).
    elapsed: float
    sequence: int


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
        ECMP cost tolerance (see :func:`~repro.network.spt.shortest_path_mask`).

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
    ) -> None:
        demands.validate(network)
        self.network = network
        self._demands: dict[Pair, float] = dict(demands.items())
        self._total_volume = sum(self._demands.values())
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
                destinations=demands.destinations(),
                tolerance=tolerance,
            )
        # Rows follow the SPT's destination rows; `_grow` adds new ones.
        self._demand = np.zeros((0, network.num_nodes))
        self._dest_loads = np.zeros((0, network.num_links))
        #: Demand volume per row whose source cannot reach the destination.
        self._dropped = np.zeros(0)
        #: Rows whose loads must be re-propagated on the next read.
        self._stale: set[int] = set()
        self._grow()
        # One scatter of the pairs into their destinations' rows.
        sources, targets, volumes = demands.layout(network)
        row_of = np.zeros(network.num_nodes, dtype=np.int64)
        row_of[[network.node_index(d) for d in self.spt.destinations]] = np.arange(
            len(self._demand)
        )
        self._demand[row_of[targets], sources] = volumes
        self._sequence = 0

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
        active = self.spt.active_mask
        for link in self.network.links:
            if active[link.index]:
                pruned.add_link(
                    link.source, link.target, float(self.capacities[link.index]), link.delay
                )
        return pruned

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def apply(self, event: NetworkEvent) -> ControllerUpdate:
        """Consume one event: dirty the rows it can change, nothing more.

        Every check runs before any state moves, so an event that raises
        leaves the controller exactly as it was.
        """
        start = _time.perf_counter()
        if isinstance(event, LinkFailure):
            affected = self.spt.fail_link(*event.link)
        elif isinstance(event, LinkRecovery):
            affected = self.spt.recover_link(*event.link)
        elif isinstance(event, LinkWeightChange):
            affected = self.spt.set_weight(*event.link, event.weight)
        elif isinstance(event, CapacityChange):
            affected = self._apply_capacity(event)
        elif isinstance(event, DemandUpdate):
            affected = self._apply_demand(event)
        elif type(event) is NetworkEvent:
            affected = set()
        else:
            raise EventError(f"unknown event type {type(event).__name__}")
        self._invalidate(affected)
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

    def _apply_capacity(self, event: CapacityChange) -> set[Node]:
        """Apply one capacity event; returns the destinations it dirtied.

        A capacity at or below zero is an explicit link failure — the exact
        semantics :meth:`Scenario.apply` gives a capacity factor of 0, so the
        incremental and cold paths agree on what a dead link means.  The
        link's *configured* capacity stays in :attr:`capacities` (the failed
        link carries zero load, so its utilization is a well-defined 0, never
        0/0); recovery restores it like any other failure.
        """
        if event.capacity <= 0:
            return self.spt.fail_link(*event.link)
        index = self.network.link_index(*event.link)
        self.capacities = self.capacities.copy()
        self.capacities[index] = float(event.capacity)
        return set()  # forwarding state (weights) is untouched

    def _apply_demand(self, event: DemandUpdate) -> set[Node]:
        if event.source == event.target:
            raise EventError("demand source and target must differ")
        if not event.volume >= 0:
            raise EventError(f"demand volume must be non-negative, got {event.volume}")
        for node in (event.source, event.target):
            if not self.network.has_node(node):
                raise EventError(f"unknown node {node!r}")
        pair = (event.source, event.target)
        if event.volume == 0:
            self._demands.pop(pair, None)
        else:
            self._demands[pair] = float(event.volume)
        self._total_volume = sum(self._demands.values())
        self.spt.add_destination(event.target)
        self._grow()
        row = self.spt.row(event.target)
        self._demand[row, self.network.node_index(event.source)] = float(event.volume)
        self._stale.add(row)
        return set()  # forwarding state is untouched

    def _invalidate(self, affected: set[Node]) -> None:
        self._stale.update(map(self.spt.row, affected))

    def _grow(self) -> None:
        """Give destinations the SPT gained since the last call zero rows.

        A destination gained after construction has no demand yet: the
        only pair toward it is the one :meth:`_apply_demand` then sets.
        """
        start, stop = len(self._dropped), len(self.spt.destinations)
        if start == stop:
            return
        new = stop - start
        self._demand = np.vstack((self._demand, np.zeros((new, self.network.num_nodes))))
        self._dest_loads = np.vstack((self._dest_loads, np.zeros((new, self.network.num_links))))
        self._dropped = np.append(self._dropped, np.zeros(new))
        self._stale.update(range(start, stop))

    # ------------------------------------------------------------------
    # routing state (lazy, per-destination rows)
    # ------------------------------------------------------------------
    def _refresh_loads(self) -> None:
        """Re-propagate the stale rows in one stacked pass."""
        self._grow()
        if not self._stale:
            return
        stale = sorted(self._stale)
        rows = np.array(stale)
        distances, mask = self.spt.arrays()
        member = np.isfinite(distances[rows])
        destinations = self.spt.destinations
        dag = CompiledDag.from_mask(
            self.network, [destinations[row] for row in stale], member, mask[rows]
        )
        ratios = dag.uniform_ratios()
        demand = self._demand[rows]
        throughflow = dag.propagate(np.where(member, demand, 0.0).ravel(), ratios)
        self._dest_loads[rows] = dag.destination_loads(throughflow, ratios)
        self._dropped[rows] = np.where(member, 0.0, demand).sum(axis=1)
        self._stale.clear()

    def link_loads(self) -> np.ndarray:
        """Aggregate per-link loads of the current routing state.

        Indexed by the *base* network's link indices; failed links carry 0.
        """
        self._refresh_loads()
        return self._dest_loads.sum(axis=0)

    def measure(self) -> ControllerMeasurement:
        """Loads, MLU, utility and drop accounting in one snapshot."""
        loads = self.link_loads()
        utilization = loads / self.capacities
        dropped_volume = float(self._dropped.sum())
        dropped_pairs: list[Pair] = []
        if dropped_volume:
            distances, _ = self.spt.arrays()
            rows, sources = np.nonzero(~np.isfinite(distances) & (self._demand > 0))
            nodes, destinations = self.network.nodes, self.spt.destinations
            dropped_pairs = [
                (nodes[source], destinations[row])
                for row, source in zip(rows.tolist(), sources.tolist(), strict=True)
            ]
        return ControllerMeasurement(
            loads=loads,
            mlu=float(utilization.max()) if utilization.size else 0.0,
            utility=normalized_utility(utilization) if utilization.size else 0.0,
            routed_volume=float(self._total_volume - dropped_volume),
            dropped_volume=dropped_volume,
            dropped_pairs=tuple(sorted(dropped_pairs, key=repr)),
        )

    def mlu(self) -> float:
        return self.measure().mlu

    def ensemble_link_loads(self, matrices: Sequence[TrafficMatrix]) -> np.ndarray:
        """Batched ECMP loads of a demand ensemble under the *current* state.

        The amortised counterpart of :meth:`measure`: the current DAG masks
        of the ensemble's destinations are compiled into one stack and the
        whole ensemble rides one batched propagation.  Returns
        ``(len(matrices), num_links)`` loads on the base link indexing
        (failed links carry 0).

        Sources an event disconnected are dropped, matching :meth:`measure`.
        Destinations the controller has not seen yet (absent from the
        constructor demands and every event so far) get SPT rows on first
        use.
        """
        for matrix in matrices:
            matrix.validate(self.network)
        destinations = list(dict.fromkeys(d for matrix in matrices for d in matrix.destinations()))
        for destination in destinations:
            self.spt.add_destination(destination)
        rows = [self.spt.row(destination) for destination in destinations]
        distances, mask = self.spt.arrays()
        dag = CompiledDag.from_mask(
            self.network, destinations, np.isfinite(distances[rows]), mask[rows]
        )
        return dag.ensemble_loads(matrices, dag.uniform_ratios(), missing="drop")

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
        installed as one bulk weight event (every row rebuilt).

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
                warm_start=self.weights[self.spt.active_mask] if warm_start else None,
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
    # scenario sweeps
    # ------------------------------------------------------------------
    def sweep_scenarios(
        self, scenarios: Sequence[Scenario]
    ) -> list[ControllerMeasurement]:
        """Measure every topology-perturbing scenario by applying and reverting it.

        Each scenario is expanded by :func:`scenario_events` into link
        failures (node failures and factor-0 capacities included) and
        capacity changes, applied as events, measured, and reverted — so a
        cell recomputes only the rows its failures dirtied, and a
        capacity-only scenario costs no routing work at all (forwarding is
        untouched; only the utilization denominator moves).

        The controller ends in its starting state: the baseline rows and
        capacity vector are saved once, and after each scenario the failed
        links are recovered and the rows the cell dirtied are put back from
        the saved baseline instead of being recomputed.
        """
        self._refresh_loads()
        distances, mask = self.spt.arrays()
        baseline_distances, baseline_mask = distances.copy(), mask.copy()
        baseline_loads, baseline_dropped = self._dest_loads.copy(), self._dropped.copy()
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
                    touched = set(self._stale)
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
                    touched |= self._stale
                    self.capacities = baseline_capacities
                    rows = sorted(touched)
                    self.spt.install_rows(rows, baseline_distances[rows], baseline_mask[rows])
                    self._dest_loads[rows] = baseline_loads[rows]
                    self._dropped[rows] = baseline_dropped[rows]
                    self._stale.clear()
                    if cell is not None:
                        cell.tags["dirtied"] = str(
                            sum(u.affected_destinations for u in updates + reverts)
                        )
        if stats_before is not None:
            publish_dspt_counters(stats_before, self.spt.stats)
        return measurements
