"""The controller-session API: feed events, read state, subscribe.

:class:`ControllerSession` is the one object the batch replay
(:mod:`repro.online.replay`) and the ``repro serve`` daemon both drive:

* **feed** — :meth:`ControllerSession.feed` applies one event, records the
  resulting measurement as a row and hands it to the attached policy;
* **read state** — :meth:`measure`, :meth:`forwarding`, :meth:`status`,
  :meth:`counters` and the deterministic :meth:`state_dump` /
  :meth:`from_state_dump` round trip;
* **subscribe** — :meth:`subscribe` registers ``(session, time, kind,
  measurement)`` callbacks fired after every recorded row (events and
  reoptimizations alike);
* **drive** — :meth:`replay` schedules :meth:`feed` for each event of a
  trace on a discrete-event simulator and runs it to completion, while
  :meth:`reoptimize_offline` runs the warm-started weight search on the
  live controller and installs its weights only once the search has
  returned, so a search that raises leaves the session untouched.

The session's history is :attr:`ControllerSession.rows`, one
:func:`measurement_row` per sample and nothing else; the counters are
integers kept next to it.  A socket feed and a simulator replay of the
same trace run the same :meth:`feed`, so their rows are identical.

Sessions are keyed (:attr:`key`, defaulting to the topology name) the
same way the results store keys runs, which is what makes the serve
daemon's multi-tenancy line up with recorded soak runs.
"""

from __future__ import annotations

import time as _time
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, Any, Protocol, cast

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.graph import Network, Node
from ..network.spt import DEFAULT_TOLERANCE, WeightsLike
from ..obs import telemetry
from ..simulator.events import Simulator
from .controller import ControllerMeasurement, ControllerUpdate, TEController
from .dspt import publish_dspt_counters, snapshot_stats
from .events import CapacityChange, EventError, LinkFailure, NetworkEvent

if TYPE_CHECKING:
    from ..protocols.fortz_thorup import LocalSearchResult

#: Schema version of :meth:`ControllerSession.state_dump` payloads.
STATE_DUMP_SCHEMA = 1

#: Decimal places of measurement fields in wire responses and recorded
#: per-event rows.  12 decimals keeps the serve/batch diff exact at the
#: acceptance tolerance while staying JSON-round-trip stable.
ROW_DECIMALS = 12

#: Row kind of a weight installation (events use their own ``kind``).
REOPTIMIZE = "reoptimize"

#: ``(session, time, kind, measurement)`` callback fired after every row.
SessionSubscriber = Callable[
    ["ControllerSession", float, str, ControllerMeasurement], None
]


class SessionPolicy(Protocol):
    """What a session needs from an attached reoptimization policy.

    Structural (any object with these two methods qualifies — the
    concrete implementations live in :mod:`repro.online.policy`).
    """

    def attach(
        self,
        controller: TEController,
        simulator: Any,
        on_reoptimize: Any = None,
    ) -> Any: ...

    def observe(
        self,
        controller: TEController,
        update: ControllerUpdate,
        measurement: ControllerMeasurement | None = None,
    ) -> None: ...


def measurement_row(
    seq: int, when: float, kind: str, measurement: ControllerMeasurement
) -> dict[str, object]:
    """One flat per-event record (shared by serve responses and replay rows).

    Both the serve daemon's event responses and ``repro replay
    --trace-file`` records are built by this one function, so the CI
    serve-smoke diff compares numbers produced by literally the same code.
    """
    return {
        "seq": seq,
        "time": when,
        "kind": kind,
        "mlu": round(measurement.mlu, ROW_DECIMALS),
        "utility": round(measurement.utility, ROW_DECIMALS),
        "routed": round(measurement.routed_volume, ROW_DECIMALS),
        "dropped": round(measurement.dropped_volume, ROW_DECIMALS),
        "connected": measurement.connected,
    }


class ControllerSession:
    """One live controller + optional policy behind a feed/read/subscribe API.

    Parameters
    ----------
    network, demands:
        The base topology and offered traffic (the controller's inputs).
    policy:
        An optional closed-loop policy (:mod:`repro.online.policy`).  It is
        attached immediately; when :meth:`replay` later binds a simulator,
        the policy is re-attached with it so hold/cooldown timers run on
        simulated time.  Without a simulator (direct :meth:`feed`, the
        serve daemon) the policy reacts immediately, cooldown still applied.
    weights, tolerance:
        Passed to :class:`TEController`.
    key:
        The session's identity for multi-tenant serving and recorded soak
        runs; defaults to ``network.name`` (the way the results store keys
        runs by topology).

    Examples
    --------
    Every sample is one row; the counters are kept next to the rows.

    >>> from repro.online import LinkRecovery
    >>> from repro.topology.backbones import abilene_network
    >>> from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
    >>> net = abilene_network()
    >>> tm = abilene_traffic_matrix(net, total_volume=50.0, seed=1)
    >>> session = ControllerSession(net, tm)
    >>> edge = net.links[0].endpoints
    >>> _ = session.feed(LinkFailure(time=1.0, link=edge))
    >>> _ = session.feed(LinkRecovery(time=2.0, link=edge))
    >>> len(session.rows), session.counters()["events"]
    (2, 2)
    """

    def __init__(
        self,
        network: Network,
        demands: TrafficMatrix,
        policy: SessionPolicy | None = None,
        *,
        weights: WeightsLike | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
        key: str | None = None,
    ) -> None:
        self.network = network
        self.key = key if key is not None else network.name
        self.controller = TEController(network, demands, weights=weights, tolerance=tolerance)
        self.policy = policy
        #: The pre-event measurement (taken once, before any feed).
        self.baseline: ControllerMeasurement = self.controller.measure()
        self._rows: list[dict[str, object]] = []
        #: Rows recorded per kind (event kinds and ``"reoptimize"``).
        self._kinds: dict[str, int] = {}
        self._subscribers: list[SessionSubscriber] = []
        if policy is not None:
            policy.attach(self.controller, None, on_reoptimize=self._policy_reoptimized)

    # ------------------------------------------------------------------
    # feed
    # ------------------------------------------------------------------
    def feed(self, event: NetworkEvent) -> ControllerMeasurement:
        """Apply one event, record the result, notify subscribers and the policy.

        Returns the post-event (pre-policy) measurement, the one the event's
        row records.
        """
        update = self.controller.apply(event)
        measurement = self.controller.measure()
        self._record(event.time, event.kind, measurement)
        if self.policy is not None:
            self.policy.observe(self.controller, update, measurement=measurement)
        return measurement

    def feed_many(self, events: Iterable[NetworkEvent]) -> list[ControllerMeasurement]:
        """Feed a batch of events in order."""
        return [self.feed(event) for event in events]

    def _record(self, when: float, kind: str, measurement: ControllerMeasurement) -> None:
        """Append one row, count it, and notify the subscribers."""
        self._rows.append(measurement_row(len(self._rows), when, kind, measurement))
        self._kinds[kind] = self._kinds.get(kind, 0) + 1
        for subscriber in tuple(self._subscribers):
            subscriber(self, when, kind, measurement)

    def _policy_reoptimized(
        self, controller: TEController, decision: object, measurement: ControllerMeasurement
    ) -> None:
        # The policy hands over its post-installation measurement, so the
        # row costs no extra measure().
        self._record(getattr(decision, "time", self._last_time()), REOPTIMIZE, measurement)

    def _last_time(self) -> float:
        return cast(float, self._rows[-1]["time"]) if self._rows else 0.0

    # ------------------------------------------------------------------
    # subscribe
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: SessionSubscriber) -> Callable[[], None]:
        """Register an update callback; returns its unsubscribe function."""
        self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

        return unsubscribe

    # ------------------------------------------------------------------
    # read state
    # ------------------------------------------------------------------
    def measure(self) -> ControllerMeasurement:
        return self.controller.measure()

    def mlu(self) -> float:
        return self.controller.measure().mlu

    @property
    def processed_events(self) -> int:
        """Network events fed (reoptimization rows excluded)."""
        return len(self._rows) - self.reoptimizations

    @property
    def reoptimizations(self) -> int:
        """Weight installations recorded, by the policy or :meth:`reoptimize_offline`."""
        return self._kinds.get(REOPTIMIZE, 0)

    def event_rows(self) -> list[dict[str, object]]:
        """Flat per-sample records (events and reoptimizations, in order)."""
        return [dict(row) for row in self._rows]

    @property
    def rows(self) -> Sequence[dict[str, object]]:
        """The live per-sample records (read-only view; copy via :meth:`event_rows`)."""
        return self._rows

    def forwarding(self, destination: Node) -> dict[str, object]:
        """The ECMP forwarding state toward ``destination``.

        Per reachable node: the sorted equal-cost next hops and the even
        split fraction each receives.  Raises :class:`EventError` for
        destinations the controller has no demand toward (the session has
        no DAG for them).
        """
        spt = self.controller.spt
        if destination not in spt.destinations:
            raise EventError(f"unknown destination {destination!r} (no demand toward it)")
        nodes: dict[str, object] = {}
        for node, hops in spt.next_hops(destination).items():
            ordered = sorted(hops, key=str)
            nodes[str(node)] = {
                "next_hops": [str(hop) for hop in ordered],
                "split": round(1.0 / len(ordered), ROW_DECIMALS),
            }
        return {"destination": str(destination), "nodes": nodes}

    def status(self) -> dict[str, object]:
        """A compact live-state summary (the serve ``status`` query)."""
        measurement = self.controller.measure()
        return {
            "key": self.key,
            "topology": self.network.name,
            "nodes": self.network.num_nodes,
            "links": self.network.num_links,
            "events": self.processed_events,
            "reoptimizations": self.reoptimizations,
            "policy": type(self.policy).__name__ if self.policy is not None else None,
            "baseline_mlu": round(self.baseline.mlu, ROW_DECIMALS),
            "mlu": round(measurement.mlu, ROW_DECIMALS),
            "connected": measurement.connected,
            "dropped_pairs": len(measurement.dropped_pairs),
            "failed_links": sorted(
                [str(u), str(v)] for u, v in self.controller.spt.failed_links()
            ),
        }

    def counters(self) -> dict[str, object]:
        """Telemetry-style counters (the serve ``counters`` query)."""
        stats = self.controller.spt.stats
        return {
            "events": self.processed_events,
            "events_by_kind": {
                kind: count
                for kind, count in sorted(self._kinds.items())
                if kind != REOPTIMIZE
            },
            "reoptimizations": self.reoptimizations,
            "dspt_incremental_updates": stats.incremental_updates,
            "dspt_full_rebuilds": stats.full_rebuilds,
            "dspt_event_fallbacks": stats.event_fallbacks,
            "dspt_event_fallback_rate": round(stats.event_fallback_rate, ROW_DECIMALS),
        }

    # ------------------------------------------------------------------
    # state dump / restore
    # ------------------------------------------------------------------
    def state_dump(self) -> dict[str, object]:
        """The session's installed state as a deterministic JSON-able dict.

        The ``state`` section holds exactly what :meth:`from_state_dump`
        needs to rebuild an equivalent session — installed weights, current
        capacities, failed links, offered demands — and is byte-stable
        across the round trip (same state, same sorted-key serialisation,
        same bytes).  The ``measured`` section is informational (recomputed
        on restore, equal to float round-off).
        """
        controller = self.controller
        measurement = controller.measure()
        demands = sorted(
            ([str(s), str(t), float(v)] for (s, t), v in controller.demands.items()),
            key=lambda row: (row[0], row[1]),
        )
        return {
            "schema": STATE_DUMP_SCHEMA,
            "key": self.key,
            "topology": self.network.name,
            "state": {
                "weights": [float(w) for w in controller.weights],
                "capacities": [float(c) for c in controller.capacities],
                "failed_links": sorted(
                    [str(u), str(v)] for u, v in controller.spt.failed_links()
                ),
                "demands": demands,
            },
            "measured": {
                "mlu": measurement.mlu,
                "utility": measurement.utility,
                "routed": measurement.routed_volume,
                "dropped": measurement.dropped_volume,
                "connected": measurement.connected,
            },
        }

    @classmethod
    def from_state_dump(
        cls,
        network: Network,
        dump: dict[str, Any],
        *,
        policy: SessionPolicy | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> ControllerSession:
        """Rebuild a session from a :meth:`state_dump` payload.

        ``network`` must be the dumped topology (name and shape are
        validated; node names must stringify the way the dump recorded
        them).  The restored session re-dumps with a byte-identical
        ``state`` section.
        """
        if dump.get("schema") != STATE_DUMP_SCHEMA:
            raise EventError(
                f"unsupported state-dump schema {dump.get('schema')!r} "
                f"(supported: {STATE_DUMP_SCHEMA})"
            )
        if dump.get("topology") != network.name:
            raise EventError(
                f"state dump of topology {dump.get('topology')!r} does not match "
                f"network {network.name!r}"
            )
        state = dump["state"]
        by_name = {str(node): node for node in network.nodes}
        try:
            demands = TrafficMatrix(
                {(by_name[s], by_name[t]): v for s, t, v in state["demands"]}
            )
        except KeyError as exc:
            raise EventError(f"state dump names unknown node {exc.args[0]!r}") from None
        if len(state["weights"]) != network.num_links:
            raise EventError(
                f"state dump carries {len(state['weights'])} weights for "
                f"{network.num_links} links"
            )
        session = cls(
            network,
            demands,
            policy=policy,
            weights=np.asarray(state["weights"], dtype=float),
            tolerance=tolerance,
            key=str(dump.get("key", network.name)),
        )
        links_by_name = {
            (str(link.source), str(link.target)): link for link in network.links
        }
        for link in network.links:
            capacity = float(state["capacities"][link.index])
            if capacity != float(network.capacities[link.index]):
                session.controller.apply(
                    CapacityChange(link=link.endpoints, capacity=capacity)
                )
        for u, v in state["failed_links"]:
            link = links_by_name.get((u, v))
            if link is None:
                raise EventError(f"state dump names unknown link ({u!r}, {v!r})")
            session.controller.apply(LinkFailure(link=link.endpoints))
        # Restoration events went through the controller directly (plumbing,
        # not history): the session has no rows and the baseline is the
        # *restored* state, not the pre-failure network.
        session.baseline = session.controller.measure()
        return session

    # ------------------------------------------------------------------
    # drive
    # ------------------------------------------------------------------
    def replay(
        self,
        events: Sequence[NetworkEvent],
        simulator: Simulator | None = None,
    ) -> float:
        """Run an event trace to completion on a discrete-event simulator.

        Schedules :meth:`feed` at each event's ``time``, re-attaches the
        policy with the simulator clock (hold/cooldown run on simulated
        time), runs, and returns the elapsed wall seconds.
        """
        simulator = simulator if simulator is not None else Simulator()
        policy = self.policy
        if policy is not None:
            policy.attach(
                self.controller, simulator, on_reoptimize=self._policy_reoptimized
            )
        for event in events:
            simulator.schedule(
                event.time, lambda _sim, event=event: self.feed(event), label=event.kind
            )
        stats_before = (
            snapshot_stats(self.controller.spt.stats) if telemetry.enabled() else None
        )
        start = _time.perf_counter()
        with telemetry.span(
            "replay.trace",
            events=len(events),
            session=self.key,
            policy=type(policy).__name__ if policy is not None else "none",
        ):
            simulator.run()
        elapsed = _time.perf_counter() - start
        if stats_before is not None:
            publish_dspt_counters(stats_before, self.controller.spt.stats)
        return elapsed

    def reoptimize_offline(
        self, optimizer: object | None = None, warm_start: bool = True
    ) -> LocalSearchResult:
        """Run the weight search on the current state, then install the result.

        :meth:`TEController.reoptimize` installs the weights as one bulk
        event only after the search returns, so an optimizer that raises
        leaves the session (weights, rows, counters) untouched.  The serve
        daemon runs this under the session's lock, like every other call
        that touches session state.  The installation is recorded as a
        ``"reoptimize"`` row.  Returns the optimizer result.
        """
        result = self.controller.reoptimize(
            optimizer=optimizer, warm_start=warm_start, install=True
        )
        self._record(self._last_time(), REOPTIMIZE, self.controller.measure())
        return result
