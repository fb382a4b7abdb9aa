"""Batch trace replay over a :class:`~repro.online.session.ControllerSession`.

The engine behind ``repro replay``: build the timed fail → repair trace,
run it through :meth:`ControllerSession.replay`, and summarise the
session's rows into one row per outage.  The serve daemon (:mod:`repro.serve`)
feeds the same session API one event at a time over a socket, so a socket
replay and this batch replay of the same trace record identical rows.

A replay can also run **closed-loop**: pass a policy from
:mod:`repro.online.policy` and every triggered reoptimization is recorded
as a ``"reoptimize"`` row, so the per-outage rows report the *sustained*
state of each outage — the last row inside its window, i.e. what the
network looked like after the policy (if any) had reacted — and
:attr:`ReplayResult.worst` compares fairly between the no-policy,
closed-loop and every-event-oracle replays.

The controller construction knobs (tolerance, custom weights) live on
:class:`ControllerSession`: build a session and pass ``session=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from ..network.demands import TrafficMatrix
from ..network.graph import Network
from ..obs import telemetry
from ..scenarios.scenario import Scenario
from .controller import ControllerMeasurement, TEController
from .events import NetworkEvent, failure_recovery_trace
from .session import REOPTIMIZE, ControllerSession


@dataclass
class OutageRow:
    """The sustained measurement of one outage in the trace.

    ``mlu`` (and friends) come from the *last* session row inside the
    outage window: the final failure event without a policy, the post-
    reoptimization measurement when a policy reacted in time.
    """

    scenario_id: str
    time: float
    mlu: float
    utility: float
    routed_volume: float
    dropped_volume: float
    connected: bool
    #: Reoptimizations a policy spent inside this outage's window.
    reoptimizations: int = 0

    def as_row(self) -> dict[str, object]:
        """A flat record for tables and the results store."""
        return {
            "scenario": self.scenario_id,
            "time": self.time,
            "mlu": round(self.mlu, 6),
            "utility": round(self.utility, 6),
            "routed": round(self.routed_volume, 6),
            "dropped": round(self.dropped_volume, 6),
            "connected": self.connected,
            "reoptimizations": self.reoptimizations,
        }


@dataclass
class ReplayResult:
    """What a trace replay produced: a view of the session it drove."""

    session: ControllerSession
    final: ControllerMeasurement
    #: One sustained row per outage window (empty for an arbitrary trace).
    outages: list[OutageRow] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def controller(self) -> TEController:
        return self.session.controller

    @property
    def baseline(self) -> ControllerMeasurement:
        return self.session.baseline

    @property
    def policy(self) -> object | None:
        """The attached policy; its ``decisions`` carry before/after MLU."""
        return self.session.policy

    @property
    def processed_events(self) -> int:
        """Network events fed (policy timers and reoptimizations excluded)."""
        return self.session.processed_events

    @property
    def reoptimizations(self) -> int:
        return self.session.reoptimizations

    @property
    def worst(self) -> OutageRow | None:
        """The outage with the highest sustained MLU (``None`` on an empty trace)."""
        return max(self.outages, key=lambda row: row.mlu, default=None)


def outage_rows(
    rows: Sequence[Mapping[str, object]],
    scenarios: Sequence[Scenario],
    period: float,
    outage: float,
) -> list[OutageRow]:
    """Summarise a session's rows into one sustained row per outage window."""
    summary: list[OutageRow] = []
    for index, scenario in enumerate(scenarios):
        down, up = index * period, index * period + outage
        window = [
            row
            for row in rows
            if down <= row["time"] < up and row["kind"] in ("link-failure", REOPTIMIZE)
        ]
        if not window:
            continue
        last = window[-1]
        if telemetry.enabled():
            # Sustained MLU: what each outage actually ran at until repair.
            telemetry.observe(
                "replay.sustained_mlu",
                last["mlu"],
                edges=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0),
            )
        summary.append(
            OutageRow(
                scenario_id=scenario.scenario_id,
                time=down,
                mlu=last["mlu"],
                utility=last["utility"],
                routed_volume=last["routed"],
                dropped_volume=last["dropped"],
                connected=last["connected"],
                reoptimizations=sum(1 for row in window if row["kind"] == REOPTIMIZE),
            )
        )
    return summary


def replay_event_trace(
    session: ControllerSession, events: Sequence[NetworkEvent]
) -> ReplayResult:
    """Replay an arbitrary event trace through a session (no outage windows).

    The batch counterpart of feeding the same trace over the serve socket:
    events run in simulated-time order on a discrete-event simulator, and
    ``session.rows`` are the records ``repro replay --trace-file``
    stores (and the serve soak run must match bit-for-bit).
    """
    elapsed = session.replay(events)
    return ReplayResult(session=session, final=session.measure(), elapsed=elapsed)


def replay_failure_trace(
    network: Network,
    demands: TrafficMatrix,
    scenarios: Sequence[Scenario],
    period: float = 600.0,
    outage: float = 300.0,
    policy: object | None = None,
    *,
    session: ControllerSession | None = None,
) -> ReplayResult:
    """Replay ``scenarios`` as a timed fail → repair trace and summarise each outage.

    Each scenario fails at ``i * period`` and heals ``outage`` seconds
    later; the controller absorbs every directed-link event incrementally
    and the session records a row after each one.  With a ``policy``
    (:class:`~repro.online.policy.ClosedLoopPolicy` /
    :class:`~repro.online.policy.OraclePolicy`) each triggered
    reoptimization is recorded too.  The per-outage rows report the last
    row inside each outage window — the sustained state the network
    actually ran in until repair.

    Pass a prebuilt :class:`ControllerSession` (``session=``) to control
    the controller's construction (tolerance, custom weights).
    """
    if session is None:
        session = ControllerSession(network, demands, policy=policy)
    elif policy is not None and session.policy is not policy:
        raise ValueError("pass the policy on the ControllerSession, not alongside session=")
    trace = failure_recovery_trace(network, scenarios, period=period, outage=outage)
    result = replay_event_trace(session, trace)
    result.outages = outage_rows(session.rows, scenarios, period, outage)
    return result
