"""Batch TE-controller trace replay (the engine behind ``repro replay``).

This module used to own the whole replay loop; since the
:class:`~repro.online.session.ControllerSession` extraction it is a *thin
batch driver*: build the timed fail → repair trace, drive a session over a
discrete-event simulator, and summarise one row per outage.  The serve
daemon (:mod:`repro.serve`) drives the very same session API one event at
a time over a socket, which is why a socket replay of a trace and this
batch replay of the same trace report bit-identical measurements.

A replay can also run **closed-loop**: pass a policy from
:mod:`repro.online.policy` and every triggered reoptimization is folded
into the timeline (kind ``"reoptimize"``), so the per-outage rows report
the *sustained* state of each outage — the last measurement inside its
window, i.e. what the network looked like after the policy (if any) had
reacted — and :attr:`ReplayResult.worst` compares fairly between the
no-policy, closed-loop and every-event-oracle replays.

The controller construction knobs (tolerance, custom weights) live on
:class:`ControllerSession`: build a session and pass ``session=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..network.demands import TrafficMatrix
from ..network.graph import Network
from ..obs import telemetry
from ..scenarios.scenario import Scenario
from .controller import ControllerMeasurement, ControllerUpdate, TEController
from .events import NetworkEvent, failure_recovery_trace
from .session import ControllerSession


@dataclass
class OutageRow:
    """The sustained measurement of one outage in the trace.

    ``mlu`` (and friends) come from the *last* sample inside the outage
    window: the final failure event without a policy, the post-
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
    """Everything a failure/recovery trace replay produced."""

    controller: TEController
    baseline: ControllerMeasurement
    final: ControllerMeasurement
    outages: list[OutageRow]
    timeline: list[tuple[float, str, ControllerMeasurement]]
    processed_events: int
    elapsed: float = 0.0
    samples: list[ControllerUpdate] = field(default_factory=list)
    #: The attached policy (``None`` for a plain replay); its ``decisions``
    #: carry per-reoptimization before/after MLU.
    policy: object | None = None
    #: The session the replay drove (timeline/rows/subscriptions live here).
    session: ControllerSession | None = None

    @property
    def worst(self) -> OutageRow | None:
        """The outage with the highest sustained MLU (``None`` on an empty trace)."""
        return max(self.outages, key=lambda row: row.mlu, default=None)

    @property
    def reoptimizations(self) -> int:
        return len(getattr(self.policy, "decisions", ()))


def outage_rows(
    timeline: Sequence[tuple[float, str, ControllerMeasurement]],
    scenarios: Sequence[Scenario],
    period: float,
    outage: float,
) -> list[OutageRow]:
    """Summarise a replay timeline into one sustained row per outage window."""
    rows: list[OutageRow] = []
    for index, scenario in enumerate(scenarios):
        down, up = index * period, index * period + outage
        window = [
            (when, kind, measurement)
            for when, kind, measurement in timeline
            if down <= when < up and kind in ("link-failure", "reoptimize")
        ]
        if not window:
            continue
        _, _, measurement = window[-1]
        if telemetry.enabled():
            # Sustained MLU: what each outage actually ran at until repair.
            telemetry.observe(
                "replay.sustained_mlu",
                measurement.mlu,
                edges=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0),
            )
        rows.append(
            OutageRow(
                scenario_id=scenario.scenario_id,
                time=down,
                mlu=measurement.mlu,
                utility=measurement.utility,
                routed_volume=measurement.routed_volume,
                dropped_volume=measurement.dropped_volume,
                connected=measurement.connected,
                reoptimizations=sum(1 for _, kind, _m in window if kind == "reoptimize"),
            )
        )
    return rows


def replay_event_trace(
    session: ControllerSession, events: Sequence[NetworkEvent]
) -> ReplayResult:
    """Replay an arbitrary event trace through a session (no outage windows).

    The batch counterpart of feeding the same trace over the serve socket:
    events run in simulated-time order on a discrete-event simulator, every
    sample lands on the session timeline, and the result's
    ``session.event_rows()`` are the records ``repro replay --trace-file``
    stores (and the serve soak run must match bit-for-bit).
    """
    processed, elapsed = session.replay(events)
    return ReplayResult(
        controller=session.controller,
        baseline=session.baseline,
        final=session.controller.measure(),
        outages=[],
        timeline=session.timeline,
        processed_events=processed,
        elapsed=elapsed,
        samples=session.samples,
        policy=session.policy,
        session=session,
    )


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
    """Replay ``scenarios`` as a timed fail → repair trace and sample MLU.

    Each scenario fails at ``i * period`` and heals ``outage`` seconds
    later; the controller absorbs every directed-link event incrementally
    and the MLU timeline is sampled after each one.  With a ``policy``
    (:class:`~repro.online.policy.ClosedLoopPolicy` /
    :class:`~repro.online.policy.OraclePolicy`) each triggered
    reoptimization is sampled into the timeline too.  The per-outage rows
    report the last sample inside each outage window — the sustained state
    the network actually ran in until repair.

    Pass a prebuilt :class:`ControllerSession` (``session=``) to control
    the controller's construction (tolerance, custom weights).
    """
    if session is None:
        session = ControllerSession(network, demands, policy=policy)
    elif policy is not None and session.policy is not policy:
        raise ValueError("pass the policy on the ControllerSession, not alongside session=")
    trace = failure_recovery_trace(network, scenarios, period=period, outage=outage)
    processed, elapsed = session.replay(trace)
    return ReplayResult(
        controller=session.controller,
        baseline=session.baseline,
        final=session.controller.measure(),
        outages=outage_rows(session.timeline, scenarios, period, outage),
        timeline=session.timeline,
        processed_events=processed,
        elapsed=elapsed,
        samples=session.samples,
        policy=session.policy,
        session=session,
    )
