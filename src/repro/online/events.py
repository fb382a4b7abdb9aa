"""Network events: the input language of the online TE controller.

The scenario engine describes *what-if* perturbations declaratively and
applies them from scratch; a running network instead emits a *stream* of
small state changes — a fibre cut, the cut repaired, a LAG member lost, a
demand drifting.  This module defines that stream's vocabulary:

* :class:`LinkFailure` / :class:`LinkRecovery` — a directed link leaves or
  rejoins the topology;
* :class:`LinkWeightChange` — an operator (or an optimizer) reconfigures one
  link weight;
* :class:`CapacityChange` — the usable capacity of a link changes (brown-out
  or upgrade); forwarding state is untouched, only utilization shifts;
* :class:`DemandUpdate` — the offered volume of one source-destination pair
  is set to a new value (0 removes the pair).

Events are frozen dataclasses with a ``time`` stamp so they can be replayed
through the discrete-event :class:`~repro.simulator.events.Simulator` (see
:meth:`~repro.online.session.ControllerSession.replay`), logged, and compared.
Converters translate the scenario engine's declarative perturbations into
event streams: :func:`scenario_events` expands *any* topology-perturbing
:class:`~repro.scenarios.scenario.Scenario` — link/node failures, capacity
brown-outs, and their combinations — into per-link events, and
:func:`failure_recovery_trace` turns a sweep of pure failures into a timed
fail → measure → repair trace of those events.

The capacity conversion pins the scenario algebra's semantics: duplicate
edges in ``capacity_factors`` merge multiplicatively (exactly as
:meth:`Scenario.apply` merges them), positive scaled capacities become
:class:`CapacityChange` events, and a scaled capacity of zero (or below) is
an explicit :class:`LinkFailure` — the same "factor 0 removes the link"
rule the cold path applies, so the incremental and from-scratch evaluations
of one scenario can never disagree about what a dead link means.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Sequence

from ..network.graph import Edge, Network, Node
from ..scenarios.scenario import Scenario

#: Version of the JSON event/frame vocabulary (trace files and the serve
#: protocol share it; see :func:`to_dict` / :func:`from_dict`).
WIRE_VERSION = 1


class EventError(ValueError):
    """Raised for malformed events (unknown links, negative volumes, ...)."""


class TraceFormatError(EventError):
    """A JSON-lines event trace contained an unparseable line.

    Always carries the source and 1-based line number (``trace.jsonl:3:
    ...``) so malformed input is a *hard, locatable* error — never a
    silently skipped line — on both the batch replay and serve ingest
    paths.
    """


@dataclass(frozen=True)
class NetworkEvent:
    """Base class of all online events.

    ``time`` is the (simulated or wall-clock) timestamp; the controller does
    not interpret it, but a session replay schedules on it and the
    :class:`~repro.online.controller.ControllerUpdate` it returns keeps it.
    """

    time: float = 0.0

    @property
    def kind(self) -> str:
        """Short event-family name used in logs (``"link-failure"`` etc.)."""
        return _KIND_BY_TYPE.get(type(self), type(self).__name__)


@dataclass(frozen=True)
class LinkFailure(NetworkEvent):
    """A directed link goes down (removed from every shortest-path DAG)."""

    link: Edge = ("", "")


@dataclass(frozen=True)
class LinkRecovery(NetworkEvent):
    """A previously failed directed link comes back at its configured weight."""

    link: Edge = ("", "")


@dataclass(frozen=True)
class LinkWeightChange(NetworkEvent):
    """One link's routing weight is reconfigured to ``weight``."""

    link: Edge = ("", "")
    weight: float = 1.0


@dataclass(frozen=True)
class CapacityChange(NetworkEvent):
    """One link's usable capacity becomes ``capacity`` (same demand units)."""

    link: Edge = ("", "")
    capacity: float = 1.0


@dataclass(frozen=True)
class DemandUpdate(NetworkEvent):
    """The offered volume of pair ``(source, target)`` is set to ``volume``."""

    source: Node = ""
    target: Node = ""
    volume: float = 0.0


_KIND_BY_TYPE = {
    NetworkEvent: "noop",
    LinkFailure: "link-failure",
    LinkRecovery: "link-recovery",
    LinkWeightChange: "weight-change",
    CapacityChange: "capacity-change",
    DemandUpdate: "demand-update",
}

_TYPE_BY_KIND = {kind: type_ for type_, kind in _KIND_BY_TYPE.items()}


# ----------------------------------------------------------------------
# wire schema (version 1): one JSON object per event
# ----------------------------------------------------------------------
#: Per-kind payload fields beyond ``v``/``event``/``time``.
_WIRE_FIELDS = {
    "noop": (),
    "link-failure": ("link",),
    "link-recovery": ("link",),
    "weight-change": ("link", "weight"),
    "capacity-change": ("link", "capacity"),
    "demand-update": ("source", "target", "volume"),
}


def to_dict(event: NetworkEvent) -> dict[str, object]:
    """Serialise one event as its wire-schema (version 1) JSON object.

    The inverse of :func:`from_dict`; the same vocabulary is used for
    JSON-lines trace files (``repro replay --export-trace``) and the event
    frames of the serve protocol (:mod:`repro.serve.wire`), so every
    producer and consumer of events shares one constructor pair.
    """
    kind = event.kind
    if kind not in _WIRE_FIELDS:
        raise EventError(f"cannot serialise event kind {kind!r}")
    payload: dict[str, object] = {"v": WIRE_VERSION, "event": kind, "time": event.time}
    for field in _WIRE_FIELDS[kind]:
        value = getattr(event, field)
        payload[field] = list(value) if field == "link" else value
    return payload


def _wire_node(payload: dict[str, object], field: str, context: str) -> Node:
    value = payload[field]
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise EventError(f"{context}: field {field!r} must be a node name, got {value!r}")
    return value


def _wire_number(payload: dict[str, object], field: str, context: str) -> float:
    value = payload[field]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise EventError(f"{context}: field {field!r} must be a number, got {value!r}")
    return float(value)


def from_dict(payload: object) -> NetworkEvent:
    """Build the event a wire-schema JSON object describes.

    Validation is strict — unknown kinds, missing or extra fields, and
    non-numeric values all raise :class:`EventError` — because this is the
    single parse point for trace files and the live serve socket: bad
    input must fail loudly at the boundary, never half-apply.
    """
    if not isinstance(payload, dict):
        raise EventError(f"event payload must be a JSON object, got {type(payload).__name__}")
    version = payload.get("v", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise EventError(f"unsupported wire version {version!r} (supported: {WIRE_VERSION})")
    kind = payload.get("event")
    if kind not in _WIRE_FIELDS:
        known = ", ".join(sorted(_WIRE_FIELDS))
        raise EventError(f"unknown event kind {kind!r} (known: {known})")
    context = f"event {kind!r}"
    allowed = {"v", "event", "time", *_WIRE_FIELDS[kind]}
    extra = sorted(set(payload) - allowed)
    if extra:
        raise EventError(f"{context}: unexpected field(s) {', '.join(map(repr, extra))}")
    missing = sorted(set(_WIRE_FIELDS[kind]) - set(payload))
    if missing:
        raise EventError(f"{context}: missing field(s) {', '.join(map(repr, missing))}")
    kwargs: dict[str, object] = {}
    if "time" in payload:
        kwargs["time"] = _wire_number(payload, "time", context)
    for field in _WIRE_FIELDS[kind]:
        if field == "link":
            link = payload["link"]
            if (
                not isinstance(link, (list, tuple))
                or len(link) != 2
                or any(not isinstance(end, (str, int)) or isinstance(end, bool) for end in link)
            ):
                raise EventError(f"{context}: field 'link' must be a [source, target] pair")
            kwargs["link"] = (link[0], link[1])
        elif field in ("source", "target"):
            kwargs[field] = _wire_node(payload, field, context)
        else:
            kwargs[field] = _wire_number(payload, field, context)
    return _TYPE_BY_KIND[kind](**kwargs)


def parse_event_line(line: str, lineno: int, source: str = "<trace>") -> NetworkEvent:
    """Parse one JSON-lines trace line, locating errors as ``source:lineno``."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{source}:{lineno}: invalid JSON: {exc.msg}") from None
    try:
        return from_dict(payload)
    except EventError as exc:
        raise TraceFormatError(f"{source}:{lineno}: {exc}") from None


def read_event_trace(path: str | Path) -> list[NetworkEvent]:
    """Read a JSON-lines event trace, failing hard on any malformed line.

    Blank lines are allowed (and skipped); everything else must parse as a
    wire-schema event or the whole read raises :class:`TraceFormatError`
    with the offending line number.  Shared by ``repro replay
    --trace-file`` and ``repro serve --replay-trace`` so both ingest paths
    reject the same inputs identically.
    """
    path = Path(path)
    events: list[NetworkEvent] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            events.append(parse_event_line(line, lineno, source=str(path)))
    if not events:
        raise TraceFormatError(f"{path}:1: trace contains no events")
    return events


def write_event_trace(path: str | Path, events: Iterable[NetworkEvent]) -> int:
    """Write events as a JSON-lines trace (sorted keys: byte-stable); returns the line count."""
    lines = [json.dumps(to_dict(event), sort_keys=True) for event in events]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return len(lines)


# ----------------------------------------------------------------------
# scenario conversion
# ----------------------------------------------------------------------
def is_pure_failure(scenario: Scenario) -> bool:
    """True when ``scenario`` only removes links (directly or via nodes).

    Pure-failure scenarios are exactly the ones the online controller can
    replay as :class:`LinkFailure` events and later revert with
    :class:`LinkRecovery`; capacity factors and demand perturbations need the
    scenario engine's from-scratch ``apply``.
    """
    return bool(
        (scenario.failed_links or scenario.failed_nodes)
        and not scenario.capacity_factors
        and scenario.demand_scale == 1.0
        and not scenario.demand_factors
    )


def scenario_failed_edges(network: Network, scenario: Scenario) -> list[Edge]:
    """The directed links a pure-failure scenario removes, in link order.

    Node failures expand to every incident link (both directions), matching
    :meth:`Scenario.apply`.  Unknown links or nodes raise :class:`EventError`
    so a scenario built for a different topology fails loudly.
    """
    for edge in scenario.failed_links:
        if not network.has_link(*edge):
            raise EventError(f"scenario {scenario.scenario_id!r}: unknown link {edge}")
    for node in scenario.failed_nodes:
        if not network.has_node(node):
            raise EventError(f"scenario {scenario.scenario_id!r}: unknown node {node!r}")
    removed = set(scenario.failed_links)
    dead = set(scenario.failed_nodes)
    return [
        link.endpoints
        for link in network.links
        if link.endpoints in removed or link.source in dead or link.target in dead
    ]


def is_incremental_sweepable(scenario: Scenario) -> bool:
    """True when ``scenario`` perturbs only the topology, not the demands.

    These are exactly the scenarios :func:`scenario_events` can express as a
    stream of :class:`LinkFailure` / :class:`CapacityChange` events and the
    online controller can therefore replay (and revert) incrementally:
    failures, capacity brown-outs, and mixed failure+capacity scenarios.
    Demand perturbations change what enters the network rather than the
    network itself and keep the scenario engine's from-scratch ``apply``.
    """
    return bool(
        (scenario.failed_links or scenario.failed_nodes or scenario.capacity_factors)
        and scenario.demand_scale == 1.0
        and not scenario.demand_factors
    )


def scenario_events(
    network: Network, scenario: Scenario, time: float = 0.0
) -> list[NetworkEvent]:
    """Expand a topology-perturbing scenario into controller events.

    Failed links (and every link incident to a failed node) become
    :class:`LinkFailure` events; capacity factors become
    :class:`CapacityChange` events carrying the *scaled* capacity
    (``link.capacity * merged factor``) — except factors whose scaled
    capacity is zero or below, which become :class:`LinkFailure` too,
    matching :meth:`Scenario.apply`'s cold semantics exactly.  A link both
    failed and capacity-scaled just fails (the cold path removes it before
    looking at factors).  Events come out in the base network's link order,
    failures first, so applying them is deterministic.

    Raises :class:`EventError` for demand-perturbing scenarios and for
    links/nodes the network does not have (a scenario built for a different
    topology must fail loudly, not half-apply).
    """
    if not is_incremental_sweepable(scenario):
        raise EventError(
            f"scenario {scenario.scenario_id!r} perturbs demands (or nothing): "
            "not expressible as link events"
        )
    # Scenario.merged_capacity_factors is the single source of truth for
    # duplicate-edge composition, shared with the cold `apply` path.
    factors = scenario.merged_capacity_factors()
    for edge in factors:
        if not network.has_link(*edge):
            raise EventError(f"scenario {scenario.scenario_id!r}: unknown link {edge}")
    failed = set(scenario_failed_edges(network, scenario))
    failures: list[NetworkEvent] = []
    capacities: list[NetworkEvent] = []
    for link in network.links:
        edge = link.endpoints
        if edge in failed:
            failures.append(LinkFailure(time=time, link=edge))
            continue
        if edge not in factors:
            continue
        scaled = link.capacity * factors[edge]
        if scaled <= 0:
            # Factor-0 brown-outs are failures on both evaluation paths.
            failures.append(LinkFailure(time=time, link=edge))
        else:
            capacities.append(CapacityChange(time=time, link=edge, capacity=scaled))
    return failures + capacities


def failure_recovery_trace(
    network: Network,
    scenarios: Sequence[Scenario],
    period: float = 10.0,
    outage: float = 5.0,
    start: float = 0.0,
) -> list[NetworkEvent]:
    """A timed fail → repair trace cycling through ``scenarios``.

    Scenario ``i`` fails at ``start + i * period`` and recovers ``outage``
    later, so at most one scenario is down at a time when
    ``outage <= period``.  The trace is what a session replay runs (see
    ``examples/online_controller.py``).
    """
    if period <= 0 or outage <= 0:
        raise EventError("period and outage must be positive")
    trace: list[NetworkEvent] = []
    for index, scenario in enumerate(scenarios):
        if not is_pure_failure(scenario):
            raise EventError(
                f"scenario {scenario.scenario_id!r} is not a pure link/node failure"
            )
        down = start + index * period
        failures = scenario_events(network, scenario, time=down)
        trace.extend(failures)
        # A pure failure expands to LinkFailure events only.
        trace.extend(
            LinkRecovery(time=down + outage, link=event.link)
            for event in failures
            if isinstance(event, LinkFailure)
        )
    return trace
