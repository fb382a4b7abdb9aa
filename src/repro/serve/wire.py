"""The serve protocol: versioned JSON-lines frames over a TCP socket.

One request frame per line, one response frame per line, both plain JSON
objects.  The *event* vocabulary is not redefined here — event payloads
are exactly the wire-schema dicts of :func:`repro.online.events.to_dict` /
:func:`~repro.online.events.from_dict`, the same objects trace files hold,
so every producer of events (scenario converters, trace exports, live
clients) speaks one language.

Request frames (``"session"`` is optional when the server hosts exactly
one session; its value is the session key — the topology name, the way
the results store keys runs)::

    {"v": 1, "type": "event",   "session": "abilene", "event": {...}}
    {"v": 1, "type": "query",   "query": "mlu" | "status" | "counters"
                                        | "sessions" | "forwarding",
                                "destination": "..."}          # forwarding only
    {"v": 1, "type": "control", "action": "dump" | "reoptimize" | "shutdown"}

Response frames::

    {"v": 1, "ok": true,  "result": {...}}
    {"v": 1, "ok": false, "error": "message"}

A malformed frame (bad JSON, wrong version, unknown type/query/action,
invalid event payload) produces an ``ok: false`` response and leaves the
connection open — one bad client frame must never take down the feed.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from ..online.events import EventError, NetworkEvent, from_dict

#: Version of the serve frame protocol (bumped independently of the event
#: vocabulary, though both are 1 today).
PROTOCOL_VERSION = 1

QUERIES = ("mlu", "status", "counters", "forwarding", "sessions")
CONTROLS = ("dump", "reoptimize", "shutdown")

#: Upper bound on one frame line; longer lines are rejected, not buffered.
MAX_FRAME_BYTES = 1 << 20


class WireError(ValueError):
    """Raised for malformed frames (reported to the client, never fatal)."""


class Frame:
    """One validated request frame."""

    __slots__ = ("type", "session", "event", "query", "destination", "action")

    def __init__(
        self,
        type: str,
        session: str | None = None,
        event: NetworkEvent | None = None,
        query: str | None = None,
        destination: str | None = None,
        action: str | None = None,
    ) -> None:
        self.type = type
        self.session = session
        self.event = event
        self.query = query
        self.destination = destination
        self.action = action


def parse_frame(line: bytes) -> Frame:
    """Parse and validate one request line into a :class:`Frame`.

    Raises :class:`WireError` with a client-presentable message on any
    malformed input; event payloads are validated by the shared
    :func:`repro.online.events.from_dict` so the socket rejects exactly
    what a trace file read would reject.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"invalid JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise WireError(f"frame must be a JSON object, got {type(payload).__name__}")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise WireError(
            f"unsupported protocol version {version!r} (supported: {PROTOCOL_VERSION})"
        )
    kind = payload.get("type")
    session = payload.get("session")
    if session is not None and not isinstance(session, str):
        raise WireError("'session' must be a string")
    if kind == "event":
        if "event" not in payload:
            raise WireError("event frame is missing its 'event' payload")
        try:
            event = from_dict(payload["event"])
        except EventError as exc:
            raise WireError(str(exc)) from None
        return Frame(type="event", session=session, event=event)
    if kind == "query":
        query = payload.get("query")
        if query not in QUERIES:
            raise WireError(
                f"unknown query {query!r} (known: {', '.join(QUERIES)})"
            )
        destination = payload.get("destination")
        if query == "forwarding" and destination is None:
            raise WireError("forwarding query requires a 'destination'")
        return Frame(type="query", session=session, query=query, destination=destination)
    if kind == "control":
        action = payload.get("action")
        if action not in CONTROLS:
            raise WireError(
                f"unknown control action {action!r} (known: {', '.join(CONTROLS)})"
            )
        return Frame(type="control", session=session, action=action)
    raise WireError(f"unknown frame type {kind!r} (known: event, query, control)")


def sanitize(value: object) -> object:
    """Replace non-finite floats with their string names, recursively.

    ``json.dumps`` would otherwise emit bare ``Infinity``/``NaN`` tokens —
    Python parses them back, but they are invalid JSON for jq/JSON.parse
    and every strict consumer.  Wire frames, ``--json`` output, results
    store records and exported views all go through this one function, so
    an infeasible cell (``mlu = inf``) persists as the string
    ``"Infinity"`` (or ``"-Infinity"`` / ``"NaN"``), which also compares
    exactly in diffs.  Tuples become lists, as JSON has no tuple.
    """
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return value
    if isinstance(value, Mapping):
        return {key: sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return value


def desanitize(value: object) -> object:
    """The inverse of :func:`sanitize`: decode non-finite float markers.

    Strict JSON cannot carry ``inf``/``nan``, so the protocol encodes them
    as the strings ``"Infinity"``/``"-Infinity"``/``"NaN"``; clients decode
    them back so numbers round-trip bit-for-bit (no result field ever
    legitimately holds one of these strings).
    """
    if value == "NaN":
        return float("nan")
    if value == "Infinity":
        return float("inf")
    if value == "-Infinity":
        return float("-inf")
    if isinstance(value, Mapping):
        return {key: desanitize(item) for key, item in value.items()}
    if isinstance(value, list):
        return [desanitize(item) for item in value]
    return value


def ok_frame(result: Mapping[str, object]) -> bytes:
    """Serialise a success response (sorted keys: deterministic bytes)."""
    payload = {"v": PROTOCOL_VERSION, "ok": True, "result": sanitize(result)}
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def error_frame(message: str) -> bytes:
    """Serialise an error response."""
    payload = {"v": PROTOCOL_VERSION, "ok": False, "error": message}
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def dumps_state(dump: Mapping[str, object]) -> str:
    """The byte-stable state-dump serialisation (same state ⇒ same bytes)."""
    return json.dumps(sanitize(dump), indent=2, sort_keys=True) + "\n"


def dumps_state_file(dumps: dict[str, Mapping[str, object]]) -> str:
    """Serialise the shutdown dump of every session, keyed and sorted."""
    return json.dumps(
        {key: sanitize(dump) for key, dump in sorted(dumps.items())},
        indent=2,
        sort_keys=True,
    ) + "\n"
