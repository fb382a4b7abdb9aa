"""Profiling views over a telemetry registry: standard formats + store records.

:mod:`repro.obs.telemetry` records *what happened*; this module turns a
registry (live or re-imported from a ``trace.jsonl``) into the artifacts a
performance investigation actually consumes:

* :func:`collapsed_stacks` / :func:`write_flamegraph` — the collapsed-stack
  text format (``frame;frame;frame value``) read by speedscope,
  ``flamegraph.pl`` and every modern flamegraph viewer.  Values are
  integer microseconds of *self* time, so the flame widths sum correctly
  without double-counting nested spans.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON (``"X"`` complete events) loadable in Perfetto /
  ``chrome://tracing``; merged worker registries render as separate named
  tracks via their ``worker`` span tags.
* :func:`load_trace` — re-import a ``trace.jsonl`` (schema 1 or 2) into a
  :class:`~repro.obs.telemetry.TelemetryRegistry`; re-exporting a loaded
  schema-2 trace is byte-identical, because the derived ``span_stats`` /
  ``span_tree`` lines are recomputed from the span lines.
* :func:`profile_records` — per-span-name timing aggregates shaped as
  results-store records (``scenario="__profile__"``), the persistence
  layer under ``repro results plot`` span trends and the ``repro results
  perf`` regression gate.
"""

from __future__ import annotations

import json
from pathlib import Path

from .telemetry import Histogram, Span, TelemetryRegistry

__all__ = [
    "chrome_trace",
    "collapsed_stacks",
    "load_trace",
    "profile_records",
    "write_chrome_trace",
    "write_flamegraph",
]

#: Reserved record identity for per-span timing aggregates in the store.
PROFILE_SCENARIO = "__profile__"


# ----------------------------------------------------------------------
# collapsed stacks (flamegraph.pl / speedscope)
# ----------------------------------------------------------------------
def collapsed_stacks(registry: TelemetryRegistry) -> dict[str, int]:
    """``{"root;child;leaf": self-time µs}`` over the registry's span tree.

    Stacks from merged worker registries are rooted under their worker
    label (``worker-3;runner.chunk;...``) so per-worker time stays
    attributable.  Zero-valued stacks are dropped — a microsecond-granular
    flamegraph has nothing to draw for them.
    """
    selfs = registry.self_times()
    by_id = {record.span_id: record for record in registry.spans}
    paths: dict[int, str] = {}

    def path_of(record: Span) -> str:
        cached = paths.get(record.span_id)
        if cached is not None:
            return cached
        if record.parent_id is not None and record.parent_id in by_id:
            path = path_of(by_id[record.parent_id]) + ";" + record.name
        else:
            worker = record.tags.get("worker", "")
            path = f"{worker};{record.name}" if worker else record.name
        paths[record.span_id] = path
        return path

    stacks: dict[str, int] = {}
    for record in registry.spans:
        micros = int(round(selfs[record.span_id] * 1e6))
        if micros <= 0:
            continue
        path = path_of(record)
        stacks[path] = stacks.get(path, 0) + micros
    return stacks


def write_flamegraph(
    path: str | Path, registry: TelemetryRegistry
) -> int:
    """Write the registry as a collapsed-stack file; returns the line count."""
    stacks = collapsed_stacks(registry)
    text = "".join(f"{stack} {stacks[stack]}\n" for stack in sorted(stacks))
    Path(path).write_text(text, encoding="utf-8", newline="\n")
    return len(stacks)


# ----------------------------------------------------------------------
# Chrome trace-event format (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace(registry: TelemetryRegistry) -> dict[str, object]:
    """The registry as a Chrome trace-event JSON object.

    Every span becomes one ``"X"`` (complete) event with microsecond
    ``ts``/``dur``; spans from merged worker snapshots land on their own
    ``tid`` (named after the ``worker`` tag via ``"M"`` thread-name
    metadata events), so a parallel sweep renders as parallel tracks.
    """
    labels = sorted({record.tags.get("worker", "") for record in registry.spans})
    if "" not in labels:
        labels.insert(0, "")
    tids = {label: position for position, label in enumerate(labels)}
    events: list[dict[str, object]] = [
        {
            "args": {"name": label or "main"},
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
        }
        for label, tid in tids.items()
    ]
    for record in registry.spans:
        args: dict[str, object] = {
            key: value for key, value in record.tags.items() if key != "worker"
        }
        if record.error is not None:
            args["error"] = record.error
        if record.alloc is not None:
            args["alloc_bytes"] = record.alloc
        if record.peak is not None:
            args["peak_bytes"] = record.peak
        events.append(
            {
                "args": args,
                "cat": "span",
                "dur": round(record.wall * 1e6, 3),
                "name": record.name,
                "ph": "X",
                "pid": 0,
                "tid": tids[record.tags.get("worker", "")],
                "ts": round(record.start * 1e6, 3),
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(
    path: str | Path, registry: TelemetryRegistry
) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    payload = chrome_trace(registry)
    Path(path).write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    return len(payload["traceEvents"])  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# trace import
# ----------------------------------------------------------------------
def load_trace(path: str | Path) -> TelemetryRegistry:
    """Rebuild a registry from a ``trace.jsonl`` file (schema 1 or 2).

    Derived lines (``span_stats``, ``span_tree``, per-span ``self``) are
    skipped on read and recomputed on demand, so loading a schema-2 file
    and calling :meth:`~TelemetryRegistry.export_jsonl` again reproduces it
    byte-for-byte.  Unknown line types are ignored, which is what keeps
    older readers working across schema bumps.
    """
    registry = TelemetryRegistry()
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: not JSON: {exc}") from exc
            kind = record.get("type")
            if kind == "meta":
                registry.label = str(record.get("label", ""))
                registry.created_at = str(record.get("created_at", ""))
                registry.memory = bool(record.get("memory", False))
                if "peak_rss_kb" in record:
                    rss = record["peak_rss_kb"]
                    registry.peak_rss_kb = int(rss) if rss is not None else None
            elif kind == "span":
                parent = record.get("parent")
                alloc = record.get("alloc")
                peak = record.get("peak")
                registry.spans.append(
                    Span(
                        span_id=int(record["id"]),
                        parent_id=int(parent) if parent is not None else None,
                        depth=int(record.get("depth", 0)),
                        name=str(record["name"]),
                        tags={
                            str(k): str(v)
                            for k, v in dict(record.get("tags", {})).items()
                        },
                        start=float(record.get("start", 0.0)),
                        wall=float(record.get("wall", 0.0)),
                        cpu=float(record.get("cpu", 0.0)),
                        status=str(record.get("status", "ok")),
                        error=record.get("error"),
                        alloc=int(alloc) if alloc is not None else None,
                        peak=int(peak) if peak is not None else None,
                    )
                )
            elif kind == "counter":
                registry.count(
                    str(record["name"]),
                    float(record["value"]),
                    **dict(record.get("tags", {})),
                )
            elif kind == "histogram":
                incoming = Histogram(
                    edges=tuple(record["edges"]),
                    counts=list(record["counts"]),
                    count=int(record["count"]),
                    sum=float(record["sum"]),
                    min=record.get("min"),
                    max=record.get("max"),
                )
                name = str(record["name"])
                existing = registry.histograms.get(name)
                if existing is None:
                    registry.histograms[name] = incoming
                else:
                    existing.merge(incoming)
    return registry


# ----------------------------------------------------------------------
# results-store persistence
# ----------------------------------------------------------------------
def profile_records(
    registry: TelemetryRegistry | None, topology: str
) -> list[dict[str, object]]:
    """Per-span-name timing aggregates as results-store records.

    One record per span name under the reserved identity
    ``scenario="__profile__"`` (``workload`` carries the span name so the
    store's identity columns pair records across runs).  All value fields
    end in ``_seconds``, which classifies them as *timing* in
    :func:`repro.results.diffing.classify_field` — ``repro results diff``
    never hard-gates on them; the statistical gate in
    :mod:`repro.results.perf` is the tool that judges these numbers.
    Returns ``[]`` when telemetry is off or recorded no spans.
    """
    if registry is None or not registry.spans:
        return []
    records: list[dict[str, object]] = []
    for stats in registry.span_stats():
        records.append(
            {
                "scenario": PROFILE_SCENARIO,
                "kind": "profile",
                "protocol": "*",
                "topology": topology,
                "workload": stats["name"],
                "span": stats["name"],
                "count": stats["count"],
                "wall_seconds": stats["wall"],
                "cpu_seconds": stats["cpu"],
                "self_seconds": stats["self"],
                "self_p50_seconds": stats["self_p50"],
                "self_p95_seconds": stats["self_p95"],
                "self_max_seconds": stats["self_max"],
            }
        )
    return records
