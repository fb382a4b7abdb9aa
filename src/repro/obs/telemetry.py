"""Dependency-light telemetry: spans, counters, histograms, jsonl traces.

The observability layer answers one question for every scaling item on the
roadmap: *where do time and fallbacks actually go?*  It is deliberately
small — stdlib only, one module — and deliberately cheap: when no registry
is active (the default), every instrumentation call is a dictionary-free
no-op, so the hot paths pay a single ``is None`` check.

Concepts
--------
* **Span** — one timed region with monotonic wall time
  (:func:`time.perf_counter`) and CPU time (:func:`time.process_time`),
  free-form string tags, and exception capture: a span that exits through
  an exception is recorded with ``status="error"`` and the exception text,
  and the exception is re-raised.  Spans nest through a per-registry stack,
  so each records its parent id and depth.
* **Counter** — a named monotonically accumulated number, keyed by name
  plus a (sorted) tag set: ``count("controller.event", kind="link-failure")``.
* **Histogram** — fixed-bucket value distribution.  Bucket *i* counts
  values ``value <= edges[i]`` (first matching edge); values above the
  last edge land in an overflow bucket.  Count/sum/min/max ride along so
  means survive merging.
* **TelemetryRegistry** — the in-process collection of all three, with a
  picklable :meth:`~TelemetryRegistry.snapshot` and a
  :meth:`~TelemetryRegistry.merge` so worker processes can ship their
  registries back to the parent (span ids are offset-remapped, counters
  and histogram buckets are summed).

Trace schema (``trace.jsonl``)
------------------------------
One JSON object per line, ``sort_keys=True`` throughout, so exporting the
same registry twice yields byte-identical files.  Schema 2 (current;
schema-1 files remain importable via
:func:`repro.obs.profiling.load_trace`):

* ``{"type": "meta", "label": ..., "created_at": ..., "schema": 2}`` —
  first line, stamped once at registry creation.  Registries created with
  ``memory=True`` also carry ``"memory": true`` and ``"peak_rss_kb"`` (the
  process peak RSS frozen at the first export/finalize).
* ``{"type": "span", "id": ..., "parent": ..., "depth": ..., "name": ...,
  "tags": {...}, "start": ..., "wall": ..., "cpu": ..., "self": ...,
  "status": "ok"|"error", "error": ...}`` — ``start`` is seconds since the
  registry was created; ``wall``/``cpu`` are durations in seconds;
  ``self`` is the span's *self time* (wall minus direct children's wall,
  clamped at zero).  Memory-tracked spans additionally carry ``alloc``
  (net bytes allocated over the span) and ``peak`` (peak traced bytes
  above the span's entry level).
* ``{"type": "span_stats", "name": ..., "count": ..., "wall": ...,
  "cpu": ..., "self": ..., "self_p50": ..., "self_p95": ...,
  "self_max": ...}`` — per-span-name aggregates (nearest-rank
  percentiles over self time); sorted by name.
* ``{"type": "span_tree", "path": "a;b;c", "count": ..., "wall": ...,
  "self": ...}`` — call-tree aggregation keyed by the ``;``-joined span
  name path from the root; sorted by path.
* ``{"type": "counter", "name": ..., "tags": {...}, "value": ...}`` —
  sorted by (name, tags).
* ``{"type": "histogram", "name": ..., "edges": [...], "counts": [...],
  "count": ..., "sum": ..., "min": ..., "max": ...}`` — ``counts`` has
  ``len(edges) + 1`` entries (the last is the overflow bucket); sorted by
  name.

``span_stats`` and ``span_tree`` lines are *derived* — importers rebuild
them from the span lines, which is what keeps a load → re-export round
trip byte-identical.

Usage
-----
>>> from repro.obs import telemetry
>>> with telemetry.session("demo") as registry:
...     with telemetry.span("outer", kind="example"):
...         telemetry.count("widgets", 3)
...         telemetry.observe("sizes", 0.25, edges=(0.1, 0.5, 1.0))
>>> registry.counter_value("widgets")
3.0

Outside a :func:`session` (or an explicit :func:`activate`), the same
calls do nothing and cost almost nothing.
"""

from __future__ import annotations

import io
import json
import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence

__all__ = [
    "Span",
    "Histogram",
    "TelemetryRegistry",
    "activate",
    "deactivate",
    "enabled",
    "get",
    "session",
    "span",
    "count",
    "observe",
    "DEFAULT_FRACTION_EDGES",
]

#: Default bucket edges for fraction-valued histograms (e.g. the affected
#: cone as a fraction of reachable nodes).  Dense at the low end, where the
#: incremental path wins, because that is where tuning decisions live.
DEFAULT_FRACTION_EDGES: tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0,
)

TagsKey = tuple[tuple[str, str], ...]


def _tags_key(tags: Mapping[str, object]) -> TagsKey:
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


@dataclass
class Span:
    """One completed (or still-open) timed region."""

    span_id: int
    parent_id: int | None
    depth: int
    name: str
    tags: dict[str, str]
    start: float  # seconds since the registry epoch
    wall: float = 0.0
    cpu: float = 0.0
    status: str = "open"  # "open" | "ok" | "error"
    error: str | None = None
    alloc: int | None = None  # net traced bytes (memory-tracked registries)
    peak: int | None = None  # peak traced bytes above entry level

    def as_record(self) -> dict[str, object]:
        record: dict[str, object] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "tags": self.tags,
            "start": round(self.start, 9),
            "wall": round(self.wall, 9),
            "cpu": round(self.cpu, 9),
            "status": self.status,
            "error": self.error,
        }
        if self.alloc is not None:
            record["alloc"] = self.alloc
        if self.peak is not None:
            record["peak"] = self.peak
        return record


@dataclass
class Histogram:
    """Fixed-bucket histogram: bucket *i* counts ``value <= edges[i]``.

    ``counts`` carries one extra overflow bucket for values above the last
    edge.  ``sum``/``min``/``max`` are exact over the observed values, so a
    merged histogram still reports an exact mean and range.
    """

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("histogram edges must be sorted ascending")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        for position, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[position] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: Histogram) -> None:
        if other.edges != self.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts, strict=True)]
        self.count += other.count
        self.sum += other.sum
        for bound, pick in (("min", min), ("max", max)):
            theirs = getattr(other, bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(self, bound, theirs if ours is None else pick(ours, theirs))

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def as_record(self, name: str) -> dict[str, object]:
        return {
            "type": "histogram",
            "name": name,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
        }


def _nearest_rank(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile over an ascending-sorted non-empty sequence."""
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class TelemetryRegistry:
    """In-process collection of spans, counters and histograms.

    ``memory=True`` additionally tracks per-span allocation via
    :mod:`tracemalloc` (started here if not already tracing, stopped again
    by :meth:`finalize`): each span records the net bytes allocated across
    it (``alloc``) and the peak traced size above its entry level
    (``peak``), with child peaks folded into their ancestors so a parent's
    peak covers its whole subtree.
    """

    def __init__(self, label: str = "", memory: bool = False) -> None:
        self.label = label
        self.created_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, TagsKey], float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.memory = bool(memory)
        self.peak_rss_kb: int | None = None
        self._stack: list[Span] = []
        self._wall_epoch = time.perf_counter()
        self._mem_base: dict[int, int] = {}
        self._mem_peaks: dict[int, int] = {}
        self._owns_tracemalloc = False
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **tags: object) -> Iterator[Span]:
        """Record a nested timed region; exceptions are captured, then re-raised."""
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=len(self.spans),
            parent_id=parent.span_id if parent else None,
            depth=parent.depth + 1 if parent else 0,
            name=name,
            tags={str(k): str(v) for k, v in tags.items()},
            start=time.perf_counter() - self._wall_epoch,
        )
        self.spans.append(record)
        self._stack.append(record)
        if self.memory:
            # tracemalloc's peak is global, so fold the running peak into
            # the parent's pending peak before resetting it for this span.
            current, interval_peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self._mem_peaks[parent.span_id] = max(
                    self._mem_peaks.get(parent.span_id, 0), interval_peak
                )
            tracemalloc.reset_peak()
            self._mem_base[record.span_id] = current
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield record
        except BaseException as exc:
            record.status = "error"
            record.error = f"{type(exc).__name__}: {exc}"
            raise
        else:
            record.status = "ok"
        finally:
            record.wall = time.perf_counter() - wall0
            record.cpu = time.process_time() - cpu0
            if self.memory:
                current, interval_peak = tracemalloc.get_traced_memory()
                base = self._mem_base.pop(record.span_id, 0)
                peak_abs = max(interval_peak, self._mem_peaks.pop(record.span_id, 0))
                record.alloc = current - base
                record.peak = max(0, peak_abs - base)
                if parent is not None:
                    self._mem_peaks[parent.span_id] = max(
                        self._mem_peaks.get(parent.span_id, 0), peak_abs
                    )
            self._stack.pop()

    def count(self, name: str, value: float = 1, **tags: object) -> None:
        """Add ``value`` to a named counter (tags distinguish sub-streams)."""
        key = (name, _tags_key(tags))
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: Sequence[float] = DEFAULT_FRACTION_EDGES,
    ) -> None:
        """Record one value into a named fixed-bucket histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(edges=tuple(edges))
        histogram.observe(value)

    # ------------------------------------------------------------------
    # aggregation / views
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **tags: object) -> float:
        if tags:
            return self.counters.get((name, _tags_key(tags)), 0.0)
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def counter_breakdown(self, name: str) -> dict[TagsKey, float]:
        return {t: v for (n, t), v in self.counters.items() if n == name}

    def self_times(self) -> dict[int, float]:
        """Per-span *self* wall time: own wall minus direct children's wall.

        Computed over the 9-decimal-rounded walls that the trace schema
        serialises, so re-deriving self times from an imported trace yields
        exactly the values the original registry exported.  Clamped at zero
        (float round-off can push a fully-delegating parent slightly
        negative).
        """
        child_wall: dict[int, float] = {}
        for record in self.spans:
            if record.parent_id is not None:
                child_wall[record.parent_id] = child_wall.get(
                    record.parent_id, 0.0
                ) + round(record.wall, 9)
        return {
            record.span_id: max(
                0.0, round(record.wall, 9) - child_wall.get(record.span_id, 0.0)
            )
            for record in self.spans
        }

    def span_stats(self) -> list[dict[str, object]]:
        """Per-span-name aggregates: count, wall/cpu/self totals, self percentiles.

        One ``span_stats`` record per distinct span name, sorted by name —
        exactly the derived lines :meth:`export_jsonl` writes.  Percentiles
        are nearest-rank over the per-occurrence self times (deterministic,
        no interpolation).
        """
        selfs = self.self_times()
        per_name: dict[str, list[Span]] = {}
        for record in self.spans:
            per_name.setdefault(record.name, []).append(record)
        stats: list[dict[str, object]] = []
        for name in sorted(per_name):
            records = per_name[name]
            self_values = sorted(selfs[record.span_id] for record in records)
            stats.append(
                {
                    "type": "span_stats",
                    "name": name,
                    "count": len(records),
                    "wall": round(sum(round(r.wall, 9) for r in records), 9),
                    "cpu": round(sum(round(r.cpu, 9) for r in records), 9),
                    "self": round(sum(self_values), 9),
                    "self_p50": round(_nearest_rank(self_values, 0.50), 9),
                    "self_p95": round(_nearest_rank(self_values, 0.95), 9),
                    "self_max": round(self_values[-1], 9),
                }
            )
        return stats

    def span_tree(self) -> list[dict[str, object]]:
        """Call-tree aggregation: one record per distinct root→span name path.

        Paths join span names with ``;`` (the collapsed-stack convention),
        aggregating every occurrence of the same path; sorted by path.
        """
        selfs = self.self_times()
        by_id = {record.span_id: record for record in self.spans}
        paths: dict[int, str] = {}

        def path_of(record: Span) -> str:
            cached = paths.get(record.span_id)
            if cached is not None:
                return cached
            if record.parent_id is not None and record.parent_id in by_id:
                path = path_of(by_id[record.parent_id]) + ";" + record.name
            else:
                path = record.name
            paths[record.span_id] = path
            return path

        aggregated: dict[str, list[float]] = {}
        for record in self.spans:
            entry = aggregated.setdefault(path_of(record), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += round(record.wall, 9)
            entry[2] += selfs[record.span_id]
        return [
            {
                "type": "span_tree",
                "path": path,
                "count": int(aggregated[path][0]),
                "wall": round(aggregated[path][1], 9),
                "self": round(aggregated[path][2], 9),
            }
            for path in sorted(aggregated)
        ]

    def finalize(self) -> None:
        """Stop owned memory tracing and freeze the process peak RSS.

        Idempotent; a no-op for registries created without ``memory=True``.
        Called automatically by :func:`deactivate`, :func:`session` exit and
        the first :meth:`export_jsonl`, so the exported ``peak_rss_kb`` is
        stable across repeated exports.
        """
        if not self.memory:
            return
        if self.peak_rss_kb is None:
            try:
                import resource

                self.peak_rss_kb = int(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                )
            except ImportError:  # pragma: no cover - non-POSIX platforms
                self.peak_rss_kb = 0
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False

    # ------------------------------------------------------------------
    # cross-process transport
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """A picklable dump of everything recorded so far."""
        return {
            "label": self.label,
            "spans": [span.as_record() for span in self.spans],
            "counters": [
                {"name": name, "tags": dict(tags), "value": value}
                for (name, tags), value in self.counters.items()
            ],
            "histograms": [
                histogram.as_record(name)
                for name, histogram in self.histograms.items()
            ],
        }

    def merge(self, payload: Mapping[str, object]) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Span ids are remapped past the current maximum, so merged traces
        keep globally unique ids and intact parent links; the spans gain a
        ``worker`` tag carrying the snapshot's label (when present).
        """
        offset = len(self.spans)
        label = str(payload.get("label") or "")
        for record in payload.get("spans", ()):  # type: ignore[union-attr]
            tags = dict(record.get("tags", {}))
            if label and "worker" not in tags:
                tags["worker"] = label
            parent = record.get("parent")
            alloc = record.get("alloc")
            peak = record.get("peak")
            self.spans.append(
                Span(
                    span_id=int(record["id"]) + offset,
                    parent_id=int(parent) + offset if parent is not None else None,
                    depth=int(record.get("depth", 0)),
                    name=str(record["name"]),
                    tags=tags,
                    start=float(record.get("start", 0.0)),
                    wall=float(record.get("wall", 0.0)),
                    cpu=float(record.get("cpu", 0.0)),
                    status=str(record.get("status", "ok")),
                    error=record.get("error"),  # type: ignore[arg-type]
                    alloc=int(alloc) if alloc is not None else None,  # type: ignore[arg-type]
                    peak=int(peak) if peak is not None else None,  # type: ignore[arg-type]
                )
            )
        for record in payload.get("counters", ()):  # type: ignore[union-attr]
            self.count(
                str(record["name"]),
                float(record["value"]),
                **dict(record.get("tags", {})),
            )
        for record in payload.get("histograms", ()):  # type: ignore[union-attr]
            incoming = Histogram(
                edges=tuple(record["edges"]),
                counts=list(record["counts"]),
                count=int(record["count"]),
                sum=float(record["sum"]),
                min=record.get("min"),  # type: ignore[arg-type]
                max=record.get("max"),  # type: ignore[arg-type]
            )
            name = str(record["name"])
            existing = self.histograms.get(name)
            if existing is None:
                self.histograms[name] = incoming
            else:
                existing.merge(incoming)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_jsonl(self, path: object) -> int:
        """Write the trace as JSON lines; returns the number of lines.

        Output ordering (meta, spans by id, span_stats by name, span_tree
        by path, counters sorted by name+tags, histograms sorted by name)
        and ``sort_keys=True`` make repeated exports of the same registry
        byte-identical.
        """
        self.finalize()
        buffer = io.StringIO()
        meta: dict[str, object] = {
            "type": "meta",
            "schema": 2,
            "label": self.label,
            "created_at": self.created_at,
        }
        if self.memory:
            meta["memory"] = True
            meta["peak_rss_kb"] = self.peak_rss_kb
        lines = 1
        buffer.write(json.dumps(meta, sort_keys=True) + "\n")
        selfs = self.self_times()
        for record in self.spans:
            row = record.as_record()
            row["self"] = round(selfs[record.span_id], 9)
            buffer.write(json.dumps(row, sort_keys=True) + "\n")
            lines += 1
        for row in self.span_stats():
            buffer.write(json.dumps(row, sort_keys=True) + "\n")
            lines += 1
        for row in self.span_tree():
            buffer.write(json.dumps(row, sort_keys=True) + "\n")
            lines += 1
        for (name, tags), value in sorted(self.counters.items()):
            record = {"type": "counter", "name": name, "tags": dict(tags), "value": value}
            buffer.write(json.dumps(record, sort_keys=True) + "\n")
            lines += 1
        for name in sorted(self.histograms):
            record = self.histograms[name].as_record(name)
            buffer.write(json.dumps(record, sort_keys=True) + "\n")
            lines += 1
        with open(path, "w", encoding="utf-8", newline="\n") as handle:  # type: ignore[arg-type]
            handle.write(buffer.getvalue())
        return lines

    #: Widest span-name column ``summary()`` will render before truncating.
    SUMMARY_NAME_WIDTH = 48

    def summary(self) -> str:
        """A compact human-readable digest of the registry.

        Span names render in a dynamically sized column capped at
        :attr:`SUMMARY_NAME_WIDTH` characters (longer names are truncated
        with an ellipsis); spans sort by descending total wall (name as the
        tie-break), counters and histograms sort by name — the whole digest
        is deterministic for a given registry.
        """
        lines: list[str] = []
        title = f"telemetry summary — {self.label}" if self.label else "telemetry summary"
        lines.append(title)
        stats = self.span_stats()
        if stats:
            lines.append("spans:")
            cap = self.SUMMARY_NAME_WIDTH

            def clip(name: str) -> str:
                return name if len(name) <= cap else name[: cap - 1] + "…"

            width = min(cap, max(len(clip(str(row["name"]))) for row in stats))
            for row in sorted(stats, key=lambda r: (-float(r["wall"]), str(r["name"]))):
                lines.append(
                    f"  {clip(str(row['name'])):<{width}}  n={row['count']:<6d}"
                    f" wall={float(row['wall']):9.4f}s self={float(row['self']):9.4f}s"
                    f" cpu={float(row['cpu']):9.4f}s p95={float(row['self_p95']):.4f}s"
                )
        if self.memory:
            mem_spans = [s for s in self.spans if s.peak is not None]
            if mem_spans:
                lines.append("memory (top spans by peak):")
                top = sorted(
                    mem_spans, key=lambda s: (-(s.peak or 0), s.span_id)
                )[:10]
                for span_record in top:
                    lines.append(
                        f"  {span_record.name}: peak={span_record.peak or 0:,}B"
                        f" alloc={span_record.alloc or 0:,}B"
                    )
            if self.peak_rss_kb:
                lines.append(f"  process peak RSS: {self.peak_rss_kb:,} kB")
        names = sorted({name for name, _ in self.counters})
        if names:
            lines.append("counters:")
            for name in names:
                breakdown = self.counter_breakdown(name)
                total = sum(breakdown.values())
                lines.append(f"  {name} = {total:g}")
                if len(breakdown) > 1 or any(tags for tags in breakdown):
                    for tags in sorted(breakdown):
                        tag_text = ", ".join(f"{k}={v}" for k, v in tags) or "(untagged)"
                        lines.append(f"    {tag_text}: {breakdown[tags]:g}")
        if self.histograms:
            lines.append("histograms:")
            for name in sorted(self.histograms):
                histogram = self.histograms[name]
                mean = histogram.mean
                lines.append(
                    f"  {name}: n={histogram.count} mean="
                    + (f"{mean:.4g}" if mean is not None else "-")
                    + (f" min={histogram.min:.4g} max={histogram.max:.4g}"
                       if histogram.count else "")
                )
                peak = max(histogram.counts) if histogram.count else 0
                labels = [f"<={edge:g}" for edge in histogram.edges] + [
                    f">{histogram.edges[-1]:g}"
                ]
                for label, bucket in zip(labels, histogram.counts, strict=True):
                    if peak:
                        bar = "#" * max(1, round(24 * bucket / peak)) if bucket else ""
                    else:
                        bar = ""
                    lines.append(f"    {label:>8} {bucket:6d} {bar}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# module-level switchboard (the API the instrumented code calls)
# ----------------------------------------------------------------------
_ACTIVE: TelemetryRegistry | None = None


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


def enabled() -> bool:
    """True when a registry is active and instrumentation should record."""
    return _ACTIVE is not None


def get() -> TelemetryRegistry | None:
    """The active registry, or None when telemetry is disabled."""
    return _ACTIVE


def activate(registry: TelemetryRegistry | None = None) -> TelemetryRegistry:
    """Install (and return) the process-wide active registry."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else TelemetryRegistry()
    return _ACTIVE


def deactivate() -> TelemetryRegistry | None:
    """Remove and return the active registry (telemetry goes quiet).

    Finalizes the registry on the way out (stops owned memory tracing,
    freezes the peak RSS) so callers can export it afterwards.
    """
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    if registry is not None:
        registry.finalize()
    return registry


@contextmanager
def session(label: str = "", memory: bool = False) -> Iterator[TelemetryRegistry]:
    """Activate a fresh registry for the duration of a ``with`` block.

    The previous registry (if any) is restored on exit, so sessions nest
    safely in tests.  ``memory=True`` creates the registry with tracemalloc
    span tracking (see :class:`TelemetryRegistry`); the tracer is stopped
    again when the block exits.
    """
    global _ACTIVE
    previous = _ACTIVE
    registry = TelemetryRegistry(label=label, memory=memory)
    _ACTIVE = registry
    try:
        yield registry
    finally:
        registry.finalize()
        _ACTIVE = previous


def span(name: str, **tags: object):
    """Module-level span: records on the active registry, no-op otherwise."""
    if _ACTIVE is None:
        return _NOOP
    return _ACTIVE.span(name, **tags)


def count(name: str, value: float = 1, **tags: object) -> None:
    """Module-level counter increment (no-op when telemetry is disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.count(name, value, **tags)


def observe(
    name: str,
    value: float,
    edges: Sequence[float] = DEFAULT_FRACTION_EDGES,
) -> None:
    """Module-level histogram observation (no-op when telemetry is disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.observe(name, value, edges)
