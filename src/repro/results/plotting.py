"""Metric trendlines over recorded runs, rendered in the terminal.

``repro results plot`` turns the store's flat :meth:`~ResultsStore.query`
rows into one value per run (per optional group), ordered oldest → newest
— the BENCH trajectory over git shas as a picture instead of two raw JSON
views: a Unicode sparkline per series plus a per-run table (sha, created,
value).  Span self-time trends are the same view over the traced runs'
``__profile__`` records (``--scenario __profile__ --metric self_seconds
--agg sum --by span``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

_SPARK = "▁▂▃▄▅▆▇█"

_AGGREGATORS: dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda values: sum(values) / len(values),
    "max": max,
    "min": min,
    "last": lambda values: values[-1],
    "sum": sum,
}

AGGREGATIONS = tuple(sorted(_AGGREGATORS))

#: Friendly metric spellings accepted when no record carries the literal
#: name — the headline max-link-utilization metric is stored as ``mlu``.
METRIC_ALIASES: dict[str, str] = {
    "max_utilization": "mlu",
    "max_link_utilization": "mlu",
}


@dataclass
class TrendPoint:
    """One run's aggregated metric value."""

    run_id: str
    created_at: str
    git_sha: str
    value: float


@dataclass
class TrendSeries:
    """One plotted line: a label and its per-run points (oldest first)."""

    label: str
    points: list[TrendPoint]

    @property
    def values(self) -> list[float]:
        return [point.value for point in self.points]


class PlotError(ValueError):
    """Raised for unplottable requests (no data, unknown aggregation...)."""


def metric_trend(
    rows: Sequence[dict[str, object]],
    metric: str,
    agg: str = "mean",
    by: str | None = None,
) -> list[TrendSeries]:
    """Aggregate query rows into per-run trend series, oldest run first.

    ``rows`` is :meth:`ResultsStore.query` output (newest runs first);
    rows missing ``metric`` (or carrying a non-numeric value, e.g. the
    ``"inf"`` strings the store sanitises) are skipped.  ``by`` splits the
    trend into one series per distinct value of that field (e.g.
    ``protocol``); series order is first appearance in run order.
    """
    try:
        aggregate = _AGGREGATORS[agg]
    except KeyError:
        raise PlotError(
            f"unknown aggregation {agg!r}; known: {', '.join(AGGREGATIONS)}"
        ) from None
    if metric in METRIC_ALIASES and not any(metric in row for row in rows):
        metric = METRIC_ALIASES[metric]
    # (run_id, series label) -> values; runs keyed in query order (newest
    # first), flipped at the end.
    runs: list[tuple[str, str, str]] = []
    seen_runs: dict[str, None] = {}
    buckets: dict[tuple[str, str], list[float]] = {}
    labels: list[str] = []
    for row in rows:
        value = row.get(metric)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if not math.isfinite(float(value)):
            continue
        run_id = str(row.get("run_id", ""))
        if run_id not in seen_runs:
            seen_runs[run_id] = None
            runs.append(
                (run_id, str(row.get("created_at", "")), str(row.get("git_sha", "")))
            )
        label = str(row.get(by, "")) if by else ""
        if label not in labels:
            labels.append(label)
        buckets.setdefault((run_id, label), []).append(float(value))
    if not buckets:
        raise PlotError(f"no numeric values of {metric!r} in the selected records")
    runs.reverse()  # oldest first
    series: list[TrendSeries] = []
    for label in labels:
        points = [
            TrendPoint(run_id=run_id, created_at=created, git_sha=sha,
                       value=aggregate(buckets[(run_id, label)]))
            for run_id, created, sha in runs
            if (run_id, label) in buckets
        ]
        if points:
            series.append(TrendSeries(label=label, points=points))
    return series


def sparkline(values: Sequence[float]) -> str:
    """Unicode 8-level sparkline of a value sequence."""
    if not values:
        return ""
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK[3] * len(values)
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((value - low) / span * len(_SPARK)))]
        for value in values
    )


def render_terminal(series: Sequence[TrendSeries], metric: str) -> str:
    """The terminal view: sparkline per series + a per-run value table."""
    lines: list[str] = []
    width = max(len(s.label or metric) for s in series)
    for s in series:
        values = s.values
        label = s.label or metric
        lines.append(
            f"{label:<{width}}  {sparkline(values)}  "
            f"n={len(values)} min={min(values):.6g} max={max(values):.6g} "
            f"last={values[-1]:.6g}"
        )
    lines.append("")
    # Per-run table: one row per run, one value column per series.
    by_run: dict[str, dict[str, object]] = {}
    order: list[str] = []
    for s in series:
        for point in s.points:
            if point.run_id not in by_run:
                order.append(point.run_id)
                by_run[point.run_id] = {
                    "run": point.run_id[:17],
                    "created": point.created_at,
                    "git": point.git_sha[:10],
                }
            by_run[point.run_id][s.label or metric] = f"{point.value:.6g}"
    header = list(by_run[order[0]].keys()) if order else []
    for run_id in order:
        for key in by_run[run_id]:
            if key not in header:
                header.append(key)
    widths = {
        key: max(len(str(key)), *(len(str(by_run[r].get(key, ""))) for r in order))
        for key in header
    }
    lines.append("  ".join(str(key).ljust(widths[key]) for key in header))
    for run_id in order:
        row = by_run[run_id]
        lines.append("  ".join(str(row.get(key, "")).ljust(widths[key]) for key in header))
    return "\n".join(lines)

