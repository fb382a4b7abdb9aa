"""Metric trendlines over recorded runs: terminal sparklines + PNG files.

``repro results plot`` turns the store's flat :meth:`~ResultsStore.query`
rows into one value per run (per optional group), ordered oldest → newest
— the BENCH trajectory over git shas as a picture instead of two raw JSON
views.  Rendering is dependency-light:

* the terminal always works: a Unicode sparkline per series plus a
  per-run table (sha, created, value);
* ``--png`` writes an image through a small pure-stdlib PNG writer
  (zlib + struct): 640x320 8-bit RGB, recessive light-gray axes/gridlines, 2px series
  lines with small square markers in a fixed categorical palette.  The
  builtin writer draws no text — the terminal output carries the legend
  and the numbers; the image carries the shape.

Series colors are assigned in fixed palette order by first appearance,
never cycled or re-ranked when a filter changes the series count.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from collections.abc import Callable, Sequence

#: Fixed categorical palette (colorblind-checked order; see README).
PALETTE: tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua-green
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
)

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


# ----------------------------------------------------------------------
# PNG rendering
# ----------------------------------------------------------------------
def _hex_rgb(color: str) -> tuple[int, int, int]:
    color = color.lstrip("#")
    return int(color[0:2], 16), int(color[2:4], 16), int(color[4:6], 16)


class _Raster:
    """A tiny 8-bit RGB canvas with thick-line and marker primitives."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.pixels = bytearray(b"\xff" * (width * height * 3))

    def set(self, x: int, y: int, rgb: tuple[int, int, int]) -> None:
        if 0 <= x < self.width and 0 <= y < self.height:
            offset = (y * self.width + x) * 3
            self.pixels[offset : offset + 3] = bytes(rgb)

    def dot(self, x: int, y: int, rgb: tuple[int, int, int], radius: int = 0) -> None:
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                self.set(x + dx, y + dy, rgb)

    def line(
        self,
        x0: int,
        y0: int,
        x1: int,
        y1: int,
        rgb: tuple[int, int, int],
        thickness: int = 1,
    ) -> None:
        """Bresenham with a square pen of the given thickness."""
        radius = max(0, thickness // 2)
        dx, dy = abs(x1 - x0), -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        while True:
            self.dot(x0, y0, rgb, radius)
            if x0 == x1 and y0 == y1:
                break
            doubled = 2 * err
            if doubled >= dy:
                err += dy
                x0 += sx
            if doubled <= dx:
                err += dx
                y0 += sy

    def encode(self) -> bytes:
        """The canvas as a minimal PNG byte string (one IDAT, filter 0)."""
        raw = bytearray()
        stride = self.width * 3
        for y in range(self.height):
            raw.append(0)  # filter: None
            raw.extend(self.pixels[y * stride : (y + 1) * stride])

        def chunk(kind: bytes, payload: bytes) -> bytes:
            return (
                struct.pack(">I", len(payload))
                + kind
                + payload
                + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF)
            )

        header = struct.pack(">IIBBBBB", self.width, self.height, 8, 2, 0, 0, 0)
        return b"".join(
            (
                b"\x89PNG\r\n\x1a\n",
                chunk(b"IHDR", header),
                chunk(b"IDAT", zlib.compress(bytes(raw), 9)),
                chunk(b"IEND", b""),
            )
        )


def write_png(path: str, series: Sequence[TrendSeries]) -> None:
    """Write the trend as a PNG through the pure-stdlib raster writer.

    The image is text-free (the terminal output carries the legend and the
    numbers); raises :class:`PlotError` when there is nothing to plot.
    """
    if not series or not any(s.points for s in series):
        raise PlotError("nothing to plot")
    width, height = 640, 320
    left, right, top, bottom = 48, 16, 16, 32
    plot_w, plot_h = width - left - right, height - top - bottom
    raster = _Raster(width, height)
    axis = (0xB4, 0xB4, 0xB4)
    grid = (0xE3, 0xE3, 0xE3)
    all_values = [value for s in series for value in s.values]
    low, high = min(all_values), max(all_values)
    if high - low <= 0:
        pad = abs(high) * 0.1 or 1.0
        low, high = low - pad, high + pad
    else:
        pad = (high - low) * 0.08
        low, high = low - pad, high + pad
    max_points = max(len(s.points) for s in series)

    def to_xy(index: int, value: float) -> tuple[int, int]:
        fx = index / (max_points - 1) if max_points > 1 else 0.5
        fy = (value - low) / (high - low)
        return left + round(fx * (plot_w - 1)), top + round((1 - fy) * (plot_h - 1))

    # Recessive horizontal gridlines (quartiles), then the two axes.
    for i in range(1, 4):
        y = top + round(i * (plot_h - 1) / 4)
        raster.line(left, y, left + plot_w - 1, y, grid)
    raster.line(left, top, left, top + plot_h - 1, axis)
    raster.line(left, top + plot_h - 1, left + plot_w - 1, top + plot_h - 1, axis)

    for position, s in enumerate(series):
        rgb = _hex_rgb(PALETTE[position % len(PALETTE)])
        previous: tuple[int, int] | None = None
        for index, value in enumerate(s.values):
            point = to_xy(index, value)
            if previous is not None:
                raster.line(*previous, *point, rgb, thickness=2)
            previous = point
        for index, value in enumerate(s.values):
            raster.dot(*to_xy(index, value), rgb, radius=3)
    with open(path, "wb") as handle:
        handle.write(raster.encode())
