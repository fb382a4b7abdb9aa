"""Plain-text reporting helpers for experiment results.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that formatting in one place (aligned text tables
and simple numeric series), so benchmark modules stay declarative.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    float_format: str = "{:.4g}",
    title: str | None = None,
) -> str:
    """Render a list of dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            if value == float("-inf"):
                return "-inf"
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(line[i]) for line in rendered)) for i, col in enumerate(columns)
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in rendered:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[float] | None = None,
    x_label: str = "x",
    float_format: str = "{:.4g}",
    title: str | None = None,
) -> str:
    """Render several aligned numeric series (one column per series)."""
    names = list(series)
    if not names:
        return "(empty)"
    length = max(len(values) for values in series.values())
    rows = []
    for index in range(length):
        row: dict[str, object] = {}
        if x_values is not None and index < len(x_values):
            row[x_label] = x_values[index]
        else:
            row[x_label] = index
        for name in names:
            values = series[name]
            row[name] = float(values[index]) if index < len(values) else ""
        rows.append(row)
    return format_table(rows, columns=[x_label] + names, float_format=float_format, title=title)


def format_histogram(histogram: Mapping[int, int], title: str | None = None) -> str:
    """Render a ``{bucket: count}`` histogram as a compact table."""
    rows = [
        {"paths": bucket, "pairs": count}
        for bucket, count in sorted(histogram.items())
    ]
    return format_table(rows, columns=["paths", "pairs"], title=title)


def format_robustness_summary(
    rows: Sequence[Mapping[str, object]],
    title: str | None = "Robustness summary (per protocol)",
) -> str:
    """Render the per-protocol robustness rows of a scenario sweep.

    Accepts the ``summary`` rows produced by
    :func:`repro.scenarios.robustness.robustness_summary` (whatever metric
    they were built for) and renders them as an aligned table.
    """
    return format_table(rows, title=title)


def format_regret(
    rows: Sequence[Mapping[str, object]],
    worst: int = 10,
    title: str | None = None,
) -> str:
    """Render the ``worst`` highest-regret scenarios of a sweep.

    Regret rows come from :func:`repro.scenarios.robustness.regret_rows`;
    sorting puts the scenarios where the protocol leaves the most
    performance on the table (vs. a re-optimised oracle) on top.
    """
    ordered = sorted(rows, key=lambda row: float(row.get("regret", 0.0)), reverse=True)
    shown = ordered[: worst if worst else len(ordered)]
    if title is None:
        title = f"Worst {len(shown)} scenarios by regret vs. re-optimised oracle"
    return format_table(shown, title=title)


def print_report(*sections: str) -> None:
    """Print report sections separated by blank lines (captured by pytest -s)."""
    print()
    for section in sections:
        print(section)
        print()

