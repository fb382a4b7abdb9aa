"""The statistical span-timing regression gate over traced runs.

``repro trace`` runs persist per-span timing aggregates
(:func:`repro.obs.profiling.profile_records`, identity
``scenario="__profile__"``) next to their sweep/replay records.  This
module is the gate that reads them and answers CI's question — *did this
span get slower than its own history explains?*  (A span's trend across
runs is a ``repro results plot --scenario __profile__`` view.)

The gate is statistical, not exact: shared runners jitter, so a span's
baseline is summarised as ``median ± k·MAD`` over a window of prior runs,
widened by two floors so quiet spans cannot flap:

* ``min_seconds`` — an absolute floor: a microsecond-scale span doubling
  is still microseconds, never a regression worth failing a build over;
* ``rel_floor`` — a relative floor (fraction of the median): with a tiny
  window (CI gates against ``latest~1``, a single baseline run) the MAD is
  zero and the relative floor carries the noise allowance alone.

A span regresses when ``head > median + max(k·MAD, min_seconds,
rel_floor·median)``.  Spans present in the head run but absent from every
baseline run are reported as *new* (informational, never failing): a
freshly instrumented span has no history to regress against.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from ..obs.profiling import PROFILE_SCENARIO

__all__ = [
    "PROFILE_SCENARIO",
    "PerfError",
    "GateReport",
    "SpanVerdict",
    "gate",
]


class PerfError(ValueError):
    """Raised for ungateable requests (no profile records, bad refs...)."""


def _span_values(
    records: Sequence[Mapping[str, object]], metric: str
) -> dict[str, float]:
    """``{span name: metric value}`` over one run's ``__profile__`` records."""
    values: dict[str, float] = {}
    for record in records:
        if record.get("scenario") != PROFILE_SCENARIO:
            continue
        value = record.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values[str(record.get("span", record.get("workload", "")))] = float(value)
    return values


@dataclass
class SpanVerdict:
    """One span's gate outcome: head value vs its baseline noise band."""

    span: str
    head: float
    baseline_median: float
    mad: float
    threshold: float
    samples: int
    regressed: bool

    def as_row(self) -> dict[str, object]:
        return {
            "span": self.span,
            "head": f"{self.head:.6f}",
            "median": f"{self.baseline_median:.6f}",
            "mad": f"{self.mad:.6f}",
            "threshold": f"{self.threshold:.6f}",
            "n": self.samples,
            "status": "REGRESSED" if self.regressed else "ok",
        }


@dataclass
class GateReport:
    """The full gate outcome for one BASE..HEAD comparison."""

    base: str
    head: str
    metric: str
    window: int
    verdicts: list[SpanVerdict] = field(default_factory=list)
    new_spans: list[str] = field(default_factory=list)
    vanished_spans: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[SpanVerdict]:
        return [verdict for verdict in self.verdicts if verdict.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"perf gate {self.base}..{self.head} on {self.metric} "
            f"(window={self.window} run(s))",
            f"  {len(self.verdicts)} span(s) gated: "
            f"{len(self.regressions)} regression(s)",
        ]
        if self.new_spans:
            lines.append(
                f"  new span(s) without history (informational): "
                f"{', '.join(self.new_spans)}"
            )
        if self.vanished_spans:
            lines.append(
                f"  span(s) in baseline but not head (informational): "
                f"{', '.join(self.vanished_spans)}"
            )
        return "\n".join(lines)


def gate(
    store: object,
    base_ref: str,
    head_ref: str,
    metric: str = "self_seconds",
    k: float = 5.0,
    min_seconds: float = 0.005,
    rel_floor: float = 0.5,
    window: int = 10,
) -> GateReport:
    """Gate ``head_ref``'s span timings against history ending at ``base_ref``.

    The baseline window is the ``window`` newest runs of the *same family*
    (kind + topology) starting at ``base_ref`` and walking backwards in
    recorded order, so ``gate(store, "latest~1:sweep", "latest:sweep")``
    compares a fresh run against up to ``window`` of its predecessors.
    Raises :class:`PerfError` when either side carries no ``__profile__``
    records (untraced runs have nothing to gate).
    """
    if window < 1:
        raise PerfError(f"window must be >= 1, got {window}")
    base = store.get_run(base_ref)  # type: ignore[attr-defined]
    head = store.get_run(head_ref)  # type: ignore[attr-defined]
    head_values = _span_values(store.records(head.run_id), metric)  # type: ignore[attr-defined]
    if not head_values:
        raise PerfError(
            f"run {head.run_id} has no {PROFILE_SCENARIO!r} records — "
            "profile records are written by `repro trace` runs"
        )
    family = store.runs(kind=base.kind, topology=base.topology)  # type: ignore[attr-defined]
    try:
        start = [manifest.run_id for manifest in family].index(base.run_id)
    except ValueError:
        raise PerfError(
            f"base run {base.run_id} not found in its own (kind, topology) "
            "family — store inconsistency"
        ) from None
    history: dict[str, list[float]] = {}
    baseline_runs = 0
    for manifest in family[start : start + window]:
        if manifest.run_id == head.run_id:
            continue
        values = _span_values(store.records(manifest.run_id), metric)  # type: ignore[attr-defined]
        if not values:
            continue
        baseline_runs += 1
        for span, value in values.items():
            history.setdefault(span, []).append(value)
    if not baseline_runs:
        raise PerfError(
            f"no {PROFILE_SCENARIO!r} records in the {window}-run window at "
            f"{base.run_id} — nothing to gate against"
        )
    report = GateReport(
        base=base.run_id, head=head.run_id, metric=metric, window=window
    )
    for span in sorted(head_values):
        values = history.get(span)
        if not values:
            report.new_spans.append(span)
            continue
        median = statistics.median(values)
        mad = statistics.median([abs(value - median) for value in values])
        threshold = median + max(k * mad, min_seconds, rel_floor * median)
        head_value = head_values[span]
        report.verdicts.append(
            SpanVerdict(
                span=span,
                head=head_value,
                baseline_median=median,
                mad=mad,
                threshold=threshold,
                samples=len(values),
                regressed=head_value > threshold,
            )
        )
    report.vanished_spans = sorted(set(history) - set(head_values))
    return report
