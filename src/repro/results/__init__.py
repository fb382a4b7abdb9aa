"""Queryable results store: run manifests, metrics, diffs and bench views.

Every sweep, benchmark and replay in this repository used to end as a
write-only JSON blob; this package turns those numbers into rows that can
be listed, queried, aggregated and — most importantly for CI — *diffed*
across runs and PRs:

* :mod:`~repro.results.manifest` — :class:`RunManifest`, the provenance
  record (git sha, package version, ``CACHE_VERSION``, topology, protocol
  set, scenario-set hash, timings) stamped onto every run;
* :mod:`~repro.results.store` — :class:`ResultsStore`, one SQLite file of
  runs + records with ``query`` / ``aggregate`` / ``diff`` /
  ``export_bench_view`` / ``import_bench_view``;
* :mod:`~repro.results.diffing` — the category-aware field comparison
  (timing vs shape vs metric) behind ``repro results diff``;
* :mod:`~repro.results.formatting` — the shared ``table|csv|json`` row
  renderer behind every ``repro results`` listing (rich optional);
* :mod:`~repro.results.plotting` — per-metric terminal trendlines over
  stored runs for ``repro results plot``;
* :mod:`~repro.results.perf` — the median±MAD span-timing regression
  gate over ``__profile__`` records behind ``repro results perf
  --gate``.

The scenario :class:`~repro.scenarios.BatchRunner` (``results_store=``),
the benchmark harness (:mod:`benchmarks.bench_utils`) and the ``repro``
CLI all write through this package; the committed ``BENCH_*.json`` files
are exported views over it, never hand-edited artifacts.
"""

from .diffing import FieldDiff, RunDiff, classify_field, diff_records, flatten_record
from .formatting import FORMATS, format_output
from .manifest import (
    KNOWN_KINDS,
    RunManifest,
    git_revision,
    new_run_id,
    scenario_set_fingerprint,
    utc_now_iso,
)
from .perf import (
    PROFILE_SCENARIO,
    GateReport,
    PerfError,
    SpanVerdict,
    gate,
)
from .plotting import (
    AGGREGATIONS,
    PlotError,
    TrendPoint,
    TrendSeries,
    metric_trend,
    render_terminal,
    sparkline,
)
from .store import (
    VIEW_FILENAMES,
    ResultsStore,
    ResultsStoreError,
    default_results_path,
    load_bench_view,
    open_store,
)

__all__ = [
    "FieldDiff",
    "RunDiff",
    "classify_field",
    "diff_records",
    "flatten_record",
    "FORMATS",
    "format_output",
    "AGGREGATIONS",
    "PlotError",
    "TrendPoint",
    "TrendSeries",
    "metric_trend",
    "render_terminal",
    "sparkline",
    "PROFILE_SCENARIO",
    "GateReport",
    "PerfError",
    "SpanVerdict",
    "gate",
    "KNOWN_KINDS",
    "RunManifest",
    "git_revision",
    "new_run_id",
    "scenario_set_fingerprint",
    "utc_now_iso",
    "VIEW_FILENAMES",
    "ResultsStore",
    "ResultsStoreError",
    "default_results_path",
    "load_bench_view",
    "open_store",
]
