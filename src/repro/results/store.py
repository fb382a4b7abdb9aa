"""SQLite-backed store of run manifests, per-record metrics and sweep cells.

This module answers the questions humans (and CI) ask across runs:

* *what runs exist, and what code produced them?* — :meth:`ResultsStore.runs`,
  with git sha / package version / ``CACHE_VERSION`` in every manifest;
* *what were the numbers?* — :meth:`ResultsStore.query` /
  :meth:`ResultsStore.aggregate` over per-record metrics;
* *did anything move?* — :meth:`ResultsStore.diff`, the tolerance- and
  category-aware comparison CI gates on;
* *where do the committed artifacts come from?* — ``BENCH_*.json`` are
  **exported views** (:meth:`ResultsStore.export_bench_view`), re-importable
  byte-for-byte (:meth:`ResultsStore.import_bench_view`), never hand-edited;
* *have I computed this exact sweep cell before?* — :meth:`ResultsStore.cell`
  by :func:`~repro.scenarios.runner.cell_key`, asked by the scenario runner.

One SQLite file holds everything (``$REPRO_RESULTS_DB`` or
``~/.cache/repro/results.sqlite``); records keep their full metric dicts as
JSON so new benchmark fields never need schema migrations, while the
identity columns (topology, protocol, scenario, workload) are first-class
for filtering.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

from ..serve.wire import sanitize
from .diffing import RunDiff, diff_records
from .manifest import RunManifest

#: Benchmark name -> committed view filename at the repository root.
VIEW_FILENAMES = {
    "routing-backend": "BENCH_routing.json",
    "online-controller": "BENCH_online.json",
}

#: Record columns mirrored out of the metrics JSON for SQL filtering.
_IDENTITY_COLUMNS = ("topology", "workload", "scenario", "protocol")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    created_at TEXT NOT NULL,
    git_sha TEXT,
    package_version TEXT,
    cache_version INTEGER,
    benchmark TEXT,
    topology TEXT,
    protocols TEXT,
    scenario_set TEXT,
    config TEXT,
    timings TEXT,
    note TEXT
);
CREATE TABLE IF NOT EXISTS records (
    run_id TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    seq INTEGER NOT NULL,
    topology TEXT,
    workload TEXT,
    scenario TEXT,
    protocol TEXT,
    metrics TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX IF NOT EXISTS records_identity
    ON records (topology, workload, scenario, protocol);
CREATE TABLE IF NOT EXISTS cells (
    key TEXT PRIMARY KEY,
    cache_version INTEGER NOT NULL,
    package_version TEXT NOT NULL,
    result TEXT NOT NULL
);
"""


class ResultsStoreError(ValueError):
    """Raised for unknown runs, ambiguous references and malformed views."""


def default_results_path() -> Path:
    """``$REPRO_RESULTS_DB`` or ``~/.cache/repro/results.sqlite``."""
    override = os.environ.get("REPRO_RESULTS_DB")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "results.sqlite"


def _code_identity() -> tuple[int, str]:
    """``(CACHE_VERSION, package version)``: what every cell key hashes in."""
    from .. import __version__
    from ..scenarios.runner import CACHE_VERSION

    return CACHE_VERSION, __version__


def _dump_view(payload: Mapping[str, object]) -> str:
    """The canonical view serialisation (byte-stable across re-exports)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class ResultsStore:
    """Queryable store of run manifests and metrics in one SQLite file."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_results_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(self.path))
        self._connection.row_factory = sqlite3.Row
        self._connection.execute("PRAGMA foreign_keys = ON")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> ResultsStore:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def record_run(
        self,
        manifest: RunManifest,
        records: Sequence[Mapping[str, object]],
    ) -> str:
        """Persist a manifest plus its records; returns the run id.

        Records keep their insertion order (``seq``), which is what makes
        exported views byte-stable: the view's ``results`` list is the
        run's records in the order the harness produced them.
        """
        row = manifest.to_row()
        with self._connection:
            self._connection.execute(
                f"INSERT INTO runs ({', '.join(row)}) "
                f"VALUES ({', '.join(':' + k for k in row)})",
                row,
            )
            for seq, record in enumerate(records):
                clean = sanitize(dict(record))
                self._connection.execute(
                    "INSERT INTO records (run_id, seq, topology, workload, scenario,"
                    " protocol, metrics) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        manifest.run_id,
                        seq,
                        *(clean.get(col) for col in _IDENTITY_COLUMNS),
                        json.dumps(clean, sort_keys=True),
                    ),
                )
        return manifest.run_id

    def delete_run(self, ref: str) -> str:
        """Delete a run (and, via cascade, its records); returns the run id."""
        manifest = self.get_run(ref)
        with self._connection:
            self._connection.execute("DELETE FROM runs WHERE run_id = ?", (manifest.run_id,))
        return manifest.run_id

    def put_cells(self, cells: Iterable[tuple[str, Mapping[str, object]]]) -> None:
        """Store ``(cell key, ScenarioResult.to_dict())`` pairs, stamped with
        the ``CACHE_VERSION`` and package version the key hashes in (see
        :meth:`gc`).  Floats round-trip exactly, ``inf`` included."""
        cache_version, package_version = _code_identity()
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO cells (key, cache_version, package_version,"
                " result) VALUES (?, ?, ?, ?)",
                (
                    (key, cache_version, package_version, json.dumps(result, sort_keys=True))
                    for key, result in cells
                ),
            )

    def gc(
        self,
        keep_last: int,
        kind: str | None = None,
        benchmark: str | None = None,
    ) -> list[str]:
        """Retention: keep the newest ``keep_last`` runs per (kind, benchmark).

        Every command records a run, so a store used by CI or a watch loop
        grows without bound; ``gc`` trims it while keeping each run *family*
        (sweeps, replays, each benchmark) independently useful — deleting
        globally would let a burst of sweeps evict the only recorded bench
        run a later ``repro results diff`` needs.  Optional ``kind`` /
        ``benchmark`` filters restrict which families are trimmed.  Returns
        the deleted run ids (newest first within each family).

        Sweep cells of another ``CACHE_VERSION`` or package version go too,
        whatever the filters: their keys can never be asked for again.
        """
        if keep_last < 0:
            raise ResultsStoreError(f"keep_last must be non-negative, got {keep_last}")
        groups: dict[tuple[object, object], list[RunManifest]] = {}
        for manifest in self.runs(kind=kind, benchmark=benchmark):
            groups.setdefault((manifest.kind, manifest.benchmark), []).append(manifest)
        deleted: list[str] = []
        with self._connection:
            for manifests in groups.values():
                for manifest in manifests[keep_last:]:  # runs() is newest-first
                    self._connection.execute(
                        "DELETE FROM runs WHERE run_id = ?", (manifest.run_id,)
                    )
                    deleted.append(manifest.run_id)
            self._connection.execute(
                "DELETE FROM cells WHERE cache_version != ? OR package_version != ?",
                _code_identity(),
            )
        return deleted

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def runs(
        self,
        kind: str | None = None,
        benchmark: str | None = None,
        topology: str | None = None,
        limit: int | None = None,
    ) -> list[RunManifest]:
        """Manifests, newest first, optionally filtered."""
        clauses, params = [], []
        for column, value in (("kind", kind), ("benchmark", benchmark), ("topology", topology)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, rowid DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [RunManifest.from_row(row) for row in self._connection.execute(sql, params)]

    def get_run(self, ref: str) -> RunManifest:
        """Resolve a run reference to its manifest.

        ``ref`` may be a full run id, a unique run-id prefix, ``latest``,
        ``latest:<benchmark-or-kind>``, or — borrowing git's ancestry
        syntax — ``latest~N[:<benchmark-or-kind>]`` for the run N places
        before the newest one (``latest~1:sweep`` is the previous sweep,
        so CI can diff consecutive runs of the same family).
        """
        if ref == "latest" or ref.startswith(("latest:", "latest~")):
            head, _, selector = ref.partition(":")
            selector = selector or None
            back = 0
            if head.startswith("latest~"):
                suffix = head[len("latest~"):]
                if not suffix.isdigit():
                    raise ResultsStoreError(
                        f"malformed run reference {ref!r} (expected latest~N)"
                    )
                back = int(suffix)
            elif head != "latest":
                raise ResultsStoreError(f"malformed run reference {ref!r}")
            limit = back + 1
            candidates = self.runs(benchmark=selector, limit=limit) if selector else []
            if not candidates and selector:
                candidates = self.runs(kind=selector, limit=limit)
            if not candidates and not selector:
                candidates = self.runs(limit=limit)
            if len(candidates) <= back:
                raise ResultsStoreError(f"no runs match {ref!r} in {self.path}")
            return candidates[back]
        # Escape LIKE metacharacters so a ref containing % or _ is a literal
        # prefix, never a wildcard that resolves to an arbitrary run.
        escaped = ref.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
        rows = self._connection.execute(
            "SELECT * FROM runs WHERE run_id = ? OR run_id LIKE ? ESCAPE '\\' "
            "ORDER BY created_at DESC, rowid DESC",
            (ref, f"{escaped}%"),
        ).fetchall()
        exact = [row for row in rows if row["run_id"] == ref]
        if exact:
            return RunManifest.from_row(exact[0])
        if not rows:
            raise ResultsStoreError(f"unknown run {ref!r} in {self.path}")
        if len(rows) > 1:
            matches = ", ".join(row["run_id"] for row in rows[:5])
            raise ResultsStoreError(f"ambiguous run reference {ref!r}: matches {matches}")
        return RunManifest.from_row(rows[0])

    def cell(self, key: str) -> dict[str, object] | None:
        """The stored result dict of the sweep cell at ``key``, or ``None``."""
        row = self._connection.execute(
            "SELECT result FROM cells WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row["result"])

    def cell_count(self) -> int:
        """How many sweep cells the store holds."""
        return int(self._connection.execute("SELECT COUNT(*) FROM cells").fetchone()[0])

    def records(self, ref: str) -> list[dict[str, object]]:
        """A run's records (full metric dicts) in insertion order."""
        manifest = self.get_run(ref)
        rows = self._connection.execute(
            "SELECT metrics FROM records WHERE run_id = ? ORDER BY seq",
            (manifest.run_id,),
        )
        return [json.loads(row["metrics"]) for row in rows]

    def query(
        self,
        kind: str | None = None,
        benchmark: str | None = None,
        run: str | None = None,
        topology: str | None = None,
        workload: str | None = None,
        scenario: str | None = None,
        protocol: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, object]]:
        """Flat record rows across runs, newest runs first.

        Every row carries its run's provenance (``run_id``, ``created_at``,
        ``git_sha``) next to the record's metrics, so the output is directly
        plottable / tabulable across PRs.
        """
        clauses, params = [], []
        for column, value in (
            ("runs.kind", kind),
            ("runs.benchmark", benchmark),
            ("records.topology", topology),
            ("records.workload", workload),
            ("records.scenario", scenario),
            ("records.protocol", protocol),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if run is not None:
            clauses.append("runs.run_id = ?")
            params.append(self.get_run(run).run_id)
        sql = (
            "SELECT runs.run_id, runs.created_at, runs.git_sha, records.metrics "
            "FROM records JOIN runs USING (run_id)"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY runs.created_at DESC, runs.rowid DESC, records.seq"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        rows = []
        for row in self._connection.execute(sql, params):
            record = {
                "run_id": row["run_id"],
                "created_at": row["created_at"],
                "git_sha": row["git_sha"],
            }
            record.update(json.loads(row["metrics"]))
            rows.append(record)
        return rows

    def aggregate(
        self,
        metric: str,
        by: Sequence[str] = ("protocol",),
        **filters: str | None,
    ) -> list[dict[str, object]]:
        """count/min/mean/max of one metric, grouped by identity fields.

        ``filters`` are forwarded to :meth:`query`; rows missing the metric
        (or carrying non-finite values) are counted but excluded from the
        statistics.
        """
        groups: dict[tuple[object, ...], list[float]] = {}
        totals: dict[tuple[object, ...], int] = {}
        for row in self.query(**filters):
            key = tuple(row.get(field) for field in by)
            totals[key] = totals.get(key, 0) + 1
            value = row.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = float(value)
                if value == value and abs(value) != float("inf"):
                    groups.setdefault(key, []).append(value)
        out: list[dict[str, object]] = []
        for key in sorted(totals, key=lambda k: tuple(str(part) for part in k)):
            values = groups.get(key, [])
            row = dict(zip(by, key, strict=True))
            row.update(
                {
                    "rows": totals[key],
                    f"count_{metric}": len(values),
                    f"min_{metric}": min(values) if values else float("nan"),
                    f"mean_{metric}": sum(values) / len(values) if values else float("nan"),
                    f"max_{metric}": max(values) if values else float("nan"),
                }
            )
            out.append(row)
        return out

    # ------------------------------------------------------------------
    # diffs
    # ------------------------------------------------------------------
    @staticmethod
    def workload_flags(manifest: RunManifest) -> dict[str, bool]:
        """The flags that decide whether two runs' magnitudes are comparable."""
        view_flags = manifest.config.get("view_flags")
        if not isinstance(view_flags, Mapping):
            view_flags = {}
        flags = {}
        for key in ("full_bench", "smoke_bench"):
            if key in manifest.config:
                flags[key] = bool(manifest.config[key])
            else:
                flags[key] = bool(view_flags.get(key, False))
        return flags

    def diff(
        self,
        run_a: str | tuple[RunManifest, Sequence[Mapping[str, object]]],
        run_b: str | tuple[RunManifest, Sequence[Mapping[str, object]]],
        rtol: float = 1e-6,
        atol: float = 1e-9,
    ) -> RunDiff:
        """Compare two runs field-by-field (see :mod:`repro.results.diffing`).

        Either side may be a run reference or an already-materialised
        ``(manifest, records)`` pair — the latter is how the CLI diffs a
        stored run against a ``BENCH_*.json`` view file without writing the
        view into the store first.
        """

        def materialise(
            run: str | tuple[RunManifest, Sequence[Mapping[str, object]]],
        ) -> tuple[RunManifest, Sequence[Mapping[str, object]]]:
            if isinstance(run, str):
                manifest = self.get_run(run)
                return manifest, self.records(manifest.run_id)
            return run

        manifest_a, records_a = materialise(run_a)
        manifest_b, records_b = materialise(run_b)
        comparable = self.workload_flags(manifest_a) == self.workload_flags(manifest_b)
        return diff_records(
            manifest_a.run_id,
            records_a,
            manifest_b.run_id,
            records_b,
            rtol=rtol,
            atol=atol,
            comparable=comparable,
        )

    # ------------------------------------------------------------------
    # bench views
    # ------------------------------------------------------------------
    def export_bench_view(
        self,
        benchmark: str,
        run: str | None = None,
        path: str | Path | None = None,
    ) -> str:
        """Serialise a bench run as its committed-view JSON text.

        The view is ``{"benchmark": ..., <workload flags>, "results":
        [records in insertion order]}`` dumped with sorted keys and a
        trailing newline — exactly the committed ``BENCH_*.json`` layout, so
        re-exporting an unchanged run is byte-identical.  ``run`` defaults
        to the latest run of that benchmark.
        """
        manifest = self.get_run(run) if run else self.get_run(f"latest:{benchmark}")
        if manifest.benchmark != benchmark:
            raise ResultsStoreError(
                f"run {manifest.run_id} records benchmark {manifest.benchmark!r},"
                f" not {benchmark!r}"
            )
        payload: dict[str, object] = {"benchmark": benchmark}
        flags = manifest.config.get("view_flags", {})
        if isinstance(flags, Mapping):
            payload.update(flags)
        payload["results"] = self.records(manifest.run_id)
        text = _dump_view(payload)
        if path is not None:
            Path(path).write_text(text)
        return text

    def import_bench_view(
        self,
        path: str | Path,
        note: str | None = None,
    ) -> str:
        """Ingest a ``BENCH_*.json`` view file as a ``view-import`` run.

        The top-level flags are preserved verbatim in the manifest
        (``config["view_flags"]``), so :meth:`export_bench_view` of the
        imported run reproduces the file byte-for-byte.
        """
        manifest, records = load_bench_view(path, note=note)
        return self.record_run(manifest, records)


def load_bench_view(
    path: str | Path,
    note: str | None = None,
) -> tuple[RunManifest, list[dict[str, object]]]:
    """Parse a view file into an (unpersisted) manifest + records pair."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ResultsStoreError(f"cannot read bench view {path}: {exc}") from exc
    if not isinstance(payload, Mapping) or "benchmark" not in payload or "results" not in payload:
        raise ResultsStoreError(
            f"{path} is not a bench view (expected top-level 'benchmark' and 'results')"
        )
    results = payload["results"]
    if not isinstance(results, list):
        raise ResultsStoreError(f"{path}: 'results' must be a list")
    flags = {
        key: value for key, value in payload.items() if key not in ("benchmark", "results")
    }
    manifest = RunManifest.create(
        kind="view-import",
        benchmark=str(payload["benchmark"]),
        config={"view_flags": flags, "source": path.name, **{k: v for k, v in flags.items()}},
        note=note or f"imported from {path}",
    )
    return manifest, [sanitize(dict(record)) for record in results]
