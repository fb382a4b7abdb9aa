"""Run manifests: the provenance half of the results store.

A *run* is one recorded invocation of the scenario runner, the benchmark
harness, the trace replay, or a view import.  The manifest pins down
everything needed to interpret (and re-execute) the numbers it produced:

* **code identity** — git sha, package version, the sweep cells'
  ``CACHE_VERSION``;
* **workload identity** — topology, protocols, a stable hash of the
  scenario set;
* **run shape** — configuration flags (``full_bench``/``smoke_bench``,
  worker counts, ...) and wall-clock timings.

Timings and configuration live in free-form JSON columns because they vary
by run kind; the identity fields are first-class columns so
:meth:`~repro.results.store.ResultsStore.query` can filter on them without
unpacking JSON.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import subprocess
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

from ..scenarios.scenario import Scenario, _sha256

#: Run kinds with first-class CLI support.  Free-form kinds are accepted —
#: the store does not enforce membership — but these are the ones the
#: ``repro`` CLI produces and knows how to render.
KNOWN_KINDS = ("sweep", "bench", "replay", "view-import")


def utc_now_iso() -> str:
    """The current UTC time as a second-resolution ISO-8601 string."""
    # repro: allow[REP003] run creation timestamps are manifest metadata:
    # they are never compared by `repro results diff` (timing category).
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def new_run_id(created_at: str | None = None) -> str:
    """A unique, time-sortable run id (``20260727T101530Z-ab12cd34``)."""
    stamp = (created_at or utc_now_iso()).replace("-", "").replace(":", "")
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def git_revision(cwd: str | None = None) -> str:
    """The commit sha of the code, or a CI-provided fallback, or ``unknown``.

    The lookup is anchored at *this package's* directory (a checkout run
    via ``PYTHONPATH=src`` or ``pip install -e .`` resolves to the repo's
    HEAD), never at the caller's working directory — an installed ``repro``
    invoked from some unrelated git repo must not stamp that repo's sha
    onto the manifest.  Provenance must never make recording fail: outside
    a work tree this degrades to the ``GITHUB_SHA`` / ``GIT_SHA``
    environment variables and finally to ``"unknown"``.  The package's own
    revision is resolved once per process: the code a process runs cannot
    change under it.
    """
    if cwd is None:
        return _package_revision()
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    for variable in ("GITHUB_SHA", "GIT_SHA"):
        value = os.environ.get(variable)
        if value:
            return value
    return "unknown"


@functools.cache
def _package_revision() -> str:
    return git_revision(str(Path(__file__).resolve().parent))


def scenario_set_fingerprint(scenarios: Sequence[Scenario]) -> str:
    """A stable hash of a scenario set (order independent).

    Two sweeps over the same scenarios — regardless of generation order —
    share a fingerprint, so cross-run diffs can assert they compared like
    against like.
    """
    return _sha256(sorted(scenario.fingerprint() for scenario in scenarios))


@dataclass
class RunManifest:
    """Provenance and shape of one recorded run.

    ``config`` and ``timings`` are JSON-serialisable mappings; everything
    else is a scalar column in the ``runs`` table.
    """

    run_id: str
    kind: str
    created_at: str
    git_sha: str = "unknown"
    package_version: str = ""
    cache_version: int | None = None
    benchmark: str | None = None
    topology: str | None = None
    protocols: tuple[str, ...] = ()
    scenario_set: str | None = None
    config: dict[str, object] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    note: str | None = None

    @classmethod
    def create(
        cls,
        kind: str,
        benchmark: str | None = None,
        topology: str | None = None,
        protocols: Iterable[str] = (),
        scenario_set: str | None = None,
        config: Mapping[str, object] | None = None,
        timings: Mapping[str, float] | None = None,
        note: str | None = None,
        git_sha: str | None = None,
        cache_version: int | None = None,
    ) -> RunManifest:
        """Build a manifest stamped with the current code identity."""
        from .. import __version__
        from ..scenarios.runner import CACHE_VERSION

        created_at = utc_now_iso()
        return cls(
            run_id=new_run_id(created_at),
            kind=kind,
            created_at=created_at,
            git_sha=git_sha if git_sha is not None else git_revision(),
            package_version=__version__,
            cache_version=cache_version if cache_version is not None else CACHE_VERSION,
            benchmark=benchmark,
            topology=topology,
            protocols=tuple(protocols),
            scenario_set=scenario_set,
            config=dict(config or {}),
            timings={k: float(v) for k, v in (timings or {}).items()},
            note=note,
        )

    def to_row(self) -> dict[str, object]:
        """The manifest as a flat ``runs``-table row (JSON-packed blobs)."""
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "package_version": self.package_version,
            "cache_version": self.cache_version,
            "benchmark": self.benchmark,
            "topology": self.topology,
            "protocols": json.dumps(list(self.protocols), sort_keys=True),
            "scenario_set": self.scenario_set,
            "config": json.dumps(self.config, sort_keys=True),
            "timings": json.dumps(self.timings, sort_keys=True),
            "note": self.note,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> RunManifest:
        return cls(
            run_id=str(row["run_id"]),
            kind=str(row["kind"]),
            created_at=str(row["created_at"]),
            git_sha=str(row["git_sha"] or "unknown"),
            package_version=str(row["package_version"] or ""),
            cache_version=(
                int(row["cache_version"]) if row["cache_version"] is not None else None
            ),
            benchmark=row["benchmark"],  # type: ignore[arg-type]
            topology=row["topology"],  # type: ignore[arg-type]
            protocols=tuple(json.loads(str(row["protocols"] or "[]"))),
            scenario_set=row["scenario_set"],  # type: ignore[arg-type]
            config=json.loads(str(row["config"] or "{}")),
            timings=json.loads(str(row["timings"] or "{}")),
            note=row["note"],  # type: ignore[arg-type]
        )

    def summary_row(self) -> dict[str, object]:
        """The compact row ``repro results list`` renders."""
        return {
            "run": self.run_id,
            "kind": self.kind,
            "benchmark": self.benchmark or "",
            "topology": self.topology or "",
            "created": self.created_at,
            "git": self.git_sha[:10],
            "version": self.package_version,
        }
