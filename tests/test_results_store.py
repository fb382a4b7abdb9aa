"""Results store: manifests, round trips, diffs and bench views."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.obs import telemetry
from repro.results import (
    ResultsStore,
    ResultsStoreError,
    RunManifest,
    classify_field,
    flatten_record,
    load_bench_view,
    scenario_set_fingerprint,
)
from repro.scenarios import BatchRunner, single_link_failures
from repro.scenarios import runner as runner_module
from repro.topology.backbones import abilene_network
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def store(tmp_path) -> ResultsStore:
    with ResultsStore(tmp_path / "results.sqlite") as handle:
        yield handle


def _bench_manifest(smoke: bool = False, benchmark: str = "routing-backend") -> RunManifest:
    return RunManifest.create(
        kind="bench",
        benchmark=benchmark,
        config={
            "full_bench": False,
            "smoke_bench": smoke,
            "view_flags": {"full_bench": False},
        },
    )


RECORDS = [
    {
        "topology": "abilene",
        "workload": "split-ratio",
        "nodes": 11,
        "links": 28,
        "matrices": 240,
        "python_seconds": 0.07,
        "sparse_seconds": 0.012,
        "speedup": 5.64,
        "max_abs_load_diff": 1.8e-15,
    },
    {
        "topology": "rocketfuel",
        "workload": "split-ratio",
        "nodes": 52,
        "links": 168,
        "matrices": 40,
        "python_seconds": 0.28,
        "sparse_seconds": 0.07,
        "speedup": 3.9,
        "max_abs_load_diff": 1.8e-15,
    },
]


# ----------------------------------------------------------------------
# write -> query -> aggregate round trip
# ----------------------------------------------------------------------
def test_record_query_roundtrip(store):
    run_id = store.record_run(_bench_manifest(), RECORDS)
    manifest = store.get_run(run_id)
    assert manifest.kind == "bench"
    assert manifest.benchmark == "routing-backend"
    assert manifest.package_version
    assert manifest.cache_version is not None

    assert store.records(run_id) == RECORDS  # insertion order preserved

    rows = store.query(benchmark="routing-backend", workload="split-ratio")
    assert len(rows) == 2
    assert rows[0]["run_id"] == run_id
    assert rows[0]["speedup"] == 5.64

    only_abilene = store.query(topology="abilene")
    assert len(only_abilene) == 1 and only_abilene[0]["nodes"] == 11


def test_aggregate_groups_and_stats(store):
    store.record_run(_bench_manifest(), RECORDS)
    agg = store.aggregate("speedup", by=("workload",), benchmark="routing-backend")
    assert len(agg) == 1
    row = agg[0]
    assert row["workload"] == "split-ratio"
    assert row["rows"] == 2
    assert row["min_speedup"] == 3.9
    assert row["max_speedup"] == 5.64
    assert row["mean_speedup"] == pytest.approx((3.9 + 5.64) / 2)


def test_run_resolution(store):
    first = store.record_run(_bench_manifest(), RECORDS[:1])
    second = store.record_run(_bench_manifest(benchmark="online-controller"), RECORDS[1:])

    assert store.get_run("latest").run_id == second
    assert store.get_run("latest:routing-backend").run_id == first
    assert store.get_run("latest:bench").run_id == second  # kind fallback
    assert store.get_run(first[:12] if first[:12] != second[:12] else first).run_id == first
    with pytest.raises(ResultsStoreError):
        store.get_run("no-such-run")
    with pytest.raises(ResultsStoreError):
        ResultsStore(store.path).get_run("latest:nope")


def test_run_resolution_ancestry(store):
    """``latest~N`` walks back N runs, git-style, within the selected family."""
    first = store.record_run(_bench_manifest(), RECORDS[:1])
    second = store.record_run(_bench_manifest(), RECORDS[:1])
    other = store.record_run(_bench_manifest(benchmark="online-controller"), RECORDS[1:])

    assert store.get_run("latest~0").run_id == other
    assert store.get_run("latest~1").run_id == second
    assert store.get_run("latest~2").run_id == first
    # Scoped ancestry: the previous run *of the same benchmark*, so CI can
    # diff consecutive sweeps.
    assert store.get_run("latest~1:routing-backend").run_id == first
    assert store.get_run("latest~0:online-controller").run_id == other
    with pytest.raises(ResultsStoreError):
        store.get_run("latest~3")  # only three runs exist
    with pytest.raises(ResultsStoreError):
        store.get_run("latest~1:online-controller")  # no earlier run
    with pytest.raises(ResultsStoreError):
        store.get_run("latest~x")  # malformed back-count


def test_delete_run_cascades(store):
    run_id = store.record_run(_bench_manifest(), RECORDS)
    assert store.delete_run(run_id) == run_id
    assert store.runs() == []
    with pytest.raises(ResultsStoreError):
        store.records(run_id)


def test_gc_retains_newest_per_family(store):
    routing = [store.record_run(_bench_manifest(), RECORDS[:1]) for _ in range(3)]
    online = store.record_run(
        _bench_manifest(benchmark="online-controller"), RECORDS[1:]
    )
    deleted = store.gc(keep_last=1)
    # The two oldest routing-backend runs go; the lone online run survives.
    assert sorted(deleted) == sorted(routing[:2])
    assert [m.run_id for m in store.runs(benchmark="routing-backend")] == [routing[-1]]
    assert [m.run_id for m in store.runs(benchmark="online-controller")] == [online]
    # Records cascade with their runs.
    with pytest.raises(ResultsStoreError):
        store.records(routing[0])
    assert store.gc(keep_last=1) == []
    with pytest.raises(ResultsStoreError):
        store.gc(keep_last=-1)


def test_gc_filters_by_family(store):
    routing = [store.record_run(_bench_manifest(), RECORDS[:1]) for _ in range(2)]
    online = [
        store.record_run(_bench_manifest(benchmark="online-controller"), RECORDS[1:])
        for _ in range(2)
    ]
    deleted = store.gc(keep_last=1, benchmark="online-controller")
    assert deleted == [online[0]]
    assert len(store.runs(benchmark="routing-backend")) == len(routing)


def test_gc_drops_cells_of_other_code_versions(store, monkeypatch):
    store.put_cells([("current", {"mlu": 0.5})])
    monkeypatch.setattr(runner_module, "CACHE_VERSION", runner_module.CACHE_VERSION - 1)
    store.put_cells([("old-cache-version", {"mlu": 0.25})])
    monkeypatch.undo()
    monkeypatch.setattr(repro, "__version__", "0.0.0-older")
    store.put_cells([("old-release", {"mlu": 0.125})])
    monkeypatch.undo()
    assert store.cell_count() == 3
    assert store.gc(keep_last=1) == []
    assert store.cell("old-cache-version") is None
    assert store.cell("old-release") is None
    assert store.cell("current") == {"mlu": 0.5}
    assert store.cell_count() == 1


# ----------------------------------------------------------------------
# BatchRunner integration
# ----------------------------------------------------------------------
def test_batch_runner_records_manifested_run(store):
    network = abilene_network()
    demands = abilene_traffic_matrix(network, total_volume=50.0, seed=1)
    scenarios = single_link_failures(network)[:4]
    runner = BatchRunner(max_workers=0, results_store=store)
    results = runner.run(
        network, demands, scenarios, ["OSPF"], record_config={"source": "unit-test"}
    )

    assert runner.last_run_id is not None
    manifest = store.get_run(runner.last_run_id)
    assert manifest.kind == "sweep"
    assert manifest.topology == network.name
    assert manifest.protocols == ("OSPF",)
    assert manifest.scenario_set == scenario_set_fingerprint(scenarios)
    assert manifest.config["scenarios"] == 4
    assert manifest.config["source"] == "unit-test"
    assert manifest.timings["elapsed"] >= 0.0

    records = store.records(runner.last_run_id)
    assert len(records) == len(results) == 4
    assert [r["scenario"] for r in records] == [s.scenario_id for s in scenarios]
    assert records[0]["mlu"] == pytest.approx(results[0].mlu, rel=1e-6)

    # Records carry the topology so query(topology=...) works for sweeps.
    rows = store.query(kind="sweep", topology=network.name)
    assert len(rows) == 4


def test_batch_runner_accepts_store_path(tmp_path):
    network = abilene_network()
    demands = abilene_traffic_matrix(network, total_volume=50.0, seed=1)
    runner = BatchRunner(max_workers=0, results_store=tmp_path / "sweeps.sqlite")
    runner.run(network, demands, single_link_failures(network)[:2], ["OSPF"])
    with ResultsStore(tmp_path / "sweeps.sqlite") as store:
        assert len(store.runs(kind="sweep")) == 1
        assert len(store.records(runner.last_run_id)) == 2


def test_traced_run_reads_no_cells_but_writes_them(tmp_path):
    network = abilene_network()
    demands = abilene_traffic_matrix(network, total_volume=50.0, seed=1)
    scenarios = single_link_failures(network)[:3]
    runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
    with telemetry.session():
        traced = runner.run(network, demands, scenarios, ["OSPF"])
    assert runner.last_stats.cache_hits == 0
    # The traced run wrote its cells: an untraced run is served from them.
    warm = runner.run(network, demands, scenarios, ["OSPF"])
    assert runner.last_stats.cache_hits == len(scenarios)
    assert [r.as_row() for r in warm] == [r.as_row() for r in traced]
    # Over a warm store a traced run still evaluates every cell.
    with telemetry.session() as registry:
        runner.run(network, demands, scenarios, ["OSPF"])
        assert registry.counter_value("runner.cells", outcome="cache-hit") == 0
    assert runner.last_stats.cache_hits == 0
    assert runner.last_stats.evaluated == len(scenarios)


# ----------------------------------------------------------------------
# diffs
# ----------------------------------------------------------------------
def test_diff_identical_runs_is_clean(store):
    a = store.record_run(_bench_manifest(), RECORDS)
    b = store.record_run(_bench_manifest(), RECORDS)
    diff = store.diff(a, b)
    assert diff.ok
    assert diff.comparable
    assert diff.mismatches == []
    assert not diff.only_in_a and not diff.only_in_b


def test_diff_metric_mismatch_is_hard_but_timing_is_not(store):
    a = store.record_run(_bench_manifest(), RECORDS)
    moved = json.loads(json.dumps(RECORDS))
    moved[0]["python_seconds"] = 9.9  # timing: informational
    moved[0]["max_abs_load_diff"] = 0.5  # residual metric: hard
    b = store.record_run(_bench_manifest(), moved)

    diff = store.diff(a, b)
    assert not diff.ok
    failing = {entry.key for entry in diff.hard_mismatches}
    assert failing == {"max_abs_load_diff"}
    drifting = {entry.key for entry in diff.mismatches} - failing
    assert "python_seconds" in drifting


def test_diff_downgrades_values_when_workload_flags_differ(store):
    full = store.record_run(_bench_manifest(smoke=False), [{**RECORDS[0], "cost": 100.0}])
    smoke_records = [{**RECORDS[0], "matrices": 12, "cost": 140.0, "max_abs_load_diff": 3e-16}]
    smoke = store.record_run(_bench_manifest(smoke=True), smoke_records)

    diff = store.diff(full, smoke)
    assert not diff.comparable
    # The cost moved 40% but the workloads are incomparable: informational.
    assert diff.ok
    assert any(e.key == "cost" and not e.matches and not e.hard for e in diff.entries)

    # A residual blowing up stays a hard failure even across smoke/full.
    broken = store.record_run(
        _bench_manifest(smoke=True), [{**smoke_records[0], "max_abs_load_diff": 0.25}]
    )
    assert not store.diff(full, broken).ok


def test_diff_reports_unmatched_records_and_fails(store):
    a = store.record_run(_bench_manifest(), RECORDS)
    b = store.record_run(_bench_manifest(), RECORDS[:1])
    diff = store.diff(a, b)
    assert diff.only_in_a == ["rocketfuel/split-ratio"]
    assert diff.only_in_b == []
    # A vanished record must not slip through the gate as "nothing failed".
    assert not diff.ok


def test_nonfinite_metrics_are_stored_as_json_safe_strings(store):
    run_id = store.record_run(
        _bench_manifest(),
        [{**RECORDS[0], "mlu": float("inf"), "utility": float("-inf"), "gap": float("nan")}],
    )
    (record,) = store.records(run_id)
    assert record["mlu"] == "Infinity"
    assert record["utility"] == "-Infinity"
    assert record["gap"] == "NaN"
    # The strings survive strict JSON and compare exactly across runs.
    json.loads(json.dumps(store.query(run=run_id)))
    other = store.record_run(_bench_manifest(), [{**RECORDS[0], "mlu": float("inf")}])
    assert not any(e.key == "mlu" and not e.matches for e in store.diff(run_id, other).entries)


def test_field_classification():
    assert classify_field("sparse_seconds") == "timing"
    assert classify_field("speedup_vs_sparse_rebuild") == "timing"
    assert classify_field("warm_evaluations") == "timing"
    assert classify_field("cached") == "timing"
    assert classify_field("matrices") == "shape"
    assert classify_field("dspt.full_rebuilds") == "shape"
    assert classify_field("mlu") == "metric"
    assert classify_field("max_abs_load_diff") == "metric"
    assert flatten_record({"a": {"b": 1}, "c": 2}) == {"a.b": 1, "c": 2}


# ----------------------------------------------------------------------
# bench views: the committed BENCH_*.json files are store exports
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    # NB: the second parameter must not be called "benchmark" — that name is
    # pytest-benchmark's fixture, and parametrizing over it breaks the plugin.
    "filename,bench_name",
    [("BENCH_routing.json", "routing-backend"), ("BENCH_online.json", "online-controller")],
)
def test_committed_views_roundtrip_byte_identical(store, filename, bench_name):
    """import -> export reproduces the committed artifact byte-for-byte."""
    path = REPO_ROOT / filename
    run_id = store.import_bench_view(path)
    manifest = store.get_run(run_id)
    assert manifest.kind == "view-import"
    assert manifest.benchmark == bench_name
    assert store.export_bench_view(bench_name, run=run_id) == path.read_text()


def test_export_is_byte_stable_across_reexports(store, tmp_path):
    source = REPO_ROOT / "BENCH_routing.json"
    first = store.import_bench_view(source)
    exported = tmp_path / "view.json"
    store.export_bench_view("routing-backend", run=first, path=exported)

    second = store.import_bench_view(exported)
    re_exported = store.export_bench_view("routing-backend", run=second)
    assert re_exported == exported.read_text() == source.read_text()

    # ...and the two imported runs are identical under diff.
    assert store.diff(first, second).ok


def test_export_rejects_benchmark_mismatch_and_missing_runs(store, tmp_path):
    run_id = store.import_bench_view(REPO_ROOT / "BENCH_routing.json")
    with pytest.raises(ResultsStoreError):
        store.export_bench_view("online-controller", run=run_id)
    with pytest.raises(ResultsStoreError):
        store.export_bench_view("online-controller")  # nothing recorded

    bad = tmp_path / "not-a-view.json"
    bad.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ResultsStoreError):
        load_bench_view(bad)
