"""The ``repro`` CLI: parsing, exit codes, and end-to-end subcommand flows."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import (
    BENCH_MODULES,
    CLIError,
    SCENARIO_SETS,
    TOPOLOGIES,
    build_parser,
    main,
    parse_protocols,
)
from repro.results import ResultsStore
from repro.results.diffing import classify_field

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv: str) -> int:
    return main(list(argv))


# ----------------------------------------------------------------------
# parsing and exit codes
# ----------------------------------------------------------------------
def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--help")
    assert excinfo.value.code == 0
    assert "sweep" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "replay", "bench", "results"])
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(command, "--help")
    assert excinfo.value.code == 0
    assert command in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli()
    assert excinfo.value.code == 2


def test_unknown_topology_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("sweep", "--topology", "not-a-topology", "--store", str(tmp_path / "r.sqlite"))
    assert excinfo.value.code == 2


def test_unknown_run_reference_exits_two(tmp_path, capsys):
    code = run_cli("results", "show", "nope", "--store", str(tmp_path / "r.sqlite"))
    assert code == 2
    assert "unknown run" in capsys.readouterr().err


def test_bench_rejects_contradictory_smoke_full(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("bench", "--smoke", "--full", "--store", str(tmp_path / "r.sqlite"))
    assert excinfo.value.code == 2


def test_bench_rejects_missing_benchmarks_dir(tmp_path, capsys):
    code = run_cli(
        "bench",
        "--benchmarks-dir", str(tmp_path / "nowhere"),
        "--store", str(tmp_path / "r.sqlite"),
    )
    assert code == 2
    assert "benchmarks directory" in capsys.readouterr().err


def test_registries_are_wired():
    parser = build_parser()
    assert parser is not None
    assert "abilene" in TOPOLOGIES
    assert "single-link-failures" in SCENARIO_SETS
    assert set(BENCH_MODULES) == {"routing", "online"}


# ----------------------------------------------------------------------
# protocol parameter passthrough
# ----------------------------------------------------------------------
def test_parse_protocols_passthrough():
    specs = parse_protocols("OSPF,SPEF:beta=2.0,FortzThorup:seed=1:restarts=2")
    assert [spec.protocol for spec in specs] == ["OSPF", "SPEF", "FortzThorup"]
    assert dict(specs[1].params) == {"beta": 2.0}
    assert dict(specs[2].params) == {"seed": 1, "restarts": 2}
    # Parameters reach the built protocol (beta configures SPEF's objective).
    assert specs[1].build() is not None
    assert specs[1].display_name == "SPEF(beta=2.0)"


def test_parse_protocols_coercion_and_errors():
    (spec,) = parse_protocols("OSPF:name=InvCap")
    assert dict(spec.params) == {"name": "InvCap"}
    with pytest.raises(CLIError):
        parse_protocols("NotAProtocol")
    with pytest.raises(CLIError):
        parse_protocols("SPEF:beta2.0")  # missing '='
    with pytest.raises(CLIError):
        parse_protocols("")
    # A typo'd parameter key is a usage error up front, never a recorded
    # sweep of all-infeasible cells.
    with pytest.raises(CLIError):
        parse_protocols("SPEF:bogus=1")


def test_sweep_accepts_protocol_parameters_and_parallel(tmp_path, capsys):
    store_path = tmp_path / "r.sqlite"
    code = run_cli(
        "sweep",
        "--topology", "abilene",
        "--protocols", "MinHopOSPF,OSPF:ecmp_tolerance=0.5",
        "--scenarios", "single-link-failures",
        "--limit", "4",
        "--parallel",
        "--store", str(store_path),
    )
    assert code == 0
    capsys.readouterr()
    with ResultsStore(store_path) as store:
        runs = store.runs(kind="sweep")
        assert len(runs) == 1
        assert runs[0].config["parallel"] is True
        protocols = set(runs[0].protocols)
        assert protocols == {"MinHopOSPF", "OSPF(ecmp_tolerance=0.5)"}
        assert len(store.records(runs[0].run_id)) == 8


def test_replay_with_closed_loop_policy_records(tmp_path, capsys):
    store_path = tmp_path / "r.sqlite"
    code = run_cli(
        "replay",
        "--topology", "abilene",
        "--limit", "2",
        "--policy", "closed-loop",
        "--mlu-target", "0.5",
        "--hold", "10",
        "--reopt-evaluations", "20",
        "--store", str(store_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "policy closed-loop" in out
    with ResultsStore(store_path) as store:
        (run,) = store.runs(kind="replay")
        assert run.config["policy"] == "closed-loop"
        assert run.config["reoptimizations"] >= 1
        records = store.records(run.run_id)
        assert all("reoptimizations" in record for record in records)


# ----------------------------------------------------------------------
# sweep / replay record into the store
# ----------------------------------------------------------------------
def test_sweep_records_run_and_prints_summary(tmp_path, capsys):
    store_path = tmp_path / "r.sqlite"
    code = run_cli(
        "sweep",
        "--topology", "abilene",
        "--protocols", "OSPF",
        "--scenarios", "single-link-failures",
        "--limit", "3",
        "--store", str(store_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Robustness summary" in out
    assert "recorded run" in out
    with ResultsStore(store_path) as store:
        runs = store.runs(kind="sweep")
        assert len(runs) == 1
        assert runs[0].topology == "Abilene"
        assert runs[0].config["scenario_set_name"] == "single-link-failures"
        assert len(store.records(runs[0].run_id)) == 3


def test_replay_records_one_row_per_outage(tmp_path, capsys):
    store_path = tmp_path / "r.sqlite"
    code = run_cli(
        "replay",
        "--topology", "abilene",
        "--limit", "2",
        "--store", str(store_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Per-outage sustained state" in out
    assert "worst outage" in out
    with ResultsStore(store_path) as store:
        runs = store.runs(kind="replay")
        assert len(runs) == 1
        records = store.records(runs[0].run_id)
        assert len(records) == 2
        assert all("mlu" in record and "scenario" in record for record in records)


# ----------------------------------------------------------------------
# results subcommands end to end
# ----------------------------------------------------------------------
@pytest.fixture
def seeded_store(tmp_path) -> Path:
    """A store holding the two committed bench views as imported runs."""
    store_path = tmp_path / "r.sqlite"
    code = main(
        [
            "results", "import",
            str(REPO_ROOT / "BENCH_routing.json"),
            str(REPO_ROOT / "BENCH_online.json"),
            "--store", str(store_path),
        ]
    )
    assert code == 0
    return store_path


def test_results_list_and_show(seeded_store, capsys):
    assert run_cli("results", "list", "--store", str(seeded_store)) == 0
    out = capsys.readouterr().out
    assert "routing-backend" in out and "online-controller" in out

    assert run_cli(
        "results", "show", "latest:routing-backend", "--json", "--store", str(seeded_store)
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["benchmark"] == "routing-backend"
    assert len(payload["records"]) == 4


def test_results_query_filters(seeded_store, capsys):
    assert run_cli(
        "results", "query",
        "--benchmark", "routing-backend",
        "--workload", "ecmp-sweep",
        "--json",
        "--store", str(seeded_store),
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert {row["topology"] for row in rows} == {"abilene", "rocketfuel"}


def test_results_export_reproduces_committed_views(seeded_store, tmp_path, capsys):
    """The acceptance flow: exported views match BENCH_*.json byte-for-byte."""
    for bench_name, filename in [
        ("routing-backend", "BENCH_routing.json"),
        ("online-controller", "BENCH_online.json"),
    ]:
        out_path = tmp_path / f"exported-{filename}"
        assert run_cli(
            "results", "export", bench_name,
            "-o", str(out_path),
            "--store", str(seeded_store),
        ) == 0
        assert out_path.read_bytes() == (REPO_ROOT / filename).read_bytes()
    capsys.readouterr()


def test_results_export_is_byte_stable_across_reexport(seeded_store, tmp_path, capsys):
    first = tmp_path / "first.json"
    assert run_cli(
        "results", "export", "routing-backend", "-o", str(first), "--store", str(seeded_store)
    ) == 0
    assert run_cli("results", "import", str(first), "--store", str(seeded_store)) == 0
    second = tmp_path / "second.json"
    assert run_cli(
        "results", "export", "routing-backend", "-o", str(second), "--store", str(seeded_store)
    ) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_results_diff_clean_and_exit_codes(seeded_store, capsys):
    """Diffing a run against the view it was imported from is clean (exit 0)."""
    code = run_cli(
        "results", "diff",
        "latest:routing-backend",
        str(REPO_ROOT / "BENCH_routing.json"),
        "--store", str(seeded_store),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: no hard metric mismatches" in out


def test_results_diff_hard_failure_sets_exit_code(seeded_store, tmp_path, capsys):
    view = json.loads((REPO_ROOT / "BENCH_routing.json").read_text())
    view["results"][0]["max_abs_load_diff"] = 0.5  # a correctness regression
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(view))

    code = run_cli(
        "results", "diff",
        "latest:routing-backend", str(broken),
        "--store", str(seeded_store),
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out

    # --fail-on none reports the same mismatch but keeps the exit code 0.
    code = run_cli(
        "results", "diff",
        "latest:routing-backend", str(broken),
        "--fail-on", "none",
        "--store", str(seeded_store),
    )
    capsys.readouterr()
    assert code == 0


def test_results_diff_missing_record_sets_exit_code(seeded_store, tmp_path, capsys):
    view = json.loads((REPO_ROOT / "BENCH_routing.json").read_text())
    del view["results"][0]  # a benchmark record vanished
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(view))

    code = run_cli(
        "results", "diff",
        "latest:routing-backend", str(truncated),
        "--store", str(seeded_store),
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "present on one side only" in out


def test_results_diff_timing_drift_is_informational(seeded_store, tmp_path, capsys):
    view = json.loads((REPO_ROOT / "BENCH_routing.json").read_text())
    view["results"][0]["sparse_seconds"] *= 10  # timing drift only
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(view))

    code = run_cli(
        "results", "diff",
        "latest:routing-backend", str(drifted),
        "--store", str(seeded_store),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "drift" in out
    assert "OK: no hard metric mismatches" in out


def test_results_gc_keeps_newest_per_family(seeded_store, capsys):
    # Import the routing view twice more: 3 view-import runs of
    # routing-backend, 1 of online-controller.
    for _ in range(2):
        assert run_cli(
            "results", "import", str(REPO_ROOT / "BENCH_routing.json"),
            "--store", str(seeded_store),
        ) == 0
    assert run_cli(
        "results", "gc", "--keep-last", "1", "--store", str(seeded_store)
    ) == 0
    out = capsys.readouterr().out
    assert "deleted 2 run(s)" in out
    with ResultsStore(seeded_store) as store:
        assert len(store.runs(benchmark="routing-backend")) == 1
        # The other family is untouched: retention is per (kind, benchmark).
        assert len(store.runs(benchmark="online-controller")) == 1
    # A second gc has nothing to do.
    assert run_cli(
        "results", "gc", "--keep-last", "1", "--store", str(seeded_store)
    ) == 0
    assert "nothing to delete" in capsys.readouterr().out


def test_results_gc_reports_stale_cells(seeded_store, capsys, monkeypatch):
    from repro.scenarios import runner as runner_module

    with ResultsStore(seeded_store) as store:
        store.put_cells([("current", {"mlu": 0.5})])
        monkeypatch.setattr(runner_module, "CACHE_VERSION", 0)
        store.put_cells([("stale", {"mlu": 0.25})])
    monkeypatch.undo()
    assert run_cli(
        "results", "gc", "--keep-last", "1", "--store", str(seeded_store)
    ) == 0
    out = capsys.readouterr().out
    assert "deleted 1 stale sweep cell(s)" in out
    assert "nothing to delete" not in out
    with ResultsStore(seeded_store) as store:
        assert store.cell_count() == 1


def test_results_delete(seeded_store, capsys):
    assert run_cli(
        "results", "delete", "latest:online-controller", "--store", str(seeded_store)
    ) == 0
    capsys.readouterr()
    with ResultsStore(seeded_store) as store:
        assert store.runs(benchmark="online-controller") == []
        assert len(store.runs(benchmark="routing-backend")) == 1


# ----------------------------------------------------------------------
# telemetry surface: trace, results plot, --format
# ----------------------------------------------------------------------
def test_trace_sweep_writes_jsonl_and_summary(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code = run_cli(
        "trace", "sweep",
        "--topology", "abilene",
        "--protocols", "OSPF",
        "--scenarios", "single-link-failures",
        "--limit", "4",
        "--trace", str(trace_path),
        "--summary",
        "--store", str(tmp_path / "r.sqlite"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "trace line(s)" in out
    assert "telemetry summary" in out
    assert "dspt.update" in out  # dirty-row recompute counters surfaced
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines[0]["type"] == "meta"
    assert any(rec["type"] == "span" and rec["name"] == "controller.cell" for rec in lines)
    assert any(
        rec["type"] == "counter" and rec["name"] == "dspt.update"
        for rec in lines
    )
    # The traced sweep persisted its telemetry digest into the manifest.
    with ResultsStore(tmp_path / "r.sqlite") as store:
        (run,) = store.runs(kind="sweep")
        assert "dspt_incremental_updates" in run.timings
        telemetry_records = [
            record for record in store.records(run.run_id)
            if record.get("scenario") == "__telemetry__"
        ]
        assert len(telemetry_records) == 1
        assert telemetry_records[0]["rows_recomputed"] > 0


def test_trace_replay_writes_jsonl(tmp_path, capsys):
    trace_path = tmp_path / "replay.jsonl"
    code = run_cli(
        "trace", "replay",
        "--topology", "abilene",
        "--limit", "2",
        "--trace", str(trace_path),
        "--store", str(tmp_path / "r.sqlite"),
    )
    assert code == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert any(
        rec["type"] == "span" and rec["name"] == "replay.trace" for rec in lines
    )
    assert any(
        rec["type"] == "histogram" and rec["name"] == "replay.sustained_mlu"
        for rec in lines
    )
    with ResultsStore(tmp_path / "r.sqlite") as store:
        (run,) = store.runs(kind="replay")
        assert "incremental_updates" in run.timings


def test_trace_sweep_profiling_exports_and_records(tmp_path, capsys):
    """--memory/--chrome-trace/--flamegraph ride one traced sweep."""
    trace_path = tmp_path / "trace.jsonl"
    chrome_path = tmp_path / "chrome.json"
    flame_path = tmp_path / "flame.txt"
    code = run_cli(
        "trace", "sweep",
        "--topology", "abilene",
        "--protocols", "OSPF",
        "--scenarios", "single-link-failures",
        "--limit", "3",
        "--trace", str(trace_path),
        "--chrome-trace", str(chrome_path),
        "--flamegraph", str(flame_path),
        "--memory",
        "--store", str(tmp_path / "r.sqlite"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert str(chrome_path) in out and str(flame_path) in out
    # Schema-2 jsonl with memory meta and derived aggregate lines.
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines[0]["schema"] == 2 and lines[0]["memory"] is True
    assert any(rec["type"] == "span_stats" for rec in lines)
    assert all("alloc" in rec for rec in lines if rec["type"] == "span")
    # Chrome trace: complete events under a top-level traceEvents list.
    chrome = json.loads(chrome_path.read_text())
    assert any(event["ph"] == "X" for event in chrome["traceEvents"])
    # Flamegraph: collapsed stacks with integer sample values.
    rows = flame_path.read_text().splitlines()
    assert rows and all(row.rpartition(" ")[2].isdigit() for row in rows)
    assert any("controller.sweep;controller.cell" in row for row in rows)
    # The run persisted per-span __profile__ records for `results perf`.
    with ResultsStore(tmp_path / "r.sqlite") as store:
        (run,) = store.runs(kind="sweep")
        profile = [
            record for record in store.records(run.run_id)
            if record.get("scenario") == "__profile__"
        ]
        assert profile and all("self_seconds" in record for record in profile)
        assert {record["span"] for record in profile} >= {"controller.cell"}


def test_traced_sweep_rows_recomputed_match_serial_and_parallel(tmp_path, capsys):
    """Serial and --parallel sweeps recompute the same rows; the diff gates it."""
    store = str(tmp_path / "r.sqlite")
    for mode in ("--workers=0", "--parallel"):
        assert run_cli(
            "trace", "sweep",
            "--topology", "abilene",
            "--protocols", "OSPF",
            "--scenarios", "single-link-failures",
            mode,
                "--trace", str(tmp_path / f"t{mode}.jsonl"),
            "--store", store,
        ) == 0
    capsys.readouterr()
    with ResultsStore(store) as results:
        digests = [
            [rec for rec in results.records(run.run_id) if rec.get("scenario") == "__telemetry__"]
            for run in results.runs(kind="sweep")
        ]
    assert [len(digest) for digest in digests] == [1, 1]
    assert digests[0][0]["rows_recomputed"] == digests[1][0]["rows_recomputed"] > 0
    assert run_cli("results", "diff", "latest~1:sweep", "latest:sweep", "--store", store) == 0
    # Drift in the count would be a hard mismatch, not informational.
    assert classify_field("rows_recomputed") == "metric"


def test_results_plot_terminal_and_png(tmp_path, capsys):
    store_path = tmp_path / "r.sqlite"
    # Two runs so there is a trend to draw.
    for utilization in ("0.1", "0.12"):
        assert run_cli(
            "sweep",
            "--topology", "abilene",
            "--protocols", "OSPF",
            "--scenarios", "single-link-failures",
            "--limit", "3",
            "--utilization", utilization,
                "--store", str(store_path),
        ) == 0
    capsys.readouterr()
    png_path = tmp_path / "trend.png"
    code = run_cli(
        "results", "plot",
        "--metric", "max_utilization",
        "--agg", "max",
        "--png", str(png_path),
        "--store", str(store_path),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "max_utilization" in out and "n=2" in out
    assert f"wrote {png_path}" in out
    assert png_path.read_bytes().startswith(b"\x89PNG\r\n\x1a\n")

    code = run_cli(
        "results", "plot", "--metric", "not_a_metric", "--store", str(store_path)
    )
    assert code == 2
    assert "no numeric values" in capsys.readouterr().err


def test_write_png_rejects_empty_series(tmp_path):
    from repro.results.plotting import PlotError, TrendPoint, TrendSeries, write_png

    with pytest.raises(PlotError, match="nothing to plot"):
        write_png(str(tmp_path / "empty.png"), [])
    with pytest.raises(PlotError, match="nothing to plot"):
        write_png(str(tmp_path / "empty.png"), [TrendSeries(label="s", points=[])])
    assert not (tmp_path / "empty.png").exists()
    series = [TrendSeries(label="s", points=[
        TrendPoint(run_id="r1", created_at="t1", git_sha="sha", value=1.0),
        TrendPoint(run_id="r2", created_at="t2", git_sha="sha", value=2.0),
    ])]
    write_png(str(tmp_path / "trend.png"), series)
    assert (tmp_path / "trend.png").read_bytes().startswith(b"\x89PNG\r\n\x1a\n")


def test_results_format_flags(seeded_store, capsys):
    assert run_cli(
        "results", "list", "--format", "csv", "--store", str(seeded_store)
    ) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("run,kind,benchmark")
    assert len(rows) == 2

    assert run_cli(
        "results", "query",
        "--benchmark", "routing-backend",
        "--format", "json",
        "--store", str(seeded_store),
    ) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed and all("run_id" in row for row in parsed)

    assert run_cli(
        "results", "query",
        "--benchmark", "routing-backend",
        "--format", "csv",
        "--store", str(seeded_store),
    ) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("run_id,")
    assert len(csv_out.splitlines()) == len(parsed) + 1

    assert run_cli(
        "results", "show", "latest:routing-backend",
        "--format", "csv",
        "--store", str(seeded_store),
    ) == 0
    shown = capsys.readouterr().out
    assert shown.splitlines()[0].count(",") >= 2  # records-only CSV

    with pytest.raises(SystemExit):  # argparse rejects unknown formats
        run_cli("results", "list", "--format", "yaml", "--store", str(seeded_store))


# ----------------------------------------------------------------------
# event traces and the serve daemon
# ----------------------------------------------------------------------
def test_serve_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("serve", "--help")
    assert excinfo.value.code == 0
    assert "--replay-trace" in capsys.readouterr().out


def test_replay_export_trace_then_trace_file_matches(tmp_path, capsys):
    store_path = tmp_path / "r.sqlite"
    trace_path = tmp_path / "trace.jsonl"
    assert run_cli(
        "replay",
        "--limit", "2",
        "--export-trace", str(trace_path),
        "--store", str(store_path),
    ) == 0
    assert "wrote 8 event(s)" in capsys.readouterr().out
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert all(line["v"] == 1 and "event" in line for line in lines)

    assert run_cli(
        "replay",
        "--trace-file", str(trace_path),
        "--store", str(store_path),
    ) == 0
    assert "replayed 8 events from" in capsys.readouterr().out
    with ResultsStore(store_path) as store:
        runs = store.runs(kind="replay")
        assert len(runs) == 2  # the exporting run and the trace-file run
        records = store.records(runs[0].run_id)
        event_records = [r for r in records if r.get("scenario", "").startswith("event-")]
        assert len(event_records) == 8
        assert all("mlu" in r and "kind" in r for r in event_records)


def test_replay_rejects_trace_file_with_export_trace(tmp_path, capsys):
    code = run_cli(
        "replay",
        "--trace-file", "a.jsonl",
        "--export-trace", "b.jsonl",
        "--store", str(tmp_path / "r.sqlite"),
    )
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_replay_malformed_trace_exits_two_with_line_number(tmp_path, capsys):
    trace_path = tmp_path / "bad.jsonl"
    trace_path.write_text(
        '{"v": 1, "event": "noop", "time": 0.0}\n'
        '{"v": 1, "event": "link-failure", "time": 1.0}\n'
    )
    code = run_cli(
        "replay", "--trace-file", str(trace_path), "--store", str(tmp_path / "r.sqlite")
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:2" in err and "missing field" in err


def test_serve_malformed_trace_exits_two_with_line_number(tmp_path, capsys):
    trace_path = tmp_path / "bad.jsonl"
    trace_path.write_text("not json\n")
    code = run_cli(
        "serve", "--replay-trace", str(trace_path), "--store", str(tmp_path / "r.sqlite")
    )
    assert code == 2
    assert "bad.jsonl:1" in capsys.readouterr().err


def test_serve_soak_rejects_multiple_topologies(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text('{"v": 1, "event": "noop", "time": 0.0}\n')
    code = run_cli(
        "serve",
        "--topology", "abilene",
        "--topology", "cernet2",
        "--replay-trace", str(trace_path),
        "--store", str(tmp_path / "r.sqlite"),
    )
    assert code == 2
    assert "exactly one session" in capsys.readouterr().err


def test_serve_soak_diffs_clean_against_batch_replay(tmp_path, capsys):
    """The acceptance path CI gates on: socket soak == batch replay."""
    store_path = tmp_path / "r.sqlite"
    trace_path = tmp_path / "trace.jsonl"
    dump_path = tmp_path / "state.json"
    assert run_cli(
        "replay",
        "--limit", "3",
        "--export-trace", str(trace_path),
        "--store", str(store_path),
    ) == 0
    assert run_cli(
        "replay",
        "--trace-file", str(trace_path),
        "--store", str(store_path),
    ) == 0
    assert run_cli(
        "serve",
        "--replay-trace", str(trace_path),
        "--state-dump", str(dump_path),
        "--store", str(store_path),
    ) == 0
    out = capsys.readouterr().out
    assert "soaked 12 events through the serve socket" in out
    assert dump_path.exists()

    code = run_cli(
        "results", "diff",
        "latest:replay", "latest:serve",
        "--rtol", "1e-12", "--atol", "1e-15",
        "--store", str(store_path),
    )
    assert code == 0
    diff_out = capsys.readouterr().out
    assert "0 hard mismatch(es)" in diff_out
    assert "OK: no hard metric mismatches" in diff_out

    with ResultsStore(store_path) as store:
        (serve_run,) = store.runs(kind="serve")
        assert serve_run.config["command"] == "serve"
        assert serve_run.config["events"] == 12
