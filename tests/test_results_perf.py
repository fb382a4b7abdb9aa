"""The span-timing history and statistical perf-regression gate.

The gate's contract, pinned with synthetic store runs (deterministic
numbers, no real timing):

* a genuine 2x slowdown against a stable history is flagged;
* an unmodified re-run (head inside the noise band) passes;
* with a single baseline run (CI's ``latest~1`` case) the MAD is zero and
  the absolute/relative floors alone carry the noise allowance;
* spans without history are *new* (informational), spans that disappeared
  are *vanished* (informational) — neither fails the gate;
* untraced runs cannot be gated (:class:`PerfError`), and the CLI maps
  gate outcomes to exit codes 0/1.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.results import PerfError, ResultsStore, gate
from repro.results.manifest import RunManifest

TOPOLOGY = "Abilene"


def _profile_record(span: str, self_seconds: float) -> dict:
    return {
        "scenario": "__profile__",
        "kind": "profile",
        "protocol": "*",
        "topology": TOPOLOGY,
        "workload": span,
        "span": span,
        "count": 4,
        "wall_seconds": self_seconds * 1.25,
        "cpu_seconds": self_seconds,
        "self_seconds": self_seconds,
        "self_p50_seconds": self_seconds / 4,
        "self_p95_seconds": self_seconds / 2,
        "self_max_seconds": self_seconds / 2,
    }


def _record_run(store, stamp: str, spans: dict, sha: str = "cafe0000") -> str:
    """One synthetic traced sweep: ``spans`` maps span name -> self seconds."""
    manifest = RunManifest(
        run_id=f"run-{stamp}",
        kind="sweep",
        created_at=f"2026-08-01T{stamp}Z",
        git_sha=sha,
        topology=TOPOLOGY,
    )
    records = [
        {"scenario": "baseline", "protocol": "ospf", "topology": TOPOLOGY, "mlu": 0.5},
    ] + [_profile_record(span, value) for span, value in spans.items()]
    return store.record_run(manifest, records)


@pytest.fixture
def store(tmp_path):
    with ResultsStore(tmp_path / "results.sqlite") as s:
        yield s


@pytest.fixture
def history(store):
    """Five baseline runs with ~0.100s self time (deterministic jitter)."""
    jitters = (0.100, 0.102, 0.098, 0.101, 0.099)
    for index, value in enumerate(jitters):
        _record_run(
            store,
            f"00:0{index}:00",
            {"controller.cell": value, "dspt.update": value / 10},
        )
    return store


def test_gate_flags_synthetic_2x_slowdown(history):
    head = _record_run(
        history, "01:00:00", {"controller.cell": 0.200, "dspt.update": 0.010}
    )
    report = gate(history, "latest~1", head)
    assert not report.ok
    (regressed,) = report.regressions
    assert regressed.span == "controller.cell"
    assert regressed.head == pytest.approx(0.200)
    assert regressed.baseline_median == pytest.approx(0.100)
    assert regressed.samples == 5
    # The small span moved 2x too but sits under the absolute floor.
    assert {v.span for v in report.verdicts if not v.regressed} == {"dspt.update"}
    assert "1 regression(s)" in report.summary()


def test_gate_passes_unmodified_rerun(history):
    head = _record_run(
        history, "01:00:00", {"controller.cell": 0.101, "dspt.update": 0.010}
    )
    report = gate(history, "latest~1", head)
    assert report.ok and not report.regressions
    assert len(report.verdicts) == 2
    assert not report.new_spans and not report.vanished_spans


def test_gate_single_baseline_floors_carry_the_band(store):
    """CI gates latest~1..latest: one baseline run, MAD = 0."""
    _record_run(store, "00:00:00", {"controller.cell": 0.100})
    head = _record_run(store, "01:00:00", {"controller.cell": 0.149})
    report = gate(store, "latest~1", head, rel_floor=0.5)
    (verdict,) = report.verdicts
    assert verdict.mad == 0.0
    assert verdict.threshold == pytest.approx(0.150)  # median + 0.5*median
    assert report.ok
    # Past the relative floor the same setup fails.
    over = _record_run(store, "02:00:00", {"controller.cell": 0.151})
    assert not gate(store, "latest~2", over, rel_floor=0.5).ok


def test_gate_new_and_vanished_spans_are_informational(history):
    head = _record_run(history, "01:00:00", {"controller.cell": 0.100, "fresh.span": 9.0})
    report = gate(history, "latest~1", head)
    assert report.ok  # a 9-second *new* span never fails the gate
    assert report.new_spans == ["fresh.span"]
    assert report.vanished_spans == ["dspt.update"]
    assert "fresh.span" in report.summary()


def test_gate_rejects_untraced_runs(store, history):
    untraced = RunManifest(
        run_id="run-untraced",
        kind="sweep",
        created_at="2026-08-01T02:00:00Z",
        git_sha="cafe0000",
        topology=TOPOLOGY,
    )
    store.record_run(untraced, [{"scenario": "baseline", "protocol": "ospf",
                                 "topology": TOPOLOGY, "mlu": 0.5}])
    with pytest.raises(PerfError, match="no '__profile__' records"):
        gate(store, "latest~1", "run-untraced")
    with pytest.raises(PerfError, match="window must be >= 1"):
        gate(store, "latest~1", "latest", window=0)


def test_gate_requires_profiled_baselines(store):
    for stamp in ("00:00:00", "00:01:00"):
        manifest = RunManifest(
            run_id=f"run-plain-{stamp}",
            kind="sweep",
            created_at=f"2026-08-01T{stamp}Z",
            git_sha="cafe0000",
            topology=TOPOLOGY,
        )
        store.record_run(manifest, [{"scenario": "baseline", "protocol": "ospf",
                                     "topology": TOPOLOGY, "mlu": 0.5}])
    head = _record_run(store, "01:00:00", {"controller.cell": 0.1})
    with pytest.raises(PerfError, match="nothing to gate against"):
        gate(store, "latest~1", head, window=2)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_perf_gate_exit_codes(tmp_path, capsys):
    db = tmp_path / "results.sqlite"
    with ResultsStore(db) as store:
        _record_run(store, "00:00:00", {"controller.cell": 0.100})
        _record_run(store, "01:00:00", {"controller.cell": 0.500})
    assert main(["results", "perf", "--gate", "latest~1..latest",
                 "--store", str(db)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "FAIL: 1 span(s) regressed" in out
    ok_db = tmp_path / "ok.sqlite"
    with ResultsStore(ok_db) as store:
        _record_run(store, "00:00:00", {"controller.cell": 0.100})
        _record_run(store, "01:00:00", {"controller.cell": 0.101})
    assert main(["results", "perf", "--gate", "latest~1..latest",
                 "--store", str(ok_db), "--all"]) == 0
    assert "OK: no span regressed" in capsys.readouterr().out
    # Malformed references are usage errors, not crashes.
    assert main(["results", "perf", "--gate", "latest",
                 "--store", str(db)]) == 2


def test_cli_perf_trend_renders_spans(tmp_path, capsys):
    """Span trends are a `results plot` view over the __profile__ records."""
    db = tmp_path / "results.sqlite"
    with ResultsStore(db) as store:
        for index in range(3):
            _record_run(store, f"00:0{index}:00", {"controller.cell": 0.1 + index / 100})
    assert main(["results", "plot", "--scenario", "__profile__",
                 "--metric", "self_seconds", "--agg", "sum", "--by", "span",
                 "--store", str(db)]) == 0
    out = capsys.readouterr().out
    assert "controller.cell" in out and "self_seconds" in out
    assert "last=0.12" in out


def test_cli_perf_without_gate_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["results", "perf", "--store", str(tmp_path / "results.sqlite")])
    assert excinfo.value.code == 2
    assert "--gate" in capsys.readouterr().err
