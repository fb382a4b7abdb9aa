"""The benchmark's own tests (kept out of the repo's default test collection).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

A short smoke pass of every workload checks each metric's name and unit
against ``BENCHMARK.json``; two traced runs at one seed must repeat the work
counts exactly.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Counts that depend only on the inputs, never on timing.
WORK_COUNTS = (
    "solvers.fw.iterations",
    "core.nem.iterations",
    "network.spt.dag_calls",
    "online.dspt.incremental_updates",
    "online.dspt.event_fallbacks",
    "online.dspt.event_fallback_rate",
    "online.dspt.nodes_recomputed",
    "serve.frames_ok",
)


def run_bench(workload: str, trace: int, seed: int = 3) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


bench = functools.cache(run_bench)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_exactly(workload: str) -> None:
    first = bench(workload, 1)["metrics"]
    second = run_bench(workload, 1)["metrics"]
    assert {k: first[k]["value"] for k in WORK_COUNTS} == {
        k: second[k]["value"] for k in WORK_COUNTS
    }


def test_workload_records_cover_every_workload() -> None:
    records = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    assert sorted(records) == sorted(WORKLOADS)
    for record in records.values():
        assert {"why", "stresses", "bypasses", "loop", "op_tail", "seed"} <= set(record)


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    assert harness.tail_percentile(50) == 80
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(5000) == harness.TAIL_MAX_PERCENTILE
    assert harness.tail_percentile(15) is None
    value, label = harness.tail_ms([0.001 * i for i in range(1, 201)])
    assert label == "p90 of 200" and value == pytest.approx(180.0)
    assert harness.tail_ms([0.001, 0.003, 0.002]) == (pytest.approx(3.0), "max of 3")


def test_tracer_self_times_sum_to_the_op() -> None:
    tracer = Tracer()

    def leaf() -> None:
        time.sleep(0.01)

    traced_leaf = tracer.wrap(leaf, "leaf")
    # The same layer reached through two wrappers counts once.
    doubly = tracer.wrap(traced_leaf, "leaf")

    def op() -> int:
        traced_leaf()
        doubly()
        time.sleep(0.005)
        return 7

    result, wall = tracer.run_op("op", op)
    assert result == 7
    assert tracer.calls["leaf"] == 2
    assert tracer.self_time["leaf"] == pytest.approx(tracer.busy["leaf"])
    assert tracer.busy["op"] == pytest.approx(tracer.busy["leaf"] + tracer.self_time["op"])
    assert harness.accounting_ok(sum(tracer.self_time.values()), wall)
    assert tracer.op_parts == [pytest.approx(tracer.busy["op"])]
