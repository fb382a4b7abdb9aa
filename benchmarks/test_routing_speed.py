"""Routing speed regression: the dict-loop oracle vs the stacked routing kernel.

Times the two batched workloads of the routing kernel, on Abilene and a
Rocketfuel-profile topology, against the dict-loop reference implementation
in ``tests/routing_oracle.py``:

* **batched split-ratio assignment** -- route a demand ensemble over fixed
  per-destination DAGs with explicit (exponential) split ratios.  The oracle
  re-runs its dict loops per matrix; the kernel compiles each DAG once and
  propagates all matrices in one stacked pass.  The acceptance bar
  (>= 5x on Abilene) is asserted here.
* **ECMP ensemble sweep** -- the scenario-engine shape: one weight setting,
  many demand matrices, the oracle paying Dijkstra + propagation per matrix
  while :meth:`~repro.protocols.OSPF.batch_link_loads` compiles the DAGs
  once (:meth:`~repro.routing.CompiledDag.from_weights`) and amortises both.

Results (timings, speedups, equivalence residuals) are recorded in the
results store (``$REPRO_RESULTS_DB``; see :mod:`repro.results`) and — in
full mode — re-exported as the ``BENCH_routing.json`` view at the
repository root, so regressions are diffable across PRs with
``repro results diff``.  Set ``REPRO_FULL_BENCH=1`` for larger ensembles.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest
import routing_oracle

from bench_utils import BenchRecorder, full_bench, smoke_bench

from repro.network.demands import TrafficMatrix
from repro.network.graph import Network
from repro.network.spt import all_shortest_path_dags
from repro.protocols.ospf import OSPF, invcap_weights
from repro.routing import CompiledDagSet
from repro.topology.backbones import abilene_network
from repro.topology.rocketfuel import synthetic_rocketfuel
from repro.traffic.gravity import gravity_traffic_matrix

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_routing.json"

#: Wall-clock assertions are relaxed on shared CI runners (GitHub sets CI=true),
#: where a loaded host can deflate the measured ratio without any code change.
#: Local / driver runs enforce the full acceptance bars.
ON_CI = bool(os.environ.get("CI"))


def _bar(local: float, ci: float) -> float:
    return ci if ON_CI else local

#: Ensemble sizes per topology: large enough that the kernel's
#: one-off compilation is amortised (the regime the batched API targets).
ENSEMBLE_SIZES = {"abilene": 240, "rocketfuel": 40}
FULL_ENSEMBLE_SIZES = {"abilene": 600, "rocketfuel": 120}
SMOKE_ENSEMBLE_SIZES = {"abilene": 12, "rocketfuel": 4}

_recorder = BenchRecorder("routing-backend", ARTIFACT, view_flag_keys=("full_bench",))


def _demand_ensemble(network: Network, count: int, seed: int = 0) -> List[TrafficMatrix]:
    """Gravity matrices with jittered node weights and volumes (a trunk sweep)."""
    rng = np.random.default_rng(seed)
    base = 0.08 * network.total_capacity()
    matrices = []
    for _ in range(count):
        out_weights = {node: float(rng.uniform(0.5, 1.5)) for node in network.nodes}
        in_weights = {node: float(rng.uniform(0.5, 1.5)) for node in network.nodes}
        matrices.append(
            gravity_traffic_matrix(
                network, base * float(rng.uniform(0.5, 1.5)), out_weights, in_weights
            )
        )
    return matrices


def _record(name: str, network: Network, kind: str, count: int,
            python_seconds: float, sparse_seconds: float, residual: float) -> Dict[str, object]:
    entry = {
        "topology": name,
        "workload": kind,
        "nodes": network.num_nodes,
        "links": network.num_links,
        "matrices": count,
        "python_seconds": round(python_seconds, 6),
        "sparse_seconds": round(sparse_seconds, 6),
        "speedup": round(python_seconds / sparse_seconds, 2),
        "max_abs_load_diff": float(residual),
    }
    _recorder.add(entry)
    print(
        f"\n[{name}/{kind}] m={count}: python {python_seconds * 1e3:.1f} ms, "
        f"sparse {sparse_seconds * 1e3:.1f} ms, speedup {entry['speedup']}x, "
        f"residual {residual:.2e}"
    )
    return entry


def _topologies():
    if smoke_bench():
        sizes = SMOKE_ENSEMBLE_SIZES
    else:
        sizes = FULL_ENSEMBLE_SIZES if full_bench() else ENSEMBLE_SIZES
    return [
        ("abilene", abilene_network(), sizes["abilene"]),
        ("rocketfuel", synthetic_rocketfuel(1239, seed=0), sizes["rocketfuel"]),
    ]


@pytest.mark.parametrize("name,network,count", _topologies(), ids=lambda v: v if isinstance(v, str) else "")
def test_batched_split_ratio_speedup(name, network, count):
    """Batched split-ratio assignment on the kernel beats the oracle (>=5x on Abilene)."""
    weights = invcap_weights(network)
    dags = all_shortest_path_dags(network, list(network.nodes), weights)
    rng = np.random.default_rng(1)
    second = rng.random(network.num_links)
    ratios = {
        destination: routing_oracle.exponential_split_ratios(network, dag, second)
        for destination, dag in dags.items()
    }
    matrices = _demand_ensemble(network, count, seed=2)

    start = time.perf_counter()
    oracle = [
        routing_oracle.split_ratio_assignment(network, tm, dags, ratios).aggregate()
        for tm in matrices
    ]
    python_seconds = time.perf_counter() - start

    sparse_seconds = float("inf")
    for _ in range(3):  # best of three: the sparse path is fast enough to jitter
        start = time.perf_counter()
        loads = CompiledDagSet(network, dags).link_loads_many(matrices, "split", ratios)
        sparse_seconds = min(sparse_seconds, time.perf_counter() - start)

    residual = max(
        float(np.max(np.abs(loads[i] - oracle[i]))) for i in range(len(matrices))
    )
    entry = _record(name, network, "split-ratio", count, python_seconds, sparse_seconds, residual)

    assert residual <= 1e-9, "sparse and python backends diverged"
    if smoke_bench():
        return  # correctness-only: tiny ensembles make ratios meaningless
    if name == "abilene":
        assert entry["speedup"] >= _bar(5.0, 2.0), (
            f"batched split-ratio assignment on Abilene regressed to "
            f"{entry['speedup']}x (< 5x acceptance bar)"
        )
    else:
        assert entry["speedup"] >= _bar(1.5, 1.0)


@pytest.mark.parametrize("name,network,count", _topologies(), ids=lambda v: v if isinstance(v, str) else "")
def test_ecmp_ensemble_sweep_speedup(name, network, count):
    """The scenario-sweep shape: one weight setting, many matrices."""
    weights = invcap_weights(network)
    matrices = _demand_ensemble(network, count, seed=3)

    start = time.perf_counter()
    oracle = [
        routing_oracle.ecmp_assignment(network, tm, weights).aggregate()
        for tm in matrices
    ]
    python_seconds = time.perf_counter() - start

    sparse_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        loads = OSPF(weights=weights).batch_link_loads(network, matrices)
        sparse_seconds = min(sparse_seconds, time.perf_counter() - start)

    residual = max(
        float(np.max(np.abs(loads[i] - oracle[i]))) for i in range(len(matrices))
    )
    entry = _record(name, network, "ecmp-sweep", count, python_seconds, sparse_seconds, residual)

    assert residual <= 1e-9, "sparse and python backends diverged"
    if not smoke_bench():
        assert entry["speedup"] >= _bar(3.0, 1.5)


def test_zz_write_artifact():
    """Record this run in the results store; re-export the view in full mode.

    Named ``zz`` so pytest runs it after the measurement tests; if they were
    deselected or failed there is nothing meaningful to write and the test
    skips instead of clobbering a previous artifact.  Smoke runs are
    recorded in the store (CI diffs them against the committed view) but
    never overwrite ``BENCH_routing.json``.
    """
    if not _recorder.records:
        pytest.skip("no benchmark records collected in this run")
    run_id = _recorder.finalize()
    print(f"\n[routing-backend] recorded run {run_id}")
    assert run_id is not None
    if not smoke_bench():
        assert ARTIFACT.exists()
