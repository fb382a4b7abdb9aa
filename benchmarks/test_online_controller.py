"""Online-controller speed regression: incremental scenario sweeps vs cold.

Four workloads pin the online controller's acceptance bars:

* **single-link-failure sweep** (rand100, all-pairs gravity demands,
  even-ECMP OSPF InvCap weights) — the incremental sweep must cost at
  most 15 ms per cell and be >= 3x faster than both cold paths
  (``evaluate_scenario`` and a from-scratch sparse rebuild) with link
  loads identical to 1e-9, recomputing exactly the destination rows in
  which a failed link is tight;
* **rand500 single-link-failure sweep** — the Rocketfuel-scale bar: at
  most 200 ms per cell and >= 3x steady-state vs cold
  ``evaluate_scenario`` (one-time setup recorded apart, since shared
  baselines amortize it across workers) with loads matching to 1e-12 and
  the same exact row count;
* **capacity-degradation sweep** (rand100, MinHop weights — capacity
  brown-outs only ride the incremental path under capacity-independent
  weights) — >= 2x faster than cold ``evaluate_scenario`` with loads
  matching to 1e-12: a brown-out leaves forwarding untouched, so the
  incremental path pays almost nothing per scenario;
* **closed-loop reoptimization replay** (Abilene core-trunk outages) —
  the thresholded :class:`~repro.online.policy.ClosedLoopPolicy` must beat
  the no-reoptimization baseline on worst-case sustained MLU, at a small
  fraction of the every-event oracle's reoptimization count.

The numbers are recorded in the results store (``$REPRO_RESULTS_DB``; see
:mod:`repro.results`) and — outside smoke mode — re-exported as the
``BENCH_online.json`` view at the repository root so regressions are
diffable across PRs with ``repro results diff``.  ``REPRO_FULL_BENCH=1``
sweeps every trunk; ``REPRO_BENCH_SMOKE=1`` runs a tiny correctness-only
pass.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bench_utils import BenchRecorder, full_bench, smoke_bench

from repro.online import scenario_failed_edges
from repro.online.controller import TEController
from repro.protocols.ospf import invcap_weights
from repro.scenarios import single_link_failures
from repro.scenarios.runner import ProtocolSpec, evaluate_scenario
from repro.solvers.assignment import ecmp_assignment
from repro.topology.generators import rand100, rand500
from repro.traffic.gravity import gravity_traffic_matrix

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_online.json"

#: Wall-clock assertions are relaxed on shared CI runners (GitHub sets
#: CI=true) and skipped entirely in smoke mode.
ON_CI = bool(os.environ.get("CI"))

#: Trunks swept by default / under REPRO_FULL_BENCH / under smoke mode.
DEFAULT_SCENARIOS = 40
SMOKE_SCENARIOS = 6

_recorder = BenchRecorder(
    "online-controller", ARTIFACT, view_flag_keys=("full_bench", "smoke_bench")
)


def _bar(local: float, ci: float) -> float:
    return ci if ON_CI else local


#: Incremental ms-per-cell ceilings: absolute bars that keep the incremental
#: path itself from regressing when the cold path it is compared with gets
#: faster.  About two to three times what the sweep reads on one 2-CPU host
#: (4-5 ms per rand100 cell, 85-105 ms per rand500 cell).
RAND100_CELL_MS = 15.0
RAND500_CELL_MS = 200.0
#: Speedup over both cold rand100 paths (the sweep reads 6-8x on that host).
RAND100_SPEEDUP = 3.0


def _expected_rows(controller: TEController, scenarios) -> int:
    """Rows a sweep recomputes: per cell, the rows where a failed link is tight.

    Read off the controller's baseline arrays: an event dirties a row when
    the changed link is tight in it, and every other row of a cell keeps
    its baseline values, so a cell's rows are the union over its failed
    links of the rows where that link is tight at its weight.
    """
    distances, _ = controller.spt.arrays()
    weights = controller.weights
    tolerance = controller.spt.tolerance
    network = controller.network
    total = 0
    for scenario in scenarios:
        hit = np.zeros(len(distances), dtype=bool)
        for edge in scenario_failed_edges(network, scenario):
            index = network.link_index(*edge)
            head = distances[:, network.node_index(edge[1])]
            tail = distances[:, network.node_index(edge[0])]
            hit |= np.isfinite(head) & (weights[index] + head <= tail + tolerance)
        total += int(hit.sum())
    return total


def _workload():
    network = rand100()
    demands = gravity_traffic_matrix(network, total_volume=0.1 * network.total_capacity())
    scenarios = single_link_failures(network)
    if smoke_bench():
        scenarios = scenarios[:SMOKE_SCENARIOS]
    elif not full_bench():
        scenarios = scenarios[:DEFAULT_SCENARIOS]
    return network, demands, scenarios


def _map_to_base(network, instance, loads: np.ndarray) -> np.ndarray:
    """Perturbed-network loads re-indexed onto the base network's links."""
    mapped = np.zeros(network.num_links)
    for link in instance.network.links:
        mapped[network.link_index(link.source, link.target)] = loads[link.index]
    return mapped


def test_incremental_failure_sweep_speedup():
    """The headline bar: incremental sweep <= 15 ms/cell, >= 3x vs cold on rand100."""
    network, demands, scenarios = _workload()
    weights = invcap_weights(network)
    weight_map = network.weight_dict(weights)
    spec = ProtocolSpec.of("OSPF")

    # Cold path 1: the scenario engine's per-cell evaluation (apply + route).
    start = time.perf_counter()
    cold_results = [
        evaluate_scenario(network, demands, scenario, spec) for scenario in scenarios
    ]
    cold_eval_seconds = time.perf_counter() - start

    # Cold path 2: rebuild the sparse routing state from scratch per scenario.
    start = time.perf_counter()
    cold_loads = []
    for scenario in scenarios:
        instance = scenario.apply(network, demands)
        pruned_weights = {
            link.endpoints: weight_map[link.endpoints] for link in instance.network.links
        }
        cold = ecmp_assignment(instance.network, instance.demands, pruned_weights)
        cold_loads.append((instance, cold.aggregate()))
    cold_sparse_seconds = time.perf_counter() - start

    # Incremental: one controller, delta updates per trunk, revert after each.
    incremental_seconds = float("inf")
    for _ in range(2):  # best of two: the incremental path is jitter-prone
        start = time.perf_counter()
        controller = TEController(network, demands, weights=weights)
        measurements = controller.sweep_scenarios(scenarios)
        incremental_seconds = min(incremental_seconds, time.perf_counter() - start)

    residual = max(
        float(np.max(np.abs(_map_to_base(network, instance, loads) - measurement.loads)))
        for (instance, loads), measurement in zip(cold_loads, measurements)
    )
    mlu_residual = max(
        abs(cold.mlu - measurement.mlu)
        for cold, measurement in zip(cold_results, measurements)
    )

    stats = controller.spt.stats
    expected_rows = _expected_rows(controller, scenarios)
    entry = {
        "topology": "rand100",
        "workload": "single-link-failure sweep (OSPF InvCap, even ECMP)",
        "nodes": network.num_nodes,
        "links": network.num_links,
        "demand_pairs": len(demands),
        "scenarios": len(scenarios),
        "cold_evaluate_scenario_seconds": round(cold_eval_seconds, 6),
        "cold_sparse_rebuild_seconds": round(cold_sparse_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "speedup_vs_evaluate_scenario": round(cold_eval_seconds / incremental_seconds, 2),
        "speedup_vs_sparse_rebuild": round(cold_sparse_seconds / incremental_seconds, 2),
        "max_abs_load_diff": residual,
        "max_abs_mlu_diff": mlu_residual,
        "dspt": {
            "events": stats.events,
            # Dirty destination rows the builder re-ran.
            "incremental_updates": stats.incremental_updates,
            "full_rebuilds": stats.full_rebuilds,
            "initial_builds": stats.initial_builds,
            "destinations_changed": stats.destinations_changed,
            "nodes_recomputed": stats.nodes_recomputed,
        },
    }
    _recorder.add(entry)
    print(
        f"\n[rand100/failure-sweep] {len(scenarios)} scenarios: "
        f"cold(evaluate) {cold_eval_seconds:.2f}s, "
        f"cold(sparse) {cold_sparse_seconds:.2f}s, "
        f"incremental {incremental_seconds:.2f}s "
        f"-> {entry['speedup_vs_evaluate_scenario']}x / "
        f"{entry['speedup_vs_sparse_rebuild']}x, residual {residual:.2e}"
    )

    assert residual <= 1e-9, "incremental and cold link loads diverged"
    assert mlu_residual <= 1e-9, "incremental and cold MLU diverged"
    for cold, measurement in zip(cold_results, measurements):
        assert cold.connected == measurement.connected
        assert abs(cold.dropped_volume - measurement.dropped_volume) <= 1e-9
    assert stats.incremental_updates == expected_rows, (
        f"the sweep recomputed {stats.incremental_updates} rows, but its failed "
        f"links are tight in {expected_rows}"
    )
    assert stats.full_rebuilds == stats.initial_builds == len(demands.destinations())
    if smoke_bench():
        return
    cell_ms = 1e3 * incremental_seconds / len(scenarios)
    assert cell_ms <= _bar(RAND100_CELL_MS, 3 * RAND100_CELL_MS), (
        f"incremental sweep regressed to {cell_ms:.1f} ms/cell "
        f"(> {RAND100_CELL_MS} ms acceptance bar)"
    )
    assert entry["speedup_vs_evaluate_scenario"] >= _bar(RAND100_SPEEDUP, 1.0), (
        f"incremental sweep regressed to {entry['speedup_vs_evaluate_scenario']}x "
        f"vs the cold evaluate_scenario path (< {RAND100_SPEEDUP}x acceptance bar)"
    )
    assert entry["speedup_vs_sparse_rebuild"] >= _bar(RAND100_SPEEDUP, 1.0), (
        f"incremental sweep regressed to {entry['speedup_vs_sparse_rebuild']}x "
        f"vs the cold sparse rebuild (< {RAND100_SPEEDUP}x acceptance bar)"
    )


def test_rand500_incremental_sweep_speedup():
    """Rocketfuel-scale bar: incremental sweep <= 200 ms/cell, >= 3x vs cold on rand500.

    500 nodes / 2000 directed links is the size class of the reduced
    router-level Rocketfuel maps (AS1239 is 315/1944); recomputing only the
    dirty destination rows must keep the sweep well ahead of per-scenario
    cold evaluation, with loads matching to 1e-12 and exactly the rows
    where a failed link is tight recomputed.  Smoke mode runs 3 scenarios,
    correctness-only.
    """
    network = rand500()
    demands = gravity_traffic_matrix(network, total_volume=0.1 * network.total_capacity())
    count = 3 if smoke_bench() else (24 if full_bench() else 10)
    scenarios = single_link_failures(network)[:count]
    weights = invcap_weights(network)
    spec = ProtocolSpec.of("OSPF")

    start = time.perf_counter()
    cold_results = [
        evaluate_scenario(network, demands, scenario, spec) for scenario in scenarios
    ]
    cold_eval_seconds = time.perf_counter() - start
    cold_loads = []
    for scenario in scenarios:
        instance = scenario.apply(network, demands)
        weight_map = network.weight_dict(weights)
        pruned_weights = {
            link.endpoints: weight_map[link.endpoints] for link in instance.network.links
        }
        cold = ecmp_assignment(instance.network, instance.demands, pruned_weights)
        cold_loads.append((instance, cold.aggregate()))

    # Setup (controller construction + baseline routing) is timed apart
    # from the sweep: it is paid once per sweep — and once per chunk of a
    # parallel sweep, since each chunk builds its own controller — so the
    # steady-state per-scenario cost is what the speedup bar measures.
    start = time.perf_counter()
    controller = TEController(network, demands, weights=weights)
    controller.link_loads()
    setup_seconds = time.perf_counter() - start
    incremental_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        measurements = controller.sweep_scenarios(scenarios)
        incremental_seconds = min(incremental_seconds, time.perf_counter() - start)

    residual = max(
        float(np.max(np.abs(_map_to_base(network, instance, loads) - measurement.loads)))
        for (instance, loads), measurement in zip(cold_loads, measurements)
    )
    mlu_residual = max(
        abs(cold.mlu - measurement.mlu)
        for cold, measurement in zip(cold_results, measurements)
    )
    stats = controller.spt.stats
    # Both timed sweeps ran on this controller.
    expected_rows = 2 * _expected_rows(controller, scenarios)
    entry = {
        "topology": "rand500",
        "workload": "single-link-failure sweep (OSPF InvCap, even ECMP)",
        "nodes": network.num_nodes,
        "links": network.num_links,
        "demand_pairs": len(demands),
        "scenarios": len(scenarios),
        "cold_evaluate_scenario_seconds": round(cold_eval_seconds, 6),
        "setup_seconds": round(setup_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "speedup_vs_evaluate_scenario": round(cold_eval_seconds / incremental_seconds, 2),
        "speedup_including_setup": round(
            cold_eval_seconds / (setup_seconds + incremental_seconds), 2
        ),
        "max_abs_load_diff": residual,
        "max_abs_mlu_diff": mlu_residual,
        "dspt": {
            "events": stats.events,
            "incremental_updates": stats.incremental_updates,
            "full_rebuilds": stats.full_rebuilds,
            "initial_builds": stats.initial_builds,
            "nodes_recomputed": stats.nodes_recomputed,
        },
    }
    _recorder.add(entry)
    print(
        f"\n[rand500/failure-sweep] {len(scenarios)} scenarios: "
        f"cold(evaluate) {cold_eval_seconds:.2f}s, "
        f"setup {setup_seconds:.2f}s + incremental {incremental_seconds:.2f}s "
        f"-> {entry['speedup_vs_evaluate_scenario']}x steady-state "
        f"({entry['speedup_including_setup']}x with setup), "
        f"residual {residual:.2e}, "
        f"{stats.incremental_updates} rows recomputed over {stats.events} events"
    )

    assert residual <= 1e-12, "incremental and cold link loads diverged"
    assert mlu_residual <= 1e-12, "incremental and cold MLU diverged"
    for cold, measurement in zip(cold_results, measurements):
        assert cold.connected == measurement.connected
        assert abs(cold.dropped_volume - measurement.dropped_volume) <= 1e-9
    assert stats.incremental_updates == expected_rows
    assert stats.full_rebuilds == stats.initial_builds == len(demands.destinations())
    if smoke_bench():
        return
    cell_ms = 1e3 * incremental_seconds / len(scenarios)
    assert cell_ms <= _bar(RAND500_CELL_MS, 3 * RAND500_CELL_MS), (
        f"rand500 incremental sweep regressed to {cell_ms:.0f} ms/cell "
        f"(> {RAND500_CELL_MS} ms acceptance bar)"
    )
    assert entry["speedup_vs_evaluate_scenario"] >= _bar(3.0, 1.5), (
        f"rand500 incremental sweep regressed to "
        f"{entry['speedup_vs_evaluate_scenario']}x vs cold (< 3x acceptance bar)"
    )


def test_incremental_capacity_sweep_speedup():
    """Capacity brown-outs ride the incremental path: >= 2x vs cold on rand100."""
    from repro.protocols.ospf import MinHopOSPF
    from repro.scenarios import capacity_degradations

    network = rand100()
    demands = gravity_traffic_matrix(network, total_volume=0.1 * network.total_capacity())
    count = 6 if smoke_bench() else (40 if full_bench() else 20)
    scenarios = capacity_degradations(network, count=count, factor=0.5, seed=0)
    protocol = MinHopOSPF()
    weights = protocol.ecmp_forwarding_weights(network)
    spec = ProtocolSpec.of("MinHopOSPF")

    # Cold path: per-cell scenario.apply + full MinHop route.
    start = time.perf_counter()
    cold_results = [
        evaluate_scenario(network, demands, scenario, spec) for scenario in scenarios
    ]
    cold_seconds = time.perf_counter() - start
    cold_loads = []
    for scenario in scenarios:
        instance = scenario.apply(network, demands)
        loads = MinHopOSPF().route(instance.network, instance.demands).aggregate()
        cold_loads.append((instance, loads))

    # Incremental: capacity events snapshot/restored, zero routing work.
    incremental_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        controller = TEController(
            network, demands, weights=weights, tolerance=protocol.ecmp_tolerance
        )
        measurements = controller.sweep_scenarios(scenarios)
        incremental_seconds = min(incremental_seconds, time.perf_counter() - start)

    residual = max(
        float(np.max(np.abs(_map_to_base(network, instance, loads) - measurement.loads)))
        for (instance, loads), measurement in zip(cold_loads, measurements)
    )
    mlu_residual = max(
        abs(cold.mlu - measurement.mlu)
        for cold, measurement in zip(cold_results, measurements)
    )
    entry = {
        "topology": "rand100",
        "workload": "capacity-degradation sweep (MinHop, even ECMP)",
        "nodes": network.num_nodes,
        "links": network.num_links,
        "demand_pairs": len(demands),
        "scenarios": len(scenarios),
        "cold_evaluate_scenario_seconds": round(cold_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "speedup_vs_evaluate_scenario": round(cold_seconds / incremental_seconds, 2),
        "max_abs_load_diff": residual,
        "max_abs_mlu_diff": mlu_residual,
    }
    _recorder.add(entry)
    print(
        f"\n[rand100/capacity-sweep] {len(scenarios)} scenarios: "
        f"cold {cold_seconds:.2f}s, incremental {incremental_seconds:.3f}s "
        f"-> {entry['speedup_vs_evaluate_scenario']}x, residual {residual:.2e}"
    )

    assert residual <= 1e-12, "incremental and cold link loads diverged"
    assert mlu_residual <= 1e-12, "incremental and cold MLU diverged"
    if smoke_bench():
        return
    assert entry["speedup_vs_evaluate_scenario"] >= _bar(2.0, 1.2), (
        f"incremental capacity sweep regressed to "
        f"{entry['speedup_vs_evaluate_scenario']}x vs cold (< 2x acceptance bar)"
    )


def test_closed_loop_policy_beats_static_weights():
    """Closed loop beats no-reoptimization on worst sustained MLU, cheaply."""
    from repro.online import ClosedLoopPolicy, OraclePolicy, replay_failure_trace
    from repro.protocols.fortz_thorup import FortzThorup
    from repro.topology.backbones import abilene_network
    from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix

    network = abilene_network()
    demands = abilene_traffic_matrix(network, total_volume=1.0, seed=1).scaled(
        0.15 * network.total_capacity()
    )
    # Core trunks: outages where rerouting can actually help (a stub trunk's
    # failure MLU is a cut bound no weight setting can move).
    core = ("link:1-2", "link:1-3", "link:2-3", "link:5-6", "link:7-8")
    scenarios = [s for s in single_link_failures(network) if s.scenario_id in core]
    if smoke_bench():
        scenarios = scenarios[:2]
    budget = 30 if smoke_bench() else 150

    def optimizer_factory():
        return FortzThorup(restarts=1, seed=0, max_evaluations=budget)

    plain = replay_failure_trace(network, demands, scenarios, period=600.0, outage=300.0)
    closed = replay_failure_trace(
        network,
        demands,
        scenarios,
        period=600.0,
        outage=300.0,
        policy=ClosedLoopPolicy(
            target_mlu=0.95, hold=30.0, cooldown=120.0,
            optimizer_factory=optimizer_factory,
        ),
    )
    oracle = replay_failure_trace(
        network,
        demands,
        scenarios,
        period=600.0,
        outage=300.0,
        policy=OraclePolicy(optimizer_factory=optimizer_factory),
    )

    entry = {
        "topology": "abilene",
        "workload": "closed-loop reoptimization replay (core-trunk outages)",
        "scenarios": len(scenarios),
        "mlu_target": 0.95,
        "baseline_mlu": round(plain.baseline.mlu, 6),
        "worst_mlu_no_policy": round(plain.worst.mlu, 6),
        "worst_mlu_closed_loop": round(closed.worst.mlu, 6),
        "worst_mlu_oracle": round(oracle.worst.mlu, 6),
        "closed_loop_reoptimizations": closed.reoptimizations,
        "oracle_reoptimizations": oracle.reoptimizations,
    }
    _recorder.add(entry)
    print(
        f"\n[abilene/closed-loop] worst MLU: no policy {plain.worst.mlu:.3f}, "
        f"closed loop {closed.worst.mlu:.3f} "
        f"({closed.reoptimizations} reopts), oracle {oracle.worst.mlu:.3f} "
        f"({oracle.reoptimizations} reopts)"
    )
    if smoke_bench():
        return
    assert closed.worst.mlu < plain.worst.mlu, (
        "the closed-loop policy failed to beat the no-reoptimization baseline "
        f"({closed.worst.mlu:.3f} vs {plain.worst.mlu:.3f})"
    )
    assert closed.reoptimizations < oracle.reoptimizations


def test_warm_start_reoptimization_speedup():
    """Warm-started Fortz-Thorup search needs far fewer evaluations."""
    from repro.protocols.fortz_thorup import FortzThorup
    from repro.topology.backbones import abilene_network
    from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix

    network = abilene_network()
    demands = abilene_traffic_matrix(network, total_volume=1.0, seed=1).scaled(
        0.12 * network.total_capacity()
    )
    budget = 30 if smoke_bench() else 300
    def make():
        return FortzThorup(restarts=1, seed=0, max_evaluations=budget)

    cold = make().optimize(network, demands)
    drifted = demands.scaled(1.02)
    recold = make().optimize(network, drifted)
    warm = make().optimize(network, drifted, warm_start=cold.weights)
    entry = {
        "topology": "abilene",
        "workload": "Fortz-Thorup reoptimization after 2% demand drift",
        "cold_evaluations": recold.evaluations,
        "warm_evaluations": warm.evaluations,
        "evaluation_ratio": round(recold.evaluations / max(warm.evaluations, 1), 2),
        "cold_cost": recold.cost,
        "warm_cost": warm.cost,
    }
    _recorder.add(entry)
    print(
        f"\n[abilene/reoptimize] cold {recold.evaluations} evals, "
        f"warm {warm.evaluations} evals ({entry['evaluation_ratio']}x fewer), "
        f"costs {recold.cost:.2f} vs {warm.cost:.2f}"
    )
    if smoke_bench():
        return
    assert warm.evaluations < recold.evaluations
    assert warm.cost <= recold.cost * 1.10


def test_zz_write_artifact():
    """Record this run in the results store; re-export the view in full mode.

    Smoke runs are recorded in the store (CI diffs them against the
    committed view) but never overwrite ``BENCH_online.json``.
    """
    if not _recorder.records:
        pytest.skip("no benchmark records collected in this run")
    run_id = _recorder.finalize()
    print(f"\n[online-controller] recorded run {run_id}")
    assert run_id is not None
    if not smoke_bench():
        assert ARTIFACT.exists()
