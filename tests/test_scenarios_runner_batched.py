"""Batched evaluation and error paths of the scenario batch runner.

PR 2 wires :func:`repro.scenarios.runner.evaluate_scenarios` through
``RoutingProtocol.batch_link_loads`` so demand-only scenarios share one
compiled weight setting.  These tests pin two contracts:

* the batched fast path is *invisible*: its results match the per-cell
  :func:`evaluate_scenario` oracle row for row, and anything it cannot batch
  (topology perturbations, empty workloads, broken cells, non-batchable
  protocols) falls back to the per-cell path with its error isolation intact;
* error handling end to end: a failure inside a worker process surfaces as a
  per-cell error result (never an exception, never sinking the sweep), and
  error results are never written to the results store's cells.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols.base import RoutingProtocol
from repro.scenarios import BatchRunner, ProtocolSpec, Scenario
from repro.scenarios.generators import (
    baseline_scenario,
    single_link_failures,
    uniform_scaling_ensemble,
)
from repro.scenarios.runner import PROTOCOL_REGISTRY, evaluate_scenario, evaluate_scenarios, register_protocol
from repro.topology.backbones import abilene_network
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix


@pytest.fixture(scope="module")
def abilene_instance():
    net = abilene_network()
    tm = abilene_traffic_matrix(net, total_volume=0.1 * net.total_capacity(), seed=7)
    return net, tm


def mixed_scenarios(net):
    """Demand-only scenarios interleaved with failures and an empty workload."""
    return (
        uniform_scaling_ensemble([0.5, 1.0, 1.5])
        + single_link_failures(net)[:2]
        + uniform_scaling_ensemble([0.0, 2.0])  # 0.0 -> empty-workload shortcut
    )


class TestBatchedPathIsInvisible:
    def test_batched_rows_match_per_cell_oracle(self, abilene_instance):
        net, tm = abilene_instance
        scenarios = mixed_scenarios(net)
        spec = ProtocolSpec.of("OSPF")
        batched = evaluate_scenarios(net, tm, scenarios, spec)
        oracle = [evaluate_scenario(net, tm, s, spec) for s in scenarios]
        assert [r.as_row() for r in batched] == [r.as_row() for r in oracle]

    def test_perturbs_topology_classifier(self, abilene_instance):
        net, _ = abilene_instance
        assert not baseline_scenario().perturbs_topology()
        assert not uniform_scaling_ensemble([2.0])[0].perturbs_topology()
        assert single_link_failures(net)[0].perturbs_topology()
        capacity = Scenario(
            scenario_id="cap", kind="capacity", capacity_factors=((net.edges[0], 0.5),)
        )
        assert capacity.perturbs_topology()

    def test_runner_serial_uses_batched_path_same_results(self, abilene_instance):
        """BatchRunner output is unchanged by the grouped serial dispatch."""
        net, tm = abilene_instance
        scenarios = mixed_scenarios(net)
        results = BatchRunner(max_workers=0).run(
            net, tm, scenarios, ["OSPF", "MinHopOSPF"]
        )
        spec_rows = [r.as_row() for r in results]
        oracle = [
            evaluate_scenario(net, tm, s, ProtocolSpec.of(p)).as_row()
            for p in ("OSPF", "MinHopOSPF")
            for s in scenarios
        ]
        assert spec_rows == oracle

    def test_non_batchable_protocol_falls_back(self, abilene_instance):
        """A protocol without batch support routes every cell individually."""
        net, tm = abilene_instance

        calls = []

        class Counting(RoutingProtocol):
            name = "Counting"

            def route(self, network, demands):
                calls.append(demands.total_volume())
                from repro.protocols.ospf import OSPF

                return OSPF().route(network, demands)

        register_protocol("_Counting", Counting)
        try:
            scenarios = uniform_scaling_ensemble([0.5, 1.0, 1.5])
            results = evaluate_scenarios(net, tm, scenarios, ProtocolSpec.of("_Counting"))
            assert len(results) == 3 and all(r.error is None for r in results)
            assert len(calls) == 3  # per-cell, no batching
        finally:
            PROTOCOL_REGISTRY.pop("_Counting", None)

    def test_wrong_shaped_batch_return_falls_back_to_per_cell(self, abilene_instance):
        """A malformed batch_link_loads return degrades gracefully, per cell."""
        net, tm = abilene_instance

        class WrongShape(RoutingProtocol):
            name = "WrongShape"

            def route(self, network, demands):
                from repro.protocols.ospf import OSPF

                return OSPF().route(network, demands)

            def batch_link_loads(self, network, matrices):
                return np.zeros((1, 2))  # bogus shape, never (m, num_links)

        register_protocol("_WrongShape", WrongShape)
        try:
            scenarios = uniform_scaling_ensemble([0.5, 1.0, 1.5])
            results = evaluate_scenarios(net, tm, scenarios, ProtocolSpec.of("_WrongShape"))
            assert all(r.error is None for r in results)
            oracle = [
                evaluate_scenario(net, tm, s, ProtocolSpec.of("OSPF")).mlu for s in scenarios
            ]
            assert [r.mlu for r in results] == pytest.approx(oracle)
        finally:
            PROTOCOL_REGISTRY.pop("_WrongShape", None)

    def test_batch_exception_falls_back_to_per_cell(self, abilene_instance):
        """A batch-path crash degrades to per-cell evaluation, not an error."""
        net, tm = abilene_instance

        class BrokenBatch(RoutingProtocol):
            name = "BrokenBatch"

            def route(self, network, demands):
                from repro.protocols.ospf import OSPF

                return OSPF().route(network, demands)

            def batch_link_loads(self, network, matrices):
                raise RuntimeError("batch kernel exploded")

        register_protocol("_BrokenBatch", BrokenBatch)
        try:
            scenarios = uniform_scaling_ensemble([0.5, 1.0, 1.5])
            results = evaluate_scenarios(net, tm, scenarios, ProtocolSpec.of("_BrokenBatch"))
            assert all(r.error is None for r in results)
            oracle = [
                evaluate_scenario(net, tm, s, ProtocolSpec.of("OSPF")).mlu for s in scenarios
            ]
            assert [r.mlu for r in results] == pytest.approx(oracle)
        finally:
            PROTOCOL_REGISTRY.pop("_BrokenBatch", None)


class TestErrorPaths:
    def test_worker_exception_surfaces_as_per_cell_error(self, abilene_instance):
        """A protocol that cannot even be built fails per cell -- in workers too.

        ``FortzThorup(max_weight=0)`` passes spec construction but raises at
        build time inside the (sub)process; every cell must report the error
        and the run itself must not raise.
        """
        net, tm = abilene_instance
        scenarios = [baseline_scenario()] + uniform_scaling_ensemble([0.5, 1.5])
        for workers in (0, 2):
            runner = BatchRunner(max_workers=workers, chunk_size=2)
            results = runner.run(
                net, tm, scenarios, [ProtocolSpec.of("FortzThorup", max_weight=0)]
            )
            assert len(results) == len(scenarios)
            for result in results:
                assert not result.feasible
                assert result.mlu == float("inf")
                assert "max_weight" in result.error

    def test_one_bad_cell_does_not_sink_a_parallel_sweep(self, abilene_instance):
        """An inapplicable scenario errors alone; sibling cells stay healthy."""
        net, tm = abilene_instance
        foreign = Scenario(
            scenario_id="foreign", kind="link-failure", failed_links=((1, 99),)
        )
        scenarios = uniform_scaling_ensemble([0.5, 1.0]) + [foreign]
        results = BatchRunner(max_workers=2, chunk_size=1).run(
            net, tm, scenarios, ["OSPF"]
        )
        assert [r.error is None for r in results] == [True, True, False]
        assert "unknown link" in results[2].error

    @pytest.mark.parametrize("workers", [0, 2])
    def test_controller_sweep_bug_escapes_the_run(self, abilene_instance, monkeypatch, workers):
        """Only protocol code is guarded: a controller failure is not re-routed cold."""
        from repro.online.controller import TEController

        def broken(self, scenarios):
            raise RuntimeError("sweep bug")

        monkeypatch.setattr(TEController, "sweep_scenarios", broken)
        net, tm = abilene_instance
        runner = BatchRunner(max_workers=workers)
        with pytest.raises(RuntimeError, match="sweep bug"):
            runner.run(net, tm, single_link_failures(net)[:4], ["OSPF"])

    def test_cache_never_stores_error_results(self, tmp_path, abilene_instance):
        """After a sweep with failures, only clean cells are stored."""
        net, tm = abilene_instance
        foreign = Scenario(
            scenario_id="foreign", kind="link-failure", failed_links=((1, 99),)
        )
        scenarios = [baseline_scenario(), foreign]
        runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
        first = runner.run(net, tm, scenarios, ["OSPF"])
        assert first[0].error is None and first[1].error is not None
        # A second sweep serves the clean cell from the store and re-evaluates
        # (not "serves stale error for") the broken one.
        second = runner.run(net, tm, scenarios, ["OSPF"])
        assert second[0].cached and not second[1].cached
        assert runner.last_stats.cache_hits == 1
        assert runner.last_stats.evaluated == 1

    def test_batched_cells_are_cached_like_per_cell_ones(self, tmp_path, abilene_instance):
        """Results produced by the batched path are served from the store next run."""
        net, tm = abilene_instance
        scenarios = uniform_scaling_ensemble([0.5, 1.0, 1.5])
        runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
        fresh = runner.run(net, tm, scenarios, ["OSPF"])
        warm = runner.run(net, tm, scenarios, ["OSPF"])
        assert runner.last_stats.hit_rate == 1.0
        assert [r.as_row() for r in warm] == [r.as_row() for r in fresh]


class TestBatchLinkLoadsContract:
    def test_ospf_batch_matches_individual_routes(self, abilene_instance):
        net, tm = abilene_instance
        from repro.protocols.ospf import OSPF

        protocol = OSPF()
        matrices = [tm.scaled(f) for f in (0.25, 1.0, 1.75)]
        loads = protocol.batch_link_loads(net, matrices)
        assert loads.shape == (3, net.num_links)
        for row, matrix in zip(loads, matrices, strict=True):
            np.testing.assert_allclose(
                row, protocol.route(net, matrix).aggregate(), atol=1e-9, rtol=0
            )

    def test_base_protocol_declines_batching(self, abilene_instance):
        net, tm = abilene_instance

        class Minimal(RoutingProtocol):
            def route(self, network, demands):  # pragma: no cover - not called
                raise NotImplementedError

        assert Minimal().batch_link_loads(net, [tm]) is None
