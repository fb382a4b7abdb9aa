"""Scenario engine tests: generators, apply semantics, runner and stored cells.

The load-bearing properties are *determinism* (same seed => identical
scenario set, identical fingerprints) and *store transparency* (stored and
fresh runner results are indistinguishable) — both are what make serving
cells from the results store sound, so they are tested property-based.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.demands import TrafficMatrix
from repro.network.graph import Network
from repro.results import ResultsStore
from repro.scenarios import (
    BatchRunner,
    ProtocolSpec,
    RunnerError,
    Scenario,
    ScenarioError,
    ScenarioResult,
    baseline_scenario,
    capacity_degradations,
    combine,
    cvar,
    demands_fingerprint,
    distribution_summary,
    dual_link_failures,
    evaluate_scenario,
    gravity_noise_ensemble,
    hotspot_surge_ensemble,
    network_fingerprint,
    node_failures,
    regret_rows,
    robustness_summary,
    single_link_failures,
    standard_scenario_suite,
    uniform_scaling_ensemble,
    worst_case,
)
from repro.scenarios.runner import cell_key
from repro.topology.backbones import abilene_network


@pytest.fixture(scope="module")
def abilene_small_tm() -> TrafficMatrix:
    from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix

    net = abilene_network()
    base = abilene_traffic_matrix(net, total_volume=1.0, seed=1)
    return base.scaled(0.10 * net.total_capacity())


# ----------------------------------------------------------------------
# Scenario model
# ----------------------------------------------------------------------
class TestScenario:
    def test_baseline_is_identity(self, abilene_small_tm):
        net = abilene_network()
        instance = baseline_scenario().apply(net, abilene_small_tm)
        assert instance.network.edges == net.edges
        assert instance.demands == abilene_small_tm
        assert instance.fully_connected
        assert instance.dropped_volume == 0.0

    def test_link_failure_removes_both_directions(self, abilene_small_tm):
        net = abilene_network()
        scenario = single_link_failures(net)[0]
        instance = scenario.apply(net, abilene_small_tm)
        assert instance.network.num_links == net.num_links - 2
        for edge in scenario.failed_links:
            assert not instance.network.has_link(*edge)

    def test_node_failure_drops_demands_of_the_node(self, abilene_small_tm):
        net = abilene_network()
        scenario = Scenario(scenario_id="node:1", kind="node-failure", failed_nodes=(1,))
        instance = scenario.apply(net, abilene_small_tm)
        assert all(1 not in pair for pair in instance.demands.pairs())
        expected_drop = abilene_small_tm.outgoing_volume(1) + abilene_small_tm.incoming_volume(1)
        assert instance.dropped_volume == pytest.approx(expected_drop)
        # The failed node keeps its graph slot but loses every incident link.
        assert instance.network.has_node(1)
        assert not instance.network.out_links(1) and not instance.network.in_links(1)

    def test_disconnection_drops_unroutable_demands(self):
        net = Network(name="line")
        net.add_link("a", "b", 10.0)
        net.add_link("b", "c", 10.0)
        tm = TrafficMatrix({("a", "c"): 3.0, ("a", "b"): 1.0})
        scenario = Scenario(scenario_id="cut", kind="link-failure", failed_links=(("b", "c"),))
        instance = scenario.apply(net, tm)
        assert instance.dropped_pairs == (("a", "c"),)
        assert instance.dropped_volume == pytest.approx(3.0)
        assert instance.demands == TrafficMatrix({("a", "b"): 1.0})

    def test_capacity_factor_scales_and_zero_removes(self):
        net = Network(name="pair")
        net.add_duplex_link("a", "b", 10.0)
        scenario = Scenario(
            scenario_id="deg",
            kind="capacity",
            capacity_factors=((("a", "b"), 0.5), (("b", "a"), 0.0)),
        )
        instance = scenario.apply(net, TrafficMatrix({("a", "b"): 1.0}))
        assert instance.network.capacity_of("a", "b") == pytest.approx(5.0)
        assert not instance.network.has_link("b", "a")

    def test_demand_scale_and_factors_compose(self):
        net = Network(name="pair")
        net.add_duplex_link("a", "b", 10.0)
        tm = TrafficMatrix({("a", "b"): 2.0, ("b", "a"): 1.0})
        scenario = Scenario(
            scenario_id="surge",
            kind="demand",
            demand_scale=2.0,
            demand_factors=((("a", "b"), 1.5),),
        )
        instance = scenario.apply(net, tm)
        assert instance.demands[("a", "b")] == pytest.approx(6.0)
        assert instance.demands[("b", "a")] == pytest.approx(2.0)

    def test_unknown_link_or_node_raises(self, abilene_small_tm):
        net = abilene_network()
        with pytest.raises(ScenarioError):
            Scenario(scenario_id="x", failed_links=((1, 99),)).apply(net, abilene_small_tm)
        with pytest.raises(ScenarioError):
            Scenario(scenario_id="x", failed_nodes=(99,)).apply(net, abilene_small_tm)

    def test_negative_factors_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(scenario_id="x", demand_scale=-1.0)
        with pytest.raises(ScenarioError):
            Scenario(scenario_id="x", capacity_factors=(((1, 2), -0.5),))

    def test_combine_merges_perturbations(self):
        net = abilene_network()
        failure = single_link_failures(net)[0]
        surge = uniform_scaling_ensemble([1.5])[0]
        both = combine(failure, surge)
        assert both.kind == "compound"
        assert both.failed_links == failure.failed_links
        assert both.demand_scale == pytest.approx(1.5)

    def test_combine_duplicate_capacity_edges_merge_multiplicatively(self):
        net = Network(name="pair")
        net.add_duplex_link("a", "b", 10.0)
        first = Scenario("half", kind="capacity", capacity_factors=((("a", "b"), 0.5),))
        second = Scenario("fifth", kind="capacity", capacity_factors=((("a", "b"), 0.2),))
        both = combine(first, second)
        # The combined tuple keeps both entries; application (and the online
        # event converter) merges them as the product.
        assert both.capacity_factors == ((("a", "b"), 0.5), (("a", "b"), 0.2))
        assert both.merged_capacity_factors() == {("a", "b"): pytest.approx(0.1)}
        instance = both.apply(net, TrafficMatrix({("a", "b"): 0.5}))
        assert instance.network.capacity_of("a", "b") == pytest.approx(1.0)
        # A product of zero removes the link — same rule as a bare factor 0.
        dead = combine(first, Scenario("kill", capacity_factors=((("a", "b"), 0.0),)))
        assert not dead.apply(net, TrafficMatrix({("b", "a"): 0.5})).network.has_link("a", "b")

    def test_fingerprint_distinguishes_and_ignores_seed(self):
        a = Scenario(scenario_id="s", kind="demand", demand_scale=1.5, seed=1)
        b = Scenario(scenario_id="s", kind="demand", demand_scale=1.5, seed=99)
        c = Scenario(scenario_id="s", kind="demand", demand_scale=1.6, seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_demands_fingerprint_ignores_pair_order_and_sees_volumes(self, abilene_small_tm):
        net = abilene_network()
        pairs = list(abilene_small_tm.items())
        reference = demands_fingerprint(abilene_small_tm, net)
        assert demands_fingerprint(TrafficMatrix(dict(reversed(pairs))), net) == reference
        for index in (0, len(pairs) // 2, len(pairs) - 1):
            changed = dict(pairs)
            pair, volume = pairs[index]
            changed[pair] = volume * (1 + 1e-9)
            assert demands_fingerprint(TrafficMatrix(changed), net) != reference


# ----------------------------------------------------------------------
# Generator determinism (property-based)
# ----------------------------------------------------------------------
class TestGeneratorDeterminism:
    def test_failure_sweeps_are_deterministic(self):
        net = abilene_network()
        assert single_link_failures(net) == single_link_failures(net)
        assert node_failures(net) == node_failures(net)
        assert dual_link_failures(net) == dual_link_failures(net)

    def test_single_link_failures_cover_every_trunk(self):
        net = abilene_network()
        scenarios = single_link_failures(net)
        assert len(scenarios) == 14  # Abilene's bidirectional trunk count
        failed = {edge for s in scenarios for edge in s.failed_links}
        assert failed == set(net.edges)

    @given(seed=st.integers(0, 2**32 - 1), limit=st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_dual_failure_sampling_deterministic(self, seed, limit):
        net = abilene_network()
        first = dual_link_failures(net, limit=limit, seed=seed)
        second = dual_link_failures(net, limit=limit, seed=seed)
        assert first == second
        assert len(first) == min(limit, 14 * 13 // 2)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_capacity_degradations_deterministic(self, seed, count):
        net = abilene_network()
        first = capacity_degradations(net, count=count, seed=seed)
        second = capacity_degradations(net, count=count, seed=seed)
        assert first == second
        assert [s.fingerprint() for s in first] == [s.fingerprint() for s in second]

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 5),
        sigma=st.floats(0.01, 1.0, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_gravity_noise_deterministic_and_total_preserving(
        self, abilene_small_tm, seed, size, sigma
    ):
        first = gravity_noise_ensemble(abilene_small_tm, size=size, sigma=sigma, seed=seed)
        second = gravity_noise_ensemble(abilene_small_tm, size=size, sigma=sigma, seed=seed)
        assert first == second
        net = abilene_network()
        for scenario in first:
            perturbed = scenario.apply(net, abilene_small_tm).demands
            assert perturbed.total_volume() == pytest.approx(
                abilene_small_tm.total_volume(), rel=1e-6
            )

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_hotspot_surge_deterministic(self, abilene_small_tm, seed, size):
        first = hotspot_surge_ensemble(abilene_small_tm, size=size, seed=seed)
        second = hotspot_surge_ensemble(abilene_small_tm, size=size, seed=seed)
        assert first == second

    def test_different_seeds_differ(self, abilene_small_tm):
        a = gravity_noise_ensemble(abilene_small_tm, size=3, seed=1)
        b = gravity_noise_ensemble(abilene_small_tm, size=3, seed=2)
        assert a != b

    def test_suite_ids_are_unique(self, abilene_small_tm):
        net = abilene_network()
        suite = standard_scenario_suite(net, abilene_small_tm, ensemble_size=4, seed=0)
        ids = [s.scenario_id for s in suite]
        assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Runner and cache
# ----------------------------------------------------------------------
class TestRunner:
    def test_protocol_spec_registry(self):
        spec = ProtocolSpec.of("SPEF", beta=5.0)
        assert spec.display_name == "SPEF(beta=5.0)"
        protocol = spec.build()
        assert protocol.name == "SPEF5"
        with pytest.raises(RunnerError):
            ProtocolSpec.of("NotAProtocol")

    def test_evaluate_scenario_baseline_matches_direct_route(self, abilene_small_tm):
        net = abilene_network()
        from repro.protocols.ospf import OSPF

        result = evaluate_scenario(
            net, abilene_small_tm, baseline_scenario(), ProtocolSpec.of("OSPF")
        )
        flows = OSPF().route(net, abilene_small_tm)
        assert result.mlu == pytest.approx(flows.max_link_utilization())
        assert result.feasible and result.connected
        assert result.error is None

    def test_results_in_protocol_scenario_order(self, abilene_small_tm):
        net = abilene_network()
        scenarios = [baseline_scenario()] + single_link_failures(net)[:2]
        runner = BatchRunner(max_workers=0)
        results = runner.run(net, abilene_small_tm, scenarios, ["OSPF", "MinMaxMLU"])
        assert [r.protocol for r in results] == ["OSPF"] * 3 + ["MinMaxMLU"] * 3
        assert [r.scenario_id for r in results[:3]] == [s.scenario_id for s in scenarios]

    def test_cache_roundtrip_preserves_results(self, tmp_path, abilene_small_tm):
        net = abilene_network()
        spec = ProtocolSpec.of("OSPF")
        scenario = single_link_failures(net)[0]
        result = evaluate_scenario(net, abilene_small_tm, scenario, spec)
        key = cell_key(
            network_fingerprint(net),
            demands_fingerprint(abilene_small_tm, net),
            scenario.fingerprint(),
            spec.fingerprint(),
        )
        with ResultsStore(tmp_path / "r.sqlite") as store:
            store.put_cells([(key, result.to_dict())])
        # A fresh store object must read it back from disk, exactly.
        with ResultsStore(tmp_path / "r.sqlite") as store:
            reloaded = store.cell(key)
        assert reloaded == result.to_dict()
        assert ScenarioResult.from_dict(reloaded).as_row() == result.as_row()

    def test_warm_run_is_fully_cached_and_identical(self, tmp_path, abilene_small_tm):
        net = abilene_network()
        scenarios = single_link_failures(net)[:5]
        runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
        cold = runner.run(net, abilene_small_tm, scenarios, ["OSPF"])
        assert runner.last_stats.cache_hits == 0
        warm = runner.run(net, abilene_small_tm, scenarios, ["OSPF"])
        assert runner.last_stats.cache_hits == len(scenarios)
        assert runner.last_stats.evaluated == 0
        assert [r.as_row() for r in warm] == [r.as_row() for r in cold]
        assert all(r.cached for r in warm)
        # Stored cells come back exactly, timings included.
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_cache_is_keyed_on_demands(self, tmp_path, abilene_small_tm):
        net = abilene_network()
        scenarios = single_link_failures(net)[:2]
        runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
        runner.run(net, abilene_small_tm, scenarios, ["OSPF"])
        runner.run(net, abilene_small_tm.scaled(2.0), scenarios, ["OSPF"])
        assert runner.last_stats.cache_hits == 0  # different matrix, no reuse

    def test_parallel_matches_serial(self, abilene_small_tm):
        """Pooled and serial runs agree on every path: incremental, batched, cold."""
        net = abilene_network()
        scenarios = (
            single_link_failures(net)[:2]
            + capacity_degradations(net, count=2, factor=0.5, seed=3)
            + uniform_scaling_ensemble([0.8, 1.2])
        )
        protocols = ["OSPF", "MinHopOSPF", "SPEF"]
        serial = BatchRunner(max_workers=0).run(
            net, abilene_small_tm, scenarios, protocols
        )
        parallel = BatchRunner(max_workers=2, chunk_size=2).run(
            net, abilene_small_tm, scenarios, protocols
        )
        assert all(r.error is None for r in serial)
        assert [r.as_row() for r in parallel] == [r.as_row() for r in serial]

    def test_serial_run_dispatches_one_chunk_per_spec(self, tmp_path, abilene_small_tm):
        net = abilene_network()
        scenarios = single_link_failures(net)[:3] + uniform_scaling_ensemble([0.5, 1.5])
        runner = BatchRunner(max_workers=0, chunk_size=1, results_store=tmp_path / "r.sqlite")
        runner.run(net, abilene_small_tm, scenarios, ["OSPF", "MinHopOSPF"])
        assert runner.last_stats.chunks == 2
        # A fully cached spec has no misses and therefore no chunk.
        runner.run(net, abilene_small_tm, scenarios, ["OSPF", "MinMaxMLU"])
        assert runner.last_stats.cache_hits == len(scenarios)
        assert runner.last_stats.chunks == 1

    def test_failed_evaluation_is_reported_not_raised(self, abilene_small_tm):
        from repro.scenarios.runner import register_protocol

        class Exploding:
            name = "Exploding"

            def route(self, network, demands):
                raise RuntimeError("boom")

        register_protocol("_Exploding", Exploding)
        try:
            runner = BatchRunner(max_workers=0)
            results = runner.run(
                abilene_network(), abilene_small_tm, [baseline_scenario()], ["_Exploding"]
            )
            assert len(results) == 1
            assert not results[0].feasible
            assert results[0].mlu == float("inf")
            assert "boom" in results[0].error
        finally:
            from repro.scenarios.runner import PROTOCOL_REGISTRY

            PROTOCOL_REGISTRY.pop("_Exploding", None)

    def test_error_results_are_not_cached(self, tmp_path, abilene_small_tm):
        """A transient failure must not poison the stored cell as infeasible."""
        from repro.scenarios.runner import PROTOCOL_REGISTRY, register_protocol

        class FlakyOnce:
            name = "FlakyOnce"
            calls = 0

            def route(self, network, demands):
                type(self).calls += 1
                if type(self).calls == 1:
                    raise RuntimeError("transient")
                from repro.protocols.ospf import OSPF

                return OSPF().route(network, demands)

        register_protocol("_FlakyOnce", FlakyOnce)
        try:
            runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
            net = abilene_network()
            first = runner.run(net, abilene_small_tm, [baseline_scenario()], ["_FlakyOnce"])
            assert first[0].error is not None
            second = runner.run(net, abilene_small_tm, [baseline_scenario()], ["_FlakyOnce"])
            assert second[0].error is None  # re-evaluated, not served stale
            assert second[0].feasible
        finally:
            PROTOCOL_REGISTRY.pop("_FlakyOnce", None)

    def test_all_demands_dropped_yields_zero_mlu_not_an_error(self):
        """A cut that strands every demand is 'nothing to route', not a crash."""
        net = Network(name="pair")
        net.add_duplex_link(1, 2, 10.0)
        tm = TrafficMatrix({(1, 2): 1.0})
        cut = Scenario(
            scenario_id="cut", kind="link-failure", failed_links=((1, 2), (2, 1))
        )
        result = BatchRunner(max_workers=0).run(net, tm, [cut], ["OSPF"])[0]
        assert result.error is None
        assert result.feasible and not result.connected
        assert result.mlu == 0.0
        assert result.dropped_volume == pytest.approx(1.0)

    def test_inapplicable_scenario_is_reported_not_raised(self, abilene_small_tm):
        """A scenario built for another topology yields an error result."""
        foreign = Scenario(
            scenario_id="foreign", kind="link-failure", failed_links=((1, 99),)
        )
        runner = BatchRunner(max_workers=0)
        results = runner.run(
            abilene_network(), abilene_small_tm, [foreign, baseline_scenario()], ["OSPF"]
        )
        assert not results[0].feasible
        assert "unknown link" in results[0].error
        assert results[1].feasible  # the rest of the sweep is unaffected

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_property_same_seed_same_sweep_cached_or_fresh(self, abilene_small_tm, seed):
        """Same seed => identical scenario set => identical cached-vs-fresh results."""
        net = abilene_network()
        scenarios = capacity_degradations(net, count=3, seed=seed)
        assert scenarios == capacity_degradations(net, count=3, seed=seed)
        with tempfile.TemporaryDirectory() as store_dir:
            runner = BatchRunner(max_workers=0, results_store=f"{store_dir}/r.sqlite")
            fresh = runner.run(net, abilene_small_tm, scenarios, ["OSPF"])
            cached = runner.run(net, abilene_small_tm, scenarios, ["OSPF"])
            assert [r.as_row() for r in cached] == [r.as_row() for r in fresh]
            assert runner.last_stats.hit_rate == 1.0


# ----------------------------------------------------------------------
# Robustness metrics
# ----------------------------------------------------------------------
class TestRobustness:
    def _results(self, abilene_small_tm, protocols=("OSPF",)):
        net = abilene_network()
        scenarios = [baseline_scenario()] + single_link_failures(net)[:4]
        runner = BatchRunner(max_workers=0)
        return runner.run(net, abilene_small_tm, scenarios, list(protocols))

    def test_distribution_summary(self):
        summary = distribution_summary([0.2, 0.4, 0.6, 0.8, float("inf")])
        assert summary["count"] == 5
        assert summary["num_infinite"] == 1
        assert summary["min"] == pytest.approx(0.2)
        assert summary["max"] == pytest.approx(0.8)
        assert summary["mean"] == pytest.approx(0.5)

    def test_cvar_tail_and_degenerate_cases(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert cvar(values, alpha=0.2) == pytest.approx(0.95)
        assert cvar(values, alpha=0.0) == pytest.approx(1.0)  # worst case
        assert cvar(values, alpha=1.0) == pytest.approx(float(np.mean(values)))
        assert cvar(values, alpha=0.2, worst_high=False) == pytest.approx(0.15)
        assert cvar([0.5, float("inf")], alpha=0.5) == float("inf")
        with pytest.raises(ValueError):
            cvar(values, alpha=1.5)

    def test_worst_case_picks_highest_mlu(self, abilene_small_tm):
        results = self._results(abilene_small_tm)
        worst = worst_case(results)
        assert worst.mlu == max(r.mlu for r in results)

    def test_regret_vs_reoptimized_oracle_at_least_one(self, abilene_small_tm):
        results = self._results(abilene_small_tm, protocols=("OSPF",))
        oracle = self._results(abilene_small_tm, protocols=("MinMaxMLU",))
        rows = regret_rows(results, oracle)
        assert len(rows) == len(results)
        # MinMaxMLU minimises MLU, so OSPF's ratio-regret is always >= 1.
        assert all(row["regret"] >= 1.0 - 1e-9 for row in rows)

    def test_infinite_regret_is_surfaced_not_averaged(self):
        from repro.scenarios.runner import ScenarioResult

        def res(sid, proto, mlu):
            return ScenarioResult(
                scenario_id=sid,
                kind="link-failure",
                protocol=proto,
                mlu=mlu,
                utility=0.0,
                routed_volume=1.0,
                dropped_volume=0.0,
                feasible=mlu != float("inf"),
                connected=True,
            )

        results = [res("a", "P", 0.5), res("b", "P", float("inf")), res("c", "P", 0.4)]
        oracle = [res("a", "O", 0.25), res("b", "O", 0.5), res("c", "O", float("inf"))]
        rows = regret_rows(results, oracle)
        # A broken oracle ("c") makes regret undefined, never a flattering 0.
        assert math.isnan(float(rows[2]["regret"]))
        row = robustness_summary(results, oracle=oracle)[0]
        assert row["infinite_regret"] == 1
        assert row["mean_regret"] == pytest.approx(2.0)  # finite cases only
        assert row["max_regret"] == float("inf")  # infinity must propagate, NaN must not mask it

    def test_robustness_summary_one_row_per_protocol(self, abilene_small_tm):
        results = self._results(abilene_small_tm, protocols=("OSPF", "MinMaxMLU"))
        rows = robustness_summary(results, cvar_alpha=0.2)
        assert [row["protocol"] for row in rows] == ["OSPF", "MinMaxMLU"]
        for row in rows:
            assert row["scenarios"] == 5
            assert row["worst_mlu"] >= row["mean_mlu"] >= row["median_mlu"] * 0.5
            assert row["cvar20_mlu"] >= row["mean_mlu"]

    def test_sweep_experiment_wires_everything(self, abilene_small_tm):
        from repro.analysis.experiments import scenario_robustness_sweep
        from repro.analysis.reporting import format_regret, format_robustness_summary

        net = abilene_network()
        sweep = scenario_robustness_sweep(
            net,
            abilene_small_tm,
            scenarios=single_link_failures(net)[:3],
            protocols=("OSPF",),
            runner=BatchRunner(max_workers=0),
        )
        assert {r["protocol"] for r in sweep["summary"]} == {"OSPF"}
        assert len(sweep["results"]) == 4  # baseline + 3 failures
        assert "mean_regret" in sweep["summary"][0]
        text = format_robustness_summary(sweep["summary"])
        assert "OSPF" in text and "cvar" in text
        assert "regret" in format_regret(sweep["regret"], worst=2)
