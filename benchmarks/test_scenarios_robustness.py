"""Scenario engine: failure-sweep robustness of SPEF vs OSPF, batch-evaluated.

Beyond the paper's intact-topology figures: every single-trunk failure of
Abilene (and a compact mixed suite on a Rocketfuel-profile ISP) is routed
with OSPF and SPEF through the cached parallel batch runner, with the
re-optimised min-max LP as the regret oracle.  Run with ``-s`` to see the
worst-case / CVaR robustness tables; ``REPRO_FULL_BENCH=1`` adds sampled
dual-failure and demand-ensemble sweeps.
"""

import time

import pytest

from bench_utils import full_bench, run_once
from repro.analysis.experiments import scenario_robustness_sweep
from repro.analysis.reporting import format_regret, format_robustness_summary, print_report
from repro.scenarios import (
    dual_link_failures,
    gravity_noise_ensemble,
    hotspot_surge_ensemble,
    single_link_failures,
)


def _summary_of(sweep, protocol):
    return next(row for row in sweep["summary"] if row["protocol"].startswith(protocol))


@pytest.mark.scenarios
@pytest.mark.benchmark(group="scenarios")
def test_abilene_single_link_failure_sweep_spef_vs_ospf(
    benchmark, abilene_instance, abilene_link_failures, scenario_runner
):
    """Acceptance sweep: all Abilene trunk failures, SPEF vs OSPF, cached."""
    network = abilene_instance.network
    demands = abilene_instance.at_fraction(0.5)

    start = time.perf_counter()
    sweep = run_once(
        benchmark,
        scenario_robustness_sweep,
        network,
        demands,
        scenarios=abilene_link_failures,
        protocols=("OSPF", "SPEF"),
        runner=scenario_runner,
        cvar_alpha=0.2,
    )
    cold = time.perf_counter() - start

    # Second pass: identical sweep served from the warm stored cells.
    start = time.perf_counter()
    warm_sweep = scenario_robustness_sweep(
        network,
        demands,
        scenarios=abilene_link_failures,
        protocols=("OSPF", "SPEF"),
        runner=scenario_runner,
        cvar_alpha=0.2,
    )
    warm = time.perf_counter() - start

    print_report(
        f"Abilene single-trunk failure sweep at 50% saturation load: "
        f"{scenario_runner.last_stats.total} evaluations, "
        f"cold {cold:.2f}s vs warm {warm:.2f}s ({cold / warm:.0f}x)",
        format_robustness_summary(sweep["summary"]),
        format_regret(sweep["regret"], worst=6),
    )

    # Every (scenario, protocol) cell completed end-to-end.
    scenario_count = len(abilene_link_failures) + 1  # + baseline
    assert len(sweep["results"]) == 2 * scenario_count
    assert all(r.error is None for r in sweep["results"])

    # Warm cache: everything is a hit and the run is >= 5x faster.
    assert scenario_runner.last_stats.hit_rate == 1.0
    assert warm < cold / 5.0, f"warm cache run only {cold / warm:.1f}x faster"
    assert [r.as_row() for r in warm_sweep["results"]] == [
        r.as_row() for r in sweep["results"]
    ]

    # Robustness reporting carries worst-case and CVaR columns per protocol.
    ospf, spef = _summary_of(sweep, "OSPF"), _summary_of(sweep, "SPEF")
    for row in (ospf, spef):
        assert row["scenarios"] == scenario_count
        assert row["worst_mlu"] >= row["mean_mlu"] > 0
        assert row["cvar20_mlu"] >= row["median_mlu"]
        assert row["worst_scenario"].startswith("link:")

    # SPEF (re-optimised per scenario) beats OSPF across the distribution:
    # on average, in the tail, and in the worst case.
    assert spef["mean_mlu"] < ospf["mean_mlu"]
    assert spef["cvar20_mlu"] <= ospf["cvar20_mlu"] + 1e-9
    assert spef["worst_mlu"] <= ospf["worst_mlu"] + 1e-9

    # SPEF optimises the (1, beta) utility rather than MLU itself, so its
    # MLU-regret vs the min-max oracle is small but not exactly 1; OSPF's
    # regret is markedly larger.
    assert spef["mean_regret"] < ospf["mean_regret"]
    assert spef["mean_regret"] < 1.3

    # At 50% of saturation every single failure stays connected on Abilene
    # (it is 2-edge-connected) and feasible, so no demand is silently dropped.
    assert all(r.connected for r in sweep["results"])


@pytest.mark.scenarios
@pytest.mark.benchmark(group="scenarios")
def test_rocketfuel_mixed_scenario_sweep(benchmark, rocketfuel_instance, scenario_runner):
    """A compact mixed suite (failures + demand ensembles) on AS6461."""
    network = rocketfuel_instance.network
    demands = rocketfuel_instance.base_demands
    scenarios = (
        single_link_failures(network)[:4]
        + dual_link_failures(network, limit=2, seed=7)
        + gravity_noise_ensemble(demands, size=2, sigma=0.3, seed=11)
        + hotspot_surge_ensemble(demands, size=2, surge=2.5, seed=13)
    )
    if full_bench():
        scenarios = single_link_failures(network) + scenarios

    sweep = run_once(
        benchmark,
        scenario_robustness_sweep,
        network,
        demands,
        scenarios=scenarios,
        protocols=("OSPF", "SPEF"),
        runner=scenario_runner,
    )
    print_report(
        f"{network.name} mixed scenario sweep ({len(scenarios)} scenarios)",
        format_robustness_summary(sweep["summary"]),
    )

    assert all(r.error is None for r in sweep["results"])
    kinds = {r.kind for r in sweep["results"]}
    assert {"baseline", "link-failure", "demand"} <= kinds

    ospf, spef = _summary_of(sweep, "OSPF"), _summary_of(sweep, "SPEF")
    assert spef["mean_mlu"] < ospf["mean_mlu"]
    assert spef["mean_regret"] < ospf["mean_regret"]

    # Demand-only scenarios never disconnect anything.
    assert all(r.connected for r in sweep["results"] if r.kind == "demand")


@pytest.mark.scenarios
@pytest.mark.benchmark(group="scenarios")
def test_abilene_node_failures_drop_traffic_but_route_the_rest(
    benchmark, abilene_instance, scenario_runner
):
    """Node outages: dropped volume is accounted, the remainder still routes."""
    from repro.scenarios import node_failures

    network = abilene_instance.network
    demands = abilene_instance.at_fraction(0.6)
    scenarios = node_failures(network)

    sweep = run_once(
        benchmark,
        scenario_robustness_sweep,
        network,
        demands,
        scenarios=scenarios,
        protocols=("OSPF",),
        runner=scenario_runner,
        include_baseline=False,
    )
    print_report(
        "Abilene node-failure sweep (OSPF)",
        format_robustness_summary(sweep["summary"]),
    )

    results = sweep["results"]
    assert len(results) == network.num_nodes
    # Every node terminates or originates traffic, so each outage drops some.
    assert all(r.dropped_volume > 0 for r in results)
    assert all(not r.connected for r in results)
    # What survives must still be routable end-to-end.
    assert all(r.error is None for r in results)
    total = demands.total_volume()
    assert all(r.routed_volume + r.dropped_volume == pytest.approx(total) for r in results)
