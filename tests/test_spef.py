"""Unit and integration tests for the SPEF protocol (Algorithm 4)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from routing_oracle import verify_split_consistency

import repro
from repro.analysis.experiments import standard_instances
from repro.core.objectives import LoadBalanceObjective
from repro.core.spef import SPEF, SPEFConfig
from repro.core.te_problem import TEProblem, solve_optimal_te
from repro.network.demands import TrafficMatrix
from repro.network.graph import Network
from repro.obs import telemetry
from repro.protocols.ospf import OSPF
from repro.protocols.spef_protocol import SPEFProtocol


class TestConfig:
    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            SPEFConfig(te_solver="magic")

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(ValueError):
            SPEF(config=SPEFConfig(), integer_weights=True)

    def test_overrides_build_config(self):
        spef = SPEF(integer_weights=True)
        assert spef.config.integer_weights is True


class TestPipeline:
    def test_fig4_achieves_optimal_te(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        assert solution.optimality_gap() == pytest.approx(0.0, abs=1e-3)
        assert solution.max_link_utilization() < 1.0
        solution.flows.validate(fig4_tm, tolerance=1e-4)

    def test_realised_flows_close_to_target(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        realised = solution.flows.aggregate()
        target = solution.target_flows
        assert np.max(np.abs(realised - target)) < 0.05 * np.max(target) + 1e-9

    def test_first_weights_positive_on_used_links(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        used = solution.flows.aggregate() > 1e-6
        assert np.all(solution.first_weights[used] > 0)

    def test_second_weights_nonnegative(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        assert np.all(solution.second_weights >= 0)

    def test_forwarding_tables_consistent_with_second_weights(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        assert verify_split_consistency(
            fig4, solution.dags, solution.second_weights, solution.forwarding_tables
        )

    def test_route_wrapper(self, diamond_network, diamond_demands):
        flows = SPEF().route(diamond_network, diamond_demands)
        assert flows.flow_on(1, 2) == pytest.approx(4.0, abs=0.2)

    def test_diamond_even_split_is_optimal(self, diamond_network, diamond_demands):
        solution = SPEF().fit(diamond_network, diamond_demands)
        assert solution.flows.flow_on(1, 2) == pytest.approx(4.0, abs=0.2)
        assert solution.flows.flow_on(1, 3) == pytest.approx(4.0, abs=0.2)

    def test_dual_solver_variant(self, fig1, fig1_tm):
        config = SPEFConfig(te_solver="dual", alg1_max_iterations=2000)
        solution = SPEF(config=config).fit(fig1, fig1_tm)
        assert solution.first_result is not None
        assert solution.te_solution is None
        assert solution.max_link_utilization() <= 1.0 + 1e-6

    def test_frank_wolfe_solver_records_te_solution(self, fig1, fig1_tm):
        solution = SPEF().fit(fig1, fig1_tm)
        assert solution.te_solution is not None
        assert solution.first_result is None

    def test_utility_never_worse_than_ospf(self, fig4, fig4_tm):
        spef_solution = SPEF().fit(fig4, fig4_tm)
        ospf_flows = OSPF().route(fig4, fig4_tm)
        ospf_utility = LoadBalanceObjective.proportional().total_utility(
            ospf_flows.spare_capacity()
        )
        assert spef_solution.utility() >= ospf_utility - 1e-6

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_all_paper_betas_run(self, fig4, fig4_tm, beta):
        solution = SPEF(objective=LoadBalanceObjective(beta=beta)).fit(fig4, fig4_tm)
        # beta = 0 legitimately saturates the bottleneck (Fig. 6 shows link 1
        # at 100% for SPEF0); allow the NEM tolerance on top of that.
        assert solution.max_link_utilization() <= 1.0 + 5e-3
        assert solution.flows.conservation_violation(fig4_tm) < 1e-6
        # Algorithm 2 meets its stop test within the default cap.
        assert solution.second_result.converged


#: One SPEF fit on Abilene with string node names ("r1" ... "r11") at 0.75x
#: saturation; prints the first and second weights' raw bytes.
RELABELLED_FIT = """
from repro.analysis.experiments import Instance
from repro.core.spef import SPEF
from repro.network.demands import TrafficMatrix
from repro.network.graph import Network
from repro.topology.backbones import abilene_network
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix

base = abilene_network()
name = {node: f"r{node}" for node in base.nodes}
network = Network(name="abilene-r")
for node in base.nodes:
    network.add_node(name[node])
for link in base.links:
    network.add_link(name[link.source], name[link.target], link.capacity, link.delay)
tm = abilene_traffic_matrix(base, total_volume=1.0, seed=1)
demands = TrafficMatrix({(name[s], name[t]): v for (s, t), v in tm.items()})
instance = Instance(network=network, base_demands=demands, kind="Backbone")
solution = SPEF().fit(network, instance.at_fraction(0.75))
print(solution.first_weights.tobytes().hex())
print(solution.second_weights.tobytes().hex())
"""


def test_fit_is_independent_of_the_hash_seed():
    """String node names hash differently per process; the fit must not care."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
        result = subprocess.run(
            [sys.executable, "-c", RELABELLED_FIT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


class TestIntegerWeights:
    def test_integer_weights_are_integers(self, fig4, fig4_tm):
        solution = SPEF(integer_weights=True).fit(fig4, fig4_tm)
        assert np.allclose(solution.first_weights, np.rint(solution.first_weights))
        assert np.all(solution.first_weights >= 1.0)

    def test_integer_weights_keep_feasibility(self, fig4, fig4_tm):
        solution = SPEF(integer_weights=True).fit(fig4, fig4_tm)
        assert solution.flows.conservation_violation(fig4_tm) < 1e-6

    def test_raw_weights_preserved(self, fig4, fig4_tm):
        solution = SPEF(integer_weights=True).fit(fig4, fig4_tm)
        assert not np.allclose(solution.first_weights, solution.raw_first_weights)


class TestPathDiversity:
    def test_equal_cost_paths_per_pair(self, diamond_network, diamond_demands):
        solution = SPEF().fit(diamond_network, diamond_demands)
        assert solution.equal_cost_paths(1, 4) >= 2
        assert solution.equal_cost_paths(4, 1) == 0  # unreachable direction

    def test_histogram_counts_all_pairs(self, fig4, fig4_tm):
        solution = SPEF().fit(fig4, fig4_tm)
        histogram = solution.equal_cost_path_histogram()
        total_pairs = sum(histogram.values())
        n = fig4.num_nodes
        # Only destinations with demand have DAGs; pairs counted are
        # (n - 1) per destination DAG.
        assert total_pairs == len(solution.dags) * (n - 1)


class TestSPEFProtocolAdapter:
    def test_with_beta_names(self):
        assert SPEFProtocol.with_beta(5).name == "SPEF5"
        assert SPEFProtocol().name == "SPEF(beta=1)"

    def test_route_and_last_solution(self, fig4, fig4_tm):
        protocol = SPEFProtocol()
        flows = protocol.route(fig4, fig4_tm)
        assert protocol.last_solution is not None
        assert np.allclose(flows.aggregate(), protocol.last_solution.flows.aggregate())

    def test_split_ratios_reuse_last_solution(self, fig4, fig4_tm):
        protocol = SPEFProtocol()
        protocol.route(fig4, fig4_tm)
        first_solution = protocol.last_solution
        ratios = protocol.split_ratios(fig4, fig4_tm)
        assert protocol.last_solution is first_solution
        assert set(ratios) == set(fig4_tm.destinations())

    def test_evaluate_returns_metrics(self, fig4, fig4_tm):
        evaluation = SPEFProtocol().evaluate(fig4, fig4_tm)
        assert evaluation.max_link_utilization < 1.0
        assert np.isfinite(evaluation.normalized_utility)
        row = evaluation.as_row()
        assert row["protocol"].startswith("SPEF")


class TestOptimalityAcrossObjectives:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_spef_matches_centralized_optimum(self, fig4, fig4_tm, beta):
        objective = LoadBalanceObjective(beta=beta)
        central = solve_optimal_te(TEProblem(fig4, fig4_tm, objective))
        solution = SPEF(objective=objective).fit(fig4, fig4_tm)
        assert solution.utility() == pytest.approx(central.utility, rel=1e-2)

    def test_degenerate_single_demand(self, line_network):
        demands = TrafficMatrix({(1, 4): 2.0})
        solution = SPEF().fit(line_network, demands)
        assert solution.flows.flow_on(1, 2) == pytest.approx(2.0)
        assert solution.flows.flow_on(3, 4) == pytest.approx(2.0)


def test_saturated_link_with_beta_below_one_gets_a_finite_first_weight():
    """A forced-saturated link (0 < beta < 1) has an infinite marginal cost."""
    network = Network()
    network.add_duplex_link(1, 2, 10.0)
    network.add_duplex_link(2, 3, 100.0)
    demands = TrafficMatrix({(1, 3): 10.0})
    solution = SPEF(objective=LoadBalanceObjective(beta=0.5)).fit(network, demands)
    assert np.all(np.isfinite(solution.first_weights))
    assert solution.max_link_utilization() <= 1.0
    assert solution.flows.flow_on(1, 2) == pytest.approx(10.0)


class TestSecondWeightsOutcome:
    @pytest.mark.parametrize(
        "overrides, outcome",
        [({}, "converged"), ({"alg2_max_iterations": 2, "alg2_tolerance": 0.0}, "iteration-cap")],
    )
    def test_outcome_is_counted(self, fig4, fig4_tm, overrides, outcome):
        with telemetry.session(label="nem") as registry:
            solution = SPEF(**overrides).fit(fig4, fig4_tm)
        assert solution.second_result.converged == (outcome == "converged")
        assert registry.counter_value("optimizer.outcome") == 1
        assert registry.counter_value(
            "optimizer.outcome", optimizer="spef", phase="second-weights", outcome=outcome
        ) == 1

    def test_disabled_telemetry_leaves_the_fit_unchanged(self, fig4, fig4_tm):
        plain = SPEF().fit(fig4, fig4_tm)
        with telemetry.session(label="nem"):
            traced = SPEF().fit(fig4, fig4_tm)
        assert plain.second_weights.tobytes() == traced.second_weights.tobytes()
        assert plain.second_result.iterations == traced.second_result.iterations


@pytest.fixture(scope="module")
def standard():
    return standard_instances()


@pytest.mark.parametrize(
    "name", ["Abilene", "Cernet2", "Hier50a", "Hier50b", "Rand50a", "Rand50b", "Rand100"]
)
def test_nem_converges_on_standard_instances(standard, name):
    """Algorithm 2 meets its stop test within the default cap at 0.75x saturation."""
    instance = standard[name]
    solution = SPEF().fit(instance.network, instance.at_fraction(0.75))
    assert solution.second_result.converged, solution.second_result.max_excess
