"""Unit tests for Algorithm 2 (NEM) and Algorithm 3 (TrafficDistribution)."""

import numpy as np
import pytest

from repro.core.nem import compute_second_weights, nem_dual_objective
from repro.core.objectives import LoadBalanceObjective
from repro.core.te_problem import TEProblem, solve_optimal_te
from repro.core.traffic_distribution import traffic_distribution
from repro.network.demands import TrafficMatrix
from repro.network.spt import all_shortest_path_dags
from repro.routing import CompiledDag


def _stack(network, dags, destination):
    """One destination's rows of ``dags``, compiled on the kernel."""
    rows = [dags.destinations.index(destination)]
    member = np.isfinite(dags.distances[rows])
    return CompiledDag.from_mask(network, [destination], member, dags.mask[rows])


def path_weight_sums(network, dags, destination, second):
    """The kernel's Eq. (22) ``Z`` values towards one destination, keyed by node."""
    stack = _stack(network, dags, destination)
    z_values = stack.path_weight_sums(np.exp(-np.asarray(second, dtype=float)[stack.links]))
    return {node: z_values[network.node_index(node)] for node in dags[destination].distances}


def exponential_split_ratios(network, dags, destination, second):
    """The kernel's Eq. (22) split ratios towards one destination as ``{node: {hop: ratio}}``."""
    stack = _stack(network, dags, destination)
    ratios: dict = {}
    for tail, head, ratio in zip(
        stack.rows, stack.targets, stack.exponential_ratios(second), strict=True
    ):
        ratios.setdefault(network.nodes[tail], {})[network.nodes[head]] = ratio
    return ratios


class TestPathWeightSums:
    def test_single_path_z_is_exp_of_length(self, line_network):
        dags = all_shortest_path_dags(line_network, [4], np.ones(3))
        second = np.array([0.5, 1.0, 1.5])
        z_values = path_weight_sums(line_network, dags, 4, second)
        assert z_values[1] == pytest.approx(np.exp(-3.0))
        assert z_values[4] == pytest.approx(1.0)

    def test_diamond_sums_both_paths(self, diamond_network):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        second = diamond_network.weight_vector({(1, 2): 1.0, (2, 4): 0.0, (1, 3): 0.0, (3, 4): 0.0})
        z_values = path_weight_sums(diamond_network, dags, 4, second)
        assert z_values[1] == pytest.approx(np.exp(-1.0) + 1.0)


class TestExponentialSplitRatios:
    def test_zero_weights_split_by_path_count(self, diamond_network):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        ratios = exponential_split_ratios(diamond_network, dags, 4, np.zeros(4))
        assert ratios[1][2] == pytest.approx(0.5)
        assert ratios[1][3] == pytest.approx(0.5)

    def test_ratios_follow_eq22(self, diamond_network):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        second = diamond_network.weight_vector({(1, 2): 1.0, (2, 4): 0.0, (1, 3): 0.0, (3, 4): 0.0})
        ratios = exponential_split_ratios(diamond_network, dags, 4, second)
        expected_2 = np.exp(-1.0) / (np.exp(-1.0) + 1.0)
        assert ratios[1][2] == pytest.approx(expected_2)
        assert ratios[1][3] == pytest.approx(1.0 - expected_2)

    def test_ratios_sum_to_one(self, fig4, fig4_tm):
        weights = np.ones(fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        second = np.linspace(0, 1, fig4.num_links)
        for destination in dags:
            ratios = exponential_split_ratios(fig4, dags, destination, second)
            for hops in ratios.values():
                assert sum(hops.values()) == pytest.approx(1.0)

    def test_higher_second_weight_reduces_share(self, diamond_network):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        low = exponential_split_ratios(
            diamond_network, dags, 4, diamond_network.weight_vector({(1, 2): 0.5})
        )
        high = exponential_split_ratios(
            diamond_network, dags, 4, diamond_network.weight_vector({(1, 2): 2.0})
        )
        assert high[1][2] < low[1][2]


class TestTrafficDistribution:
    def test_even_split_with_zero_second_weights(self, diamond_network, diamond_demands):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        flows = traffic_distribution(diamond_network, diamond_demands, dags, np.zeros(4))
        assert flows.flow_on(1, 2) == pytest.approx(4.0)
        flows.validate(diamond_demands)

    def test_conservation_on_fig4(self, fig4, fig4_tm):
        weights = np.ones(fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        flows = traffic_distribution(fig4, fig4_tm, dags, np.zeros(fig4.num_links))
        assert flows.conservation_violation(fig4_tm) < 1e-9

    def test_second_weights_shift_traffic(self, diamond_network, diamond_demands):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        second = diamond_network.weight_vector({(1, 2): 3.0})
        flows = traffic_distribution(diamond_network, diamond_demands, dags, second)
        assert flows.flow_on(1, 2) < flows.flow_on(1, 3)

    def test_bad_weight_shape_rejected(self, diamond_network, diamond_demands):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        with pytest.raises(ValueError):
            traffic_distribution(diamond_network, diamond_demands, dags, np.zeros(2))


class TestAlgorithm2:
    def _setup(self, network, demands, beta=1.0):
        objective = LoadBalanceObjective(beta=beta)
        solution = solve_optimal_te(TEProblem(network, demands, objective))
        weights = solution.link_weights
        tolerance = 0.05 * float(np.mean(weights[weights > 0]))
        dags = all_shortest_path_dags(network, demands.destinations(), weights, tolerance)
        return solution, dags

    def test_realises_optimal_flows_on_diamond(self, diamond_network, diamond_demands):
        solution, dags = self._setup(diamond_network, diamond_demands)
        result = compute_second_weights(
            diamond_network,
            diamond_demands,
            dags,
            solution.flows.aggregate(),
            max_iterations=300,
        )
        assert result.converged
        assert np.allclose(
            result.flows.aggregate(), solution.flows.aggregate(), atol=0.05 * 8.0
        )

    def test_weights_nonnegative(self, fig4, fig4_tm):
        solution, dags = self._setup(fig4, fig4_tm)
        result = compute_second_weights(
            fig4, fig4_tm, dags, solution.flows.aggregate(), max_iterations=200
        )
        assert np.all(result.weights >= 0)

    def test_flows_do_not_exceed_target_much(self, fig4, fig4_tm):
        solution, dags = self._setup(fig4, fig4_tm)
        target = solution.flows.aggregate()
        result = compute_second_weights(fig4, fig4_tm, dags, target, max_iterations=500)
        excess = result.flows.aggregate() - target
        assert float(np.max(excess)) <= 0.05 * float(np.max(target)) + 1e-6

    def test_dual_history_recorded(self, diamond_network, diamond_demands):
        solution, dags = self._setup(diamond_network, diamond_demands)
        # Force the target away from the zero-weight split so that the
        # algorithm actually iterates.
        target = solution.flows.aggregate() * 0.9
        result = compute_second_weights(
            diamond_network,
            diamond_demands,
            dags,
            target,
            max_iterations=50,
            tolerance=0.0,
            record_history=True,
        )
        assert 1 <= len(result.dual_objective_history) <= 50
        assert all(np.isfinite(v) for v in result.dual_objective_history)

    def test_zero_initial_weights_default(self, diamond_network, diamond_demands):
        solution, dags = self._setup(diamond_network, diamond_demands)
        result = compute_second_weights(
            diamond_network, diamond_demands, dags, solution.flows.aggregate(), max_iterations=1,
            tolerance=1e9,
        )
        # With a huge tolerance the loop exits immediately and v stays 0.
        assert np.allclose(result.weights, 0.0)

    def test_bad_target_shape_rejected(self, diamond_network, diamond_demands):
        solution, dags = self._setup(diamond_network, diamond_demands)
        with pytest.raises(ValueError):
            compute_second_weights(diamond_network, diamond_demands, dags, np.zeros(2))

    def test_dual_objective_value(self, diamond_network, diamond_demands):
        solution, dags = self._setup(diamond_network, diamond_demands)
        value = nem_dual_objective(
            diamond_network,
            diamond_demands,
            dags,
            np.zeros(4),
            solution.flows.aggregate(),
        )
        # With v = 0 the dual equals sum_r (d_r / total) * log(#paths) = log 2.
        assert value == pytest.approx(np.log(2.0))

    def test_capped_run_returns_the_measured_iterate(self, fig4, fig4_tm):
        solution, dags = self._setup(fig4, fig4_tm)
        target = solution.flows.aggregate()
        result = compute_second_weights(
            fig4, fig4_tm, dags, target, max_iterations=3, tolerance=0.0
        )
        assert not result.converged
        assert result.iterations == 3
        rerouted = traffic_distribution(fig4, fig4_tm, dags, result.weights).aggregate()
        np.testing.assert_allclose(rerouted, result.flows.aggregate(), atol=1e-12, rtol=0)
        assert result.max_excess == pytest.approx(float(np.max(rerouted - target)), abs=1e-12)

    def test_dual_objective_matches_per_demand_sum(self, fig4, fig4_tm):
        """The vectorised dual equals ``v . f* / T + sum_r (d_r / T) log Z_r(v)``."""
        solution, dags = self._setup(fig4, fig4_tm)
        target = solution.flows.aggregate()
        second = np.random.default_rng(7).random(fig4.num_links)
        total = fig4_tm.total_volume()
        expected = float(np.dot(second, target)) / total
        for (source, destination), volume in fig4_tm.items():
            z_values = path_weight_sums(fig4, dags, destination, second)
            expected += (volume / total) * float(np.log(z_values[source]))
        value = nem_dual_objective(fig4, fig4_tm, dags, second, target)
        assert value == pytest.approx(expected, rel=0, abs=1e-12)

    def test_dual_objective_empty_demands(self, diamond_network):
        no_dags = all_shortest_path_dags(diamond_network, [], np.ones(4))
        assert nem_dual_objective(
            diamond_network, TrafficMatrix(), no_dags, np.zeros(4), np.zeros(4)
        ) == 0.0
