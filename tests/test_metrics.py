"""Unit tests for the metrics package (utilization, load balance, path diversity)."""

import numpy as np
import pytest

from repro.core.objectives import LoadBalanceObjective
from repro.core.te_problem import TEProblem, solve_optimal_te
from repro.metrics.load_balance import (
    alternative_routings,
    is_min_max_balanced,
    is_qbeta_balanced,
    minimizes_mlu,
    proportional_balance_score,
)
from repro.metrics.paths import (
    average_path_diversity,
    equal_cost_path_counts,
    equal_cost_path_histogram,
    histogram_from_dags,
    multipath_pairs,
    used_link_count,
)
from repro.metrics.utilization import (
    UtilizationSummary,
    load_imbalance,
    max_link_utilization,
    overloaded_links,
    sorted_link_utilizations,
    underutilized_links,
    utilization_percentiles,
)
from repro.network.flows import FlowAssignment
from repro.protocols.ospf import invcap_weights
from repro.solvers.assignment import ecmp_assignment


@pytest.fixture
def uneven_flows(diamond_network):
    flows = FlowAssignment(network=diamond_network)
    flows.add_path_flow(4, [1, 2, 4], 9.0)
    flows.add_path_flow(4, [1, 3, 4], 1.0)
    return flows


class TestUtilizationMetrics:
    def test_mlu(self, uneven_flows):
        assert max_link_utilization(uneven_flows) == pytest.approx(0.9)

    def test_sorted_utilizations(self, uneven_flows):
        values = sorted_link_utilizations(uneven_flows)
        assert values[0] == pytest.approx(0.9)
        assert values[-1] == pytest.approx(0.1)

    def test_percentiles(self, uneven_flows):
        percentiles = utilization_percentiles(uneven_flows, (0.0, 100.0))
        assert percentiles[0.0] == pytest.approx(0.1)
        assert percentiles[100.0] == pytest.approx(0.9)

    def test_overloaded_and_underutilized(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 10.0)
        assert set(overloaded_links(flows)) == {(1, 2), (2, 4)}
        assert set(underutilized_links(flows)) == {(1, 3), (3, 4)}

    def test_load_imbalance(self, uneven_flows, diamond_network):
        balanced = FlowAssignment(network=diamond_network)
        balanced.add_path_flow(4, [1, 2, 4], 5.0)
        balanced.add_path_flow(4, [1, 3, 4], 5.0)
        assert load_imbalance(balanced) == pytest.approx(0.0)
        assert load_imbalance(uneven_flows) > 0.5

    def test_summary(self, uneven_flows):
        summary = UtilizationSummary.of(uneven_flows)
        assert summary.mlu == pytest.approx(0.9)
        assert summary.overloaded == 0
        assert summary.underutilized == 0  # threshold 0.1 is not strict


class TestLoadBalanceCriteria:
    def test_optimal_proportional_distribution_passes(self, fig1, fig1_tm):
        solution = solve_optimal_te(TEProblem(fig1, fig1_tm, LoadBalanceObjective.proportional()))
        candidate = solution.flows
        alternatives = [
            ecmp_assignment(fig1, fig1_tm, np.ones(4)),
            *alternative_routings(fig1, fig1_tm, count=3, seed=1),
        ]
        assert is_qbeta_balanced(candidate, alternatives, beta=1.0, tolerance=1e-4)

    def test_suboptimal_distribution_fails(self, fig1, fig1_tm):
        # Sending everything over the direct link is not proportionally
        # balanced: the optimal distribution strictly improves Eq. (4).
        direct = ecmp_assignment(fig1, fig1_tm, np.ones(4))
        optimal = solve_optimal_te(
            TEProblem(fig1, fig1_tm, LoadBalanceObjective.proportional())
        ).flows
        score = proportional_balance_score(direct, optimal, beta=1.0)
        assert score > 0

    def test_min_max_criterion(self, fig1, fig1_tm):
        from repro.protocols.minmax_mlu import MinMaxMLU

        candidate = MinMaxMLU().route(fig1, fig1_tm)
        alternatives = [ecmp_assignment(fig1, fig1_tm, np.ones(4))]
        assert minimizes_mlu(candidate, alternatives)
        assert is_min_max_balanced(candidate, alternatives)

    def test_minimizes_mlu_fails_for_bad_candidate(self, fig1, fig1_tm):
        from repro.protocols.minmax_mlu import MinMaxMLU

        bad = ecmp_assignment(fig1, fig1_tm, np.ones(4))  # MLU 1.0
        good = MinMaxMLU().route(fig1, fig1_tm)  # MLU 0.9
        assert not minimizes_mlu(bad, [good])


class TestPathDiversity:
    def test_equal_cost_path_counts(self, diamond_network):
        counts = equal_cost_path_counts(diamond_network, np.ones(4))
        assert counts[(1, 4)] == 2
        assert counts[(2, 4)] == 1
        assert counts[(4, 1)] == 0  # unreachable

    def test_histogram(self, diamond_network):
        histogram = equal_cost_path_histogram(diamond_network, np.ones(4))
        assert sum(histogram.values()) == 12  # all ordered pairs
        assert histogram[2] == 1  # only (1, 4) has two paths
        assert multipath_pairs(histogram) == 1

    def test_histogram_from_dags_matches(self, diamond_network):
        from repro.network.spt import all_shortest_path_dags

        dags = all_shortest_path_dags(diamond_network, list(diamond_network.nodes), np.ones(4))
        direct = equal_cost_path_histogram(diamond_network, np.ones(4))
        via_dags = histogram_from_dags(dags, diamond_network)
        assert direct == via_dags

    def test_average_path_diversity(self, diamond_network):
        assert average_path_diversity(diamond_network, np.ones(4)) > 0

    def test_max_paths_bucketing(self, diamond_network):
        histogram = equal_cost_path_histogram(diamond_network, np.ones(4), max_paths=1)
        assert set(histogram) <= {0, 1}

    def test_used_link_count(self):
        assert used_link_count({(1, 2): 0.5, (2, 3): 0.0, (3, 4): 1e-9}) == 1

    def test_ospf_abilene_invcap_has_unit_paths_mostly(self, abilene):
        histogram = equal_cost_path_histogram(abilene, invcap_weights(abilene))
        # Every pair is reachable, so bucket 0 must be empty.
        assert histogram.get(0, 0) == 0
        assert sum(histogram.values()) == 11 * 10
