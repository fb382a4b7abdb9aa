"""Paper-property checks on traffic distributions, and path-diversity metrics."""

import numpy as np
import pytest

from repro.core.objectives import LoadBalanceObjective
from repro.core.te_problem import TEProblem, solve_optimal_te
from repro.metrics.paths import (
    equal_cost_path_counts,
    equal_cost_path_histogram,
    histogram_from_dags,
)
from repro.protocols.minmax_mlu import MinMaxMLU
from repro.protocols.ospf import invcap_weights
from repro.solvers.assignment import ecmp_assignment


def eq4_score(candidate, other, beta=1.0):
    """Left-hand side of Eq. (4): positive when ``other`` improves on ``candidate``."""
    return LoadBalanceObjective(beta=beta).verify_load_balance(
        candidate.network, candidate.spare_capacity(), other.spare_capacity()
    )


class TestLoadBalanceCriteria:
    """Theorem 3.3 on Fig. 1: the (q, beta) optimum is (q, beta) load balanced."""

    def test_optimal_proportional_distribution_passes(self, fig1, fig1_tm):
        candidate = solve_optimal_te(
            TEProblem(fig1, fig1_tm, LoadBalanceObjective.proportional())
        ).flows
        # Feasible alternatives: even ECMP under unit and perturbed weights.
        rng = np.random.default_rng(1)
        alternatives = [
            ecmp_assignment(fig1, fig1_tm, weights)
            for weights in [np.ones(4), *(0.5 + rng.random((3, fig1.num_links)))]
        ]
        for other in alternatives:
            assert eq4_score(candidate, other) <= 1e-4

    def test_suboptimal_distribution_fails(self, fig1, fig1_tm):
        # Sending everything over the direct link is not proportionally
        # balanced: the optimal distribution strictly improves Eq. (4).
        direct = ecmp_assignment(fig1, fig1_tm, np.ones(4))
        optimal = solve_optimal_te(
            TEProblem(fig1, fig1_tm, LoadBalanceObjective.proportional())
        ).flows
        assert eq4_score(direct, optimal) > 0

    def test_min_max_criterion(self, fig1, fig1_tm):
        candidate = MinMaxMLU().route(fig1, fig1_tm)
        alternative = ecmp_assignment(fig1, fig1_tm, np.ones(4))
        assert candidate.max_link_utilization() <= alternative.max_link_utilization() + 1e-9

    def test_minimizes_mlu_fails_for_bad_candidate(self, fig1, fig1_tm):
        bad = ecmp_assignment(fig1, fig1_tm, np.ones(4))
        good = MinMaxMLU().route(fig1, fig1_tm)
        assert bad.max_link_utilization() == pytest.approx(1.0)
        assert good.max_link_utilization() == pytest.approx(0.9)


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

    def test_histogram_from_dags_matches(self, diamond_network):
        from repro.network.spt import all_shortest_path_dags

        dags = all_shortest_path_dags(diamond_network, list(diamond_network.nodes), np.ones(4))
        direct = equal_cost_path_histogram(diamond_network, np.ones(4))
        via_dags = histogram_from_dags(dags, diamond_network)
        assert direct == via_dags

    def test_max_paths_bucketing(self, diamond_network):
        histogram = equal_cost_path_histogram(diamond_network, np.ones(4), max_paths=1)
        assert set(histogram) <= {0, 1}

    def test_ospf_abilene_invcap_has_unit_paths_mostly(self, abilene):
        histogram = equal_cost_path_histogram(abilene, invcap_weights(abilene))
        # Every pair is reachable, so bucket 0 must be empty.
        assert histogram.get(0, 0) == 0
        assert sum(histogram.values()) == 11 * 10
