"""Unit tests for the TE utility-maximization problem and its reference solver."""

import numpy as np
import pytest

from repro.core.objectives import LoadBalanceObjective
from repro.core.te_problem import TEProblem, optimality_gap, solve_optimal_te
from repro.network.demands import DemandError, TrafficMatrix
from repro.solvers.mcf import SolverError


class TestProblem:
    def test_validates_demands(self, fig1):
        with pytest.raises(DemandError):
            TEProblem(fig1, TrafficMatrix({(1, 99): 1.0}))

    def test_network_load(self, fig1, fig1_tm):
        problem = TEProblem(fig1, fig1_tm)
        assert problem.network_load() == pytest.approx(1.9 / 4.0)

    def test_scaled(self, fig1, fig1_tm):
        problem = TEProblem(fig1, fig1_tm)
        scaled = problem.scaled(0.5)
        assert scaled.demands.total_volume() == pytest.approx(0.95)
        assert scaled.network is fig1


class TestSolveBeta1:
    def test_fig1_matches_table1(self, fig1, fig1_tm):
        solution = solve_optimal_te(TEProblem(fig1, fig1_tm, LoadBalanceObjective.proportional()))
        weights = fig1.weight_dict(solution.link_weights)
        assert weights[(1, 3)] == pytest.approx(3.0, rel=1e-2)
        assert weights[(3, 4)] == pytest.approx(10.0, rel=1e-2)
        assert weights[(1, 2)] == pytest.approx(1.5, rel=1e-2)
        assert weights[(2, 3)] == pytest.approx(1.5, rel=1e-2)

    def test_weights_equal_derivative_of_spare(self, fig4, fig4_tm):
        objective = LoadBalanceObjective.proportional()
        solution = solve_optimal_te(TEProblem(fig4, fig4_tm, objective))
        expected = objective.derivative(solution.spare_capacity)
        assert np.allclose(solution.link_weights, expected)

    def test_flows_feasible(self, fig4, fig4_tm):
        solution = solve_optimal_te(TEProblem(fig4, fig4_tm))
        solution.flows.validate(fig4_tm, tolerance=1e-6)
        assert solution.max_link_utilization < 1.0

    def test_capped_solve_reports_its_gap(self, fig4, fig4_tm):
        capped = solve_optimal_te(TEProblem(fig4, fig4_tm), max_iterations=3, tolerance=1e-7)
        assert capped.iterations == 3
        assert capped.converged is False
        assert capped.relative_gap > 1e-7

    def test_converged_solve_reports_its_gap(self, diamond_network, diamond_demands):
        solved = solve_optimal_te(TEProblem(diamond_network, diamond_demands), tolerance=1e-7)
        assert solved.converged is True
        assert 0.0 <= solved.relative_gap <= 1e-7

    def test_infeasible_raises(self, fig1):
        demands = TrafficMatrix({(1, 3): 3.0})
        with pytest.raises(SolverError):
            solve_optimal_te(TEProblem(fig1, demands))

    def test_empty_demands(self, fig1):
        solution = solve_optimal_te(TEProblem(fig1, TrafficMatrix()))
        assert np.allclose(solution.flows.aggregate(), 0.0)
        assert solution.converged


class TestSolveBeta0:
    def test_minimum_hop_routing_on_fig1(self, fig1, fig1_tm):
        # With beta=0 and q=1 the optimum sends the (1,3) demand on the
        # direct link (1 hop) instead of the detour (2 hops).
        solution = solve_optimal_te(TEProblem(fig1, fig1_tm, LoadBalanceObjective.minimum_hop()))
        utilization = fig1.weight_dict(solution.flows.utilization())
        assert utilization[(1, 3)] == pytest.approx(1.0, abs=1e-6)
        assert utilization[(1, 2)] == pytest.approx(0.0, abs=1e-6)

    def test_beta0_weight_on_unsaturated_links_is_q(self, fig1, fig1_tm):
        solution = solve_optimal_te(TEProblem(fig1, fig1_tm, LoadBalanceObjective.minimum_hop()))
        weights = fig1.weight_dict(solution.link_weights)
        # Unsaturated links keep weight q = 1 (Example 3); the saturated
        # direct link (1,3) gets q plus its congestion dual, i.e. >= 1.
        assert weights[(3, 4)] == pytest.approx(1.0, abs=1e-6)
        assert weights[(1, 3)] >= 1.0 - 1e-9

    def test_utility_value_is_linear_sum(self, fig1, fig1_tm):
        objective = LoadBalanceObjective.minimum_hop()
        solution = solve_optimal_te(TEProblem(fig1, fig1_tm, objective))
        assert solution.utility == pytest.approx(
            float(np.sum(solution.spare_capacity)), abs=1e-6
        )


class TestSolveOtherBetas:
    @pytest.mark.parametrize("beta", [0.5, 2.0, 5.0])
    def test_feasible_and_consistent(self, fig4, fig4_tm, beta):
        objective = LoadBalanceObjective(beta=beta)
        solution = solve_optimal_te(TEProblem(fig4, fig4_tm, objective))
        solution.flows.validate(fig4_tm, tolerance=1e-5)
        assert solution.utility == pytest.approx(
            objective.total_utility(solution.spare_capacity), rel=1e-9
        )

    def test_large_beta_approaches_min_mlu(self, fig1, fig1_tm):
        from repro.solvers.mcf import solve_min_mlu

        optimal_mlu = solve_min_mlu(fig1, fig1_tm).objective
        solution = solve_optimal_te(TEProblem(fig1, fig1_tm, LoadBalanceObjective(beta=8.0)))
        assert solution.max_link_utilization == pytest.approx(optimal_mlu, abs=0.02)

    def test_bottleneck_utilization_decreases_with_beta(self, fig1, fig1_tm):
        # Fig. 3(b): the utilization of the direct link (1, 3) decreases in beta.
        utilizations = []
        for beta in (0.0, 1.0, 3.0):
            solution = solve_optimal_te(TEProblem(fig1, fig1_tm, LoadBalanceObjective(beta=beta)))
            utilizations.append(fig1.weight_dict(solution.flows.utilization())[(1, 3)])
        assert utilizations[0] >= utilizations[1] >= utilizations[2] - 1e-6


class TestOptimalityGap:
    def test_gap_zero_for_optimal_flows(self, fig4, fig4_tm):
        problem = TEProblem(fig4, fig4_tm)
        solution = solve_optimal_te(problem)
        gap = optimality_gap(problem, solution.flows, reference=solution)
        assert abs(gap) < 1e-9

    def test_gap_positive_for_suboptimal_flows(self, fig1, fig1_tm):
        from repro.protocols.ospf import OSPF

        problem = TEProblem(fig1, fig1_tm)
        reference = solve_optimal_te(problem)
        # Hop-count OSPF saturates the direct link -> -inf utility -> inf gap.
        ospf_flows = OSPF(weights=np.ones(4)).route(fig1, fig1_tm)
        gap = optimality_gap(problem, ospf_flows, reference=reference)
        assert gap == float("inf")

    def test_gap_without_reference_recomputes(self, diamond_network, diamond_demands):
        problem = TEProblem(diamond_network, diamond_demands)
        solution = solve_optimal_te(problem)
        assert optimality_gap(problem, solution.flows) == pytest.approx(0.0, abs=1e-6)

    def test_normalized_utility_reported(self, fig4, fig4_tm):
        solution = solve_optimal_te(TEProblem(fig4, fig4_tm))
        value = solution.normalized_utility()
        assert np.isfinite(value)
        assert value < 0
