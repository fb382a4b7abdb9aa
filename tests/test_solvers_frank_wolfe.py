"""Unit tests for the Frank-Wolfe (flow deviation) convex MCF solver."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from repro.core.objectives import LoadBalanceObjective
from repro.network.demands import TrafficMatrix
from repro.solvers.frank_wolfe import _line_step, solve_frank_wolfe
from repro.solvers.mcf import SolverError, solve_min_mlu


def _oracles(network, objective):
    return (
        lambda f: objective.congestion_cost(network, f),
        lambda f: objective.congestion_gradient(network, f),
    )


class TestFrankWolfe:
    def test_diamond_splits_evenly_under_proportional_objective(
        self, diamond_network, diamond_demands
    ):
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(diamond_network, objective)
        result = solve_frank_wolfe(diamond_network, diamond_demands, cost, gradient)
        assert result.converged
        # Symmetric paths: the optimum splits 8 units into 4 + 4.
        assert result.flows.flow_on(1, 2) == pytest.approx(4.0, abs=1e-3)
        assert result.flows.flow_on(1, 3) == pytest.approx(4.0, abs=1e-3)

    def test_weights_match_derivative_of_spare(self, diamond_network, diamond_demands):
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(diamond_network, objective)
        result = solve_frank_wolfe(diamond_network, diamond_demands, cost, gradient)
        spare = result.flows.spare_capacity()
        assert np.allclose(result.link_weights, objective.derivative(spare))

    def test_fig1_matches_paper_table1(self, fig1, fig1_tm):
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(fig1, objective)
        result = solve_frank_wolfe(fig1, fig1_tm, cost, gradient)
        utilization = fig1.weight_dict(result.flows.utilization())
        assert utilization[(1, 3)] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert utilization[(3, 4)] == pytest.approx(0.9, abs=1e-6)
        assert utilization[(1, 2)] == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_infeasible_barrier_instance_raises(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 25.0})  # exceeds the 20-unit cut
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(diamond_network, objective)
        with pytest.raises(SolverError):
            solve_frank_wolfe(diamond_network, demands, cost, gradient)

    def test_empty_demands(self, diamond_network):
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(diamond_network, objective)
        result = solve_frank_wolfe(diamond_network, TrafficMatrix(), cost, gradient)
        assert result.converged
        assert np.allclose(result.flows.aggregate(), 0.0)

    def test_objective_history_is_monotone_nonincreasing(self, fig4, fig4_tm):
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(fig4, objective)
        result = solve_frank_wolfe(fig4, fig4_tm, cost, gradient, max_iterations=60)
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 1e-8)

    def test_custom_initial_flows_accepted(self, diamond_network, diamond_demands):
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(diamond_network, objective)
        start = solve_min_mlu(diamond_network, diamond_demands).flows
        result = solve_frank_wolfe(
            diamond_network, diamond_demands, cost, gradient, initial_flows=start
        )
        assert result.converged

    def test_non_barrier_mode_handles_saturation(self, diamond_network):
        # Linear-ish objective (beta=0.5 is finite at zero spare capacity):
        # demands that saturate the cheap path should still solve.
        demands = TrafficMatrix({(1, 4): 18.0})
        objective = LoadBalanceObjective(beta=0.5)
        cost, gradient = _oracles(diamond_network, objective)
        result = solve_frank_wolfe(
            diamond_network, demands, cost, gradient, barrier=False, max_iterations=80
        )
        result.flows.validate(demands, tolerance=1e-4)
        assert result.flows.max_link_utilization() <= 1.0 + 1e-6

    def test_result_flows_respect_capacity(self, fig4, fig4_tm):
        objective = LoadBalanceObjective.proportional()
        cost, gradient = _oracles(fig4, objective)
        result = solve_frank_wolfe(fig4, fig4_tm, cost, gradient)
        assert result.flows.max_link_utilization() < 1.0
        result.flows.validate(fig4_tm, tolerance=1e-6)


def _reference_step(cost, flow, direction):
    """argmin of ``cost(flow + a * direction)`` on [0, 1] by bounded Brent.

    Bounded Brent stops within ``sqrt(eps) * |a|`` of its minimiser, so a
    second pass searches a 2e-4 window around the first to take the
    reference well below the 1e-8 the tests assert.
    """
    line = lambda a: cost(flow + a * direction)  # noqa: E731
    options = {"xatol": 1e-12}
    # Past a barrier the cost is inf, which Brent's parabola step handles
    # (it falls back to golden section) after an inf - inf.
    with np.errstate(invalid="ignore"):
        coarse = minimize_scalar(line, bounds=(0.0, 1.0), method="bounded", options=options).x
        lo, hi = max(0.0, coarse - 1e-4), min(1.0, coarse + 1e-4)
        fine = minimize_scalar(
            lambda u: line(lo + u * (hi - lo)), bounds=(0.0, 1.0), method="bounded", options=options
        ).x
    return lo + fine * (hi - lo)


class TestLineStep:
    """The exact step is the root of the line slope on [0, 1].

    Each case is one line ``f + a d`` on a few links with capacities ``c``;
    the oracles are the objective's own ``-sum V(c - f)`` and ``V'(c - f)``.
    """

    @staticmethod
    def _line(objective, capacity, flow, direction):
        capacity, flow, direction = (np.asarray(x, dtype=float) for x in (capacity, flow, direction))
        cost = lambda f: -objective.total_utility(capacity - f)  # noqa: E731
        gradient = lambda f: objective.derivative(capacity - f)  # noqa: E731
        return cost, gradient, flow, direction

    def test_interior_minimum(self):
        objective = LoadBalanceObjective(beta=1.0, q=np.array([1.0, 2.0, 0.5]))
        cost, gradient, flow, direction = self._line(
            objective, [3.0, 3.0, 3.0], [2.6, 1.5, 2.2], [-2.4, 1.6, 0.8]
        )
        alpha = _line_step(gradient, flow, direction)
        assert 0.0 < alpha < 1.0
        assert alpha == pytest.approx(_reference_step(cost, flow, direction), abs=1e-8)

    def test_full_step_when_the_slope_at_one_is_still_negative(self):
        objective = LoadBalanceObjective.proportional()
        cost, gradient, flow, direction = self._line(objective, [3.0, 3.0], [2.5, 1.5], [-0.4, 0.4])
        alpha = _line_step(gradient, flow, direction)
        assert alpha == 1.0
        assert alpha == pytest.approx(_reference_step(cost, flow, direction), abs=1e-8)

    def test_barrier_line_past_saturation(self):
        objective = LoadBalanceObjective.proportional()
        cost, gradient, flow, direction = self._line(objective, [3.0, 3.0], [2.5, 1.0], [-2.0, 4.0])
        # The second link saturates at a = 0.5: past it the slope is +inf.
        assert np.isinf(gradient(flow + direction)).any()
        alpha = _line_step(gradient, flow, direction)
        assert alpha == pytest.approx(_reference_step(cost, flow, direction), abs=1e-8)
        assert alpha == pytest.approx(0.125, abs=1e-12)

    def test_saturated_link_outside_the_direction(self):
        """beta < 1: a saturated link with d = 0 has marginal cost inf.

        ``inf * 0`` must not turn the slope into NaN: a NaN slope reads as
        "past the root", so the search would shrink to a step of ~0 and
        Frank-Wolfe would stall at a non-optimal point.
        """
        objective = LoadBalanceObjective(beta=0.5)
        cost, gradient, flow, direction = self._line(
            objective, [1.0, 1.0, 1.0], [1.0, 0.99, 0.1], [0.0, -0.9, 0.85]
        )
        assert np.isinf(gradient(flow)[0])
        alpha = _line_step(gradient, flow, direction)
        assert alpha > 0.0
        assert alpha == pytest.approx(_reference_step(cost, flow, direction), abs=1e-8)
