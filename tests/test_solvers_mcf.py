"""Unit tests for the LP multi-commodity flow solvers."""

import numpy as np
import pytest
from scipy import sparse

from repro.network.demands import TrafficMatrix
from repro.network.incidence import incidence_matrix
from repro.solvers.mcf import (
    SolverError,
    _stack_conservation,
    solve_min_cost_mcf,
    solve_min_mlu,
    solve_route_subproblem,
)


def _per_destination_conservation(network, demands, destinations):
    """Reference assembly: one dense incidence slice per destination, then block_diag."""
    incidence = incidence_matrix(network)
    dense = demands.matrix(network)
    blocks, rhs = [], []
    for destination in destinations:
        column = network.node_index(destination)
        keep = np.arange(network.num_nodes) != column
        blocks.append(sparse.csr_matrix(incidence[keep, :]))
        rhs.append(dense[keep, column])
    return sparse.block_diag(blocks, format="csr"), np.concatenate(rhs)


class TestConservationAssembly:
    """The one-build LP assembly equals the per-destination block construction."""

    @pytest.mark.parametrize(
        "network_fixture, demands_fixture",
        [("diamond_network", "diamond_demands"), ("fig4", "fig4_tm"), ("abilene", "abilene_tm")],
    )
    def test_arrays_match_block_diag_of_dense_slices(
        self, request, network_fixture, demands_fixture
    ):
        network = request.getfixturevalue(network_fixture)
        demands = request.getfixturevalue(demands_fixture)
        destinations = demands.destinations()
        a_eq, b_eq = _stack_conservation(network, demands, destinations)
        expected_a, expected_b = _per_destination_conservation(network, demands, destinations)
        assert a_eq.shape == expected_a.shape
        for name in ("indptr", "indices", "data"):
            actual, expected = getattr(a_eq, name), getattr(expected_a, name)
            assert actual.dtype == expected.dtype, name
            np.testing.assert_array_equal(actual, expected, err_msg=name)
        assert b_eq.dtype == expected_b.dtype
        np.testing.assert_array_equal(b_eq, expected_b)

    def test_each_block_drops_its_own_destination_row(self, diamond_network):
        # Destinations out of node order, one of them without any demand.
        demands = TrafficMatrix({(1, 4): 8.0, (2, 4): 2.0, (4, 1): 3.0})
        destinations = [4, 3, 1]
        a_eq, b_eq = _stack_conservation(diamond_network, demands, destinations)
        expected_a, expected_b = _per_destination_conservation(
            diamond_network, demands, destinations
        )
        assert a_eq.shape == (3 * 3, 3 * 4)
        np.testing.assert_array_equal(a_eq.toarray(), expected_a.toarray())
        np.testing.assert_array_equal(b_eq, expected_b)
        # Block of destination 4 keeps the rows of nodes 1, 2, 3: the sources' volumes.
        np.testing.assert_array_equal(b_eq[:3], [8.0, 2.0, 0.0])


class TestMinCostMcf:
    def test_uses_cheapest_path(self, diamond_network, diamond_demands):
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 5.0, (3, 4): 5.0}
        solution = solve_min_cost_mcf(diamond_network, diamond_demands, weights)
        assert solution.flows.flow_on(1, 2) == pytest.approx(8.0)
        assert solution.objective == pytest.approx(16.0)
        solution.flows.validate(diamond_demands)

    def test_splits_when_capacity_binds(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 15.0})
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 5.0, (3, 4): 5.0}
        solution = solve_min_cost_mcf(diamond_network, demands, weights)
        # Cheapest path capacity is 10; 5 units must take the detour.
        assert solution.flows.flow_on(1, 2) == pytest.approx(10.0)
        assert solution.flows.flow_on(1, 3) == pytest.approx(5.0)
        solution.flows.validate(demands)

    def test_uncapacitated_matches_shortest_path(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 15.0})
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 5.0, (3, 4): 5.0}
        solution = solve_min_cost_mcf(diamond_network, demands, weights, capacitated=False)
        assert solution.flows.flow_on(1, 2) == pytest.approx(15.0)

    def test_infeasible_raises(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 100.0})
        with pytest.raises(SolverError):
            solve_min_cost_mcf(diamond_network, demands, np.ones(4))

    def test_empty_demands(self, diamond_network):
        solution = solve_min_cost_mcf(diamond_network, TrafficMatrix(), np.ones(4))
        assert solution.objective == 0.0
        assert np.allclose(solution.flows.aggregate(), 0.0)

    def test_capacity_duals_nonnegative(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 15.0})
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 5.0, (3, 4): 5.0}
        solution = solve_min_cost_mcf(diamond_network, demands, weights)
        assert solution.capacity_duals is not None
        assert np.all(solution.capacity_duals >= -1e-9)
        # The binding cheap path should carry a positive shadow price.
        assert solution.capacity_duals.max() > 0

    def test_multiple_commodities(self, fig1, fig1_tm):
        solution = solve_min_cost_mcf(fig1, fig1_tm, np.ones(4))
        solution.flows.validate(fig1_tm)
        assert set(solution.flows.destinations) == {3, 4}


class TestMinMlu:
    def test_diamond_splits_evenly(self, diamond_network, diamond_demands):
        solution = solve_min_mlu(diamond_network, diamond_demands)
        assert solution.objective == pytest.approx(0.4, abs=1e-6)
        solution.flows.validate(diamond_demands)

    def test_fig1_optimal_mlu(self, fig1, fig1_tm):
        # Fig. 1 discussion: the min-max optimum has MLU 0.9 (link 3->4).
        solution = solve_min_mlu(fig1, fig1_tm)
        assert solution.objective == pytest.approx(0.9, abs=1e-6)

    def test_overload_allowed(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 30.0})
        solution = solve_min_mlu(diamond_network, demands, allow_overload=True)
        assert solution.objective == pytest.approx(1.5, abs=1e-6)

    def test_overload_forbidden_raises(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 30.0})
        with pytest.raises(SolverError):
            solve_min_mlu(diamond_network, demands, allow_overload=False)

    def test_empty_demands(self, diamond_network):
        solution = solve_min_mlu(diamond_network, TrafficMatrix())
        assert solution.objective == 0.0

    def test_scaling_linearity(self, fig1, fig1_tm):
        base = solve_min_mlu(fig1, fig1_tm).objective
        doubled = solve_min_mlu(fig1, fig1_tm.scaled(0.5)).objective
        assert doubled == pytest.approx(base * 0.5, rel=1e-6)


class TestRouteSubproblem:
    def test_matches_shortest_path_cost(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 8.0})
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 5.0, (3, 4): 5.0}
        flow = solve_route_subproblem(diamond_network, demands, weights, destination=4)
        cost = float(np.dot(flow, diamond_network.weight_vector(weights)))
        assert cost == pytest.approx(16.0)

    def test_unknown_destination_gives_zero_flow(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 8.0})
        flow = solve_route_subproblem(diamond_network, demands, np.ones(4), destination=2)
        assert np.allclose(flow, 0.0)
