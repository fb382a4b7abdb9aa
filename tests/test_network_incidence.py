"""Unit tests for the node-arc incidence machinery."""

import numpy as np
import pytest

from repro.network.demands import TrafficMatrix
from repro.network.flows import FlowAssignment
from repro.network.incidence import incidence_matrix


class TestIncidenceMatrix:
    def test_shape_and_signs(self, diamond_network):
        matrix = incidence_matrix(diamond_network)
        assert matrix.shape == (4, 4)
        column = matrix[:, diamond_network.link_index(1, 2)]
        assert column[diamond_network.node_index(1)] == 1.0
        assert column[diamond_network.node_index(2)] == -1.0
        assert np.count_nonzero(column) == 2

    def test_columns_sum_to_zero(self, triangle_network):
        matrix = incidence_matrix(triangle_network)
        assert np.allclose(matrix.sum(axis=0), 0.0)


class TestConservationResidual:
    def test_zero_for_valid_flow(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 8.0})
        flow = np.zeros(4)
        flow[diamond_network.link_index(1, 2)] = 4.0
        flow[diamond_network.link_index(2, 4)] = 4.0
        flow[diamond_network.link_index(1, 3)] = 4.0
        flow[diamond_network.link_index(3, 4)] = 4.0
        flows = FlowAssignment(diamond_network, [4], flow[None, :])
        assert flows.conservation_violation(demands) == pytest.approx(0.0)

    def test_positive_for_broken_flow(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 8.0})
        flow = np.zeros(4)
        flow[diamond_network.link_index(1, 2)] = 8.0  # never reaches 4
        flows = FlowAssignment(diamond_network, [4], flow[None, :])
        assert flows.conservation_violation(demands) == pytest.approx(8.0)
