"""Unit tests for flow assignments (traffic distributions)."""

import numpy as np
import pytest

from repro.network.demands import TrafficMatrix
from repro.network.flows import FlowAssignment, FlowError
from repro.topology import fig4_demands, fig4_network


class TestConstruction:
    def test_zeros(self, diamond_network):
        flows = FlowAssignment.zeros(diamond_network, destinations=[4])
        assert np.allclose(flows.aggregate(), 0.0)
        assert flows.destinations == [4]

    def test_add_flow(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_flow(4, 1, 2, 3.0)
        assert flows.flow_on(1, 2) == pytest.approx(3.0)
        assert flows.flow_on(1, 2, destination=4) == pytest.approx(3.0)
        assert flows.flow_on(1, 2, destination=99) == 0.0

    def test_negative_flow_rejected(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        with pytest.raises(FlowError):
            flows.add_flow(4, 1, 2, -1.0)

    def test_add_path_flow(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 2.0)
        assert flows.flow_on(1, 2) == pytest.approx(2.0)
        assert flows.flow_on(2, 4) == pytest.approx(2.0)

    def test_destinations_are_rows_of_loads(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_flow(4, 1, 2, 3.0)
        flows.add_flow(2, 1, 2, 1.0)
        assert flows.destinations == [4, 2]
        assert flows.loads.shape == (2, diamond_network.num_links)
        np.testing.assert_array_equal(flows.aggregate(), flows.loads.sum(axis=0))
        assert flows.flow_on(1, 2, destination=2) == pytest.approx(1.0)

    def test_rows_gather_fills_absent_destinations_with_zeros(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_flow(4, 1, 2, 3.0)
        gathered = flows.rows([3, 4])
        np.testing.assert_array_equal(gathered[0], 0.0)
        np.testing.assert_array_equal(gathered[1], flows.loads[0])
        gathered[1] = 7.0  # a new array, not a view
        assert flows.flow_on(1, 2) == pytest.approx(3.0)

    def test_per_destination_is_read_only(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_flow(4, 1, 2, 3.0)
        assert list(flows.per_destination) == [4]
        np.testing.assert_array_equal(flows.per_destination[4], flows.loads[0])
        with pytest.raises(TypeError):
            flows.per_destination[2] = np.zeros(diamond_network.num_links)

    def test_loads_shape_must_match(self, diamond_network):
        with pytest.raises(FlowError, match="shape"):
            FlowAssignment(diamond_network, [4], np.zeros((2, diamond_network.num_links)))
        with pytest.raises(FlowError, match="distinct"):
            FlowAssignment(diamond_network, [4, 4])

    def test_copy_is_deep(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_flow(4, 1, 2, 1.0)
        clone = flows.copy()
        clone.add_flow(4, 1, 2, 1.0)
        assert flows.flow_on(1, 2) == pytest.approx(1.0)
        assert clone.flow_on(1, 2) == pytest.approx(2.0)


class TestDerivedQuantities:
    @pytest.fixture
    def even_split(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 4.0)
        flows.add_path_flow(4, [1, 3, 4], 4.0)
        return flows

    def test_aggregate_and_spare(self, even_split, diamond_network):
        assert np.allclose(even_split.aggregate(), 4.0)
        assert np.allclose(even_split.spare_capacity(), 6.0)

    def test_utilization(self, even_split):
        assert np.allclose(even_split.utilization(), 0.4)
        assert even_split.max_link_utilization() == pytest.approx(0.4)

    def test_sorted_utilizations(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 6.0)
        flows.add_path_flow(4, [1, 3, 4], 2.0)
        descending = flows.sorted_utilizations()
        assert list(descending) == sorted(descending, reverse=True)
        ascending = flows.sorted_utilizations(descending=False)
        assert list(ascending) == sorted(ascending)

    def test_used_links(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 1.0)
        assert set(flows.used_links()) == {(1, 2), (2, 4)}

    def test_aggregate_dict_and_utilization_dict(self, even_split):
        assert even_split.aggregate_dict()[(1, 2)] == pytest.approx(4.0)
        assert even_split.utilization_dict()[(3, 4)] == pytest.approx(0.4)

    def test_scale(self, even_split):
        halved = even_split.scale(0.5)
        assert np.allclose(halved.aggregate(), 2.0)
        with pytest.raises(FlowError):
            even_split.scale(-1.0)

    def test_addition(self, diamond_network):
        a = FlowAssignment(network=diamond_network)
        a.add_path_flow(4, [1, 2, 4], 1.0)
        b = FlowAssignment(network=diamond_network)
        b.add_path_flow(4, [1, 3, 4], 2.0)
        total = a + b
        assert total.flow_on(1, 2) == pytest.approx(1.0)
        assert total.flow_on(1, 3) == pytest.approx(2.0)


class TestValidation:
    def test_capacity_feasibility(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 11.0)
        assert not flows.is_capacity_feasible()
        demands = TrafficMatrix({(1, 4): 11.0})
        with pytest.raises(FlowError, match="capacity"):
            flows.validate(demands)

    def test_conservation_violation_zero_for_valid_routing(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 4.0)
        flows.add_path_flow(4, [1, 3, 4], 4.0)
        demands = TrafficMatrix({(1, 4): 8.0})
        assert flows.conservation_violation(demands) == pytest.approx(0.0)
        flows.validate(demands)  # should not raise

    def test_conservation_violation_detects_imbalance(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.add_flow(4, 1, 2, 4.0)  # flow vanishes at node 2
        demands = TrafficMatrix({(1, 4): 4.0})
        assert flows.conservation_violation(demands) > 1.0
        with pytest.raises(FlowError, match="conservation"):
            flows.validate(demands)

    def test_missing_commodities_violate_conservation(self, diamond_network):
        demands = TrafficMatrix({(1, 4): 8.0, (1, 2): 2.0})
        with pytest.raises(FlowError, match="conservation"):
            FlowAssignment(network=diamond_network).validate(demands)
        flows = FlowAssignment(network=diamond_network)
        flows.add_path_flow(4, [1, 2, 4], 4.0)
        flows.add_path_flow(4, [1, 3, 4], 4.0)
        flows.add_path_flow(2, [1, 2], 2.0)
        flows.validate(demands)
        dropped = FlowAssignment(diamond_network, [4], flows.rows([4]))
        assert dropped.conservation_violation(demands) == pytest.approx(2.0)
        with pytest.raises(FlowError, match="conservation"):
            dropped.validate(demands)

    def test_empty_assignment_fails_fig4(self):
        with pytest.raises(FlowError, match="conservation"):
            FlowAssignment(network=fig4_network()).validate(fig4_demands())

    def test_negative_vector_rejected(self, diamond_network):
        flows = FlowAssignment(network=diamond_network)
        flows.ensure_destination(4)[:] = -1.0
        with pytest.raises(FlowError, match="negative"):
            flows.validate(TrafficMatrix())

    def test_add_flows_different_networks_rejected(self, diamond_network, triangle_network):
        a = FlowAssignment(network=diamond_network)
        b = FlowAssignment(network=triangle_network)
        with pytest.raises(FlowError):
            _ = a + b
