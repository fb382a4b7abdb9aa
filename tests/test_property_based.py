"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
import routing_oracle as oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.objectives import LoadBalanceObjective
from repro.core.traffic_distribution import traffic_distribution
from repro.network.demands import TrafficMatrix
from repro.network.graph import Network
from repro.network.spt import all_shortest_path_dags, distances_to, shortest_path_dag
from repro.routing import CompiledDag
from repro.solvers.assignment import all_or_nothing_assignment, ecmp_assignment

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
NODE_COUNT = 6


@st.composite
def connected_networks(draw):
    """Random strongly-connected networks on NODE_COUNT nodes.

    A bidirectional ring guarantees strong connectivity; extra random
    directed chords add multipath structure.
    """
    net = Network(name="hypothesis")
    nodes = list(range(NODE_COUNT))
    capacities = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=20.0),
            min_size=NODE_COUNT,
            max_size=NODE_COUNT,
        )
    )
    for i in nodes:
        j = (i + 1) % NODE_COUNT
        net.add_duplex_link(i, j, capacities[i])
    num_chords = draw(st.integers(min_value=0, max_value=8))
    for _ in range(num_chords):
        u = draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        v = draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        if u != v and not net.has_link(u, v):
            net.add_link(u, v, draw(st.floats(min_value=1.0, max_value=20.0)))
    return net


@st.composite
def weight_vectors(draw, network):
    return np.array(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=10.0),
                min_size=network.num_links,
                max_size=network.num_links,
            )
        )
    )


@st.composite
def demand_matrices(draw, network):
    tm = TrafficMatrix()
    num_demands = draw(st.integers(min_value=1, max_value=6))
    for _ in range(num_demands):
        source = draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        target = draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        if source != target:
            tm.add(source, target, draw(st.floats(min_value=0.1, max_value=2.0)))
    if not len(tm):
        tm.add(0, 1, 1.0)
    return tm


common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Shortest-path invariants
# ----------------------------------------------------------------------
class TestShortestPathProperties:
    @common_settings
    @given(data=st.data())
    def test_triangle_inequality_of_distances(self, data):
        network = data.draw(connected_networks())
        weights = data.draw(weight_vectors(network))
        destination = data.draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        distances = distances_to(network, destination, weights)
        for link in network.links:
            if link.source in distances and link.target in distances:
                assert (
                    distances[link.source]
                    <= weights[link.index] + distances[link.target] + 1e-9
                )

    @common_settings
    @given(data=st.data())
    def test_dag_next_hops_lie_on_shortest_paths(self, data):
        network = data.draw(connected_networks())
        weights = data.draw(weight_vectors(network))
        destination = data.draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        dag = shortest_path_dag(network, destination, weights)
        for node, hops in dag.next_hops.items():
            for hop in hops:
                index = network.link_index(node, hop)
                assert (
                    weights[index] + dag.distances[hop]
                    <= dag.distances[node] + dag.tolerance + 1e-9
                )

    @common_settings
    @given(data=st.data())
    def test_topological_order_is_consistent(self, data):
        network = data.draw(connected_networks())
        weights = data.draw(weight_vectors(network))
        destination = data.draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        dag = shortest_path_dag(network, destination, weights)
        order = oracle.topological_order(dag)
        position = {node: i for i, node in enumerate(order)}
        assert set(order) == set(dag.distances)
        for node, hops in dag.next_hops.items():
            for hop in hops:
                assert position[node] < position[hop]


# ----------------------------------------------------------------------
# Routing invariants
# ----------------------------------------------------------------------
class TestRoutingProperties:
    @common_settings
    @given(data=st.data())
    def test_ecmp_conserves_flow(self, data):
        network = data.draw(connected_networks())
        weights = data.draw(weight_vectors(network))
        demands = data.draw(demand_matrices(network))
        flows = ecmp_assignment(network, demands, weights)
        assert flows.conservation_violation(demands) < 1e-8
        assert np.all(flows.aggregate() >= -1e-12)

    @common_settings
    @given(data=st.data())
    def test_aon_total_cost_never_beats_shortest_distances(self, data):
        network = data.draw(connected_networks())
        weights = data.draw(weight_vectors(network))
        demands = data.draw(demand_matrices(network))
        flows = all_or_nothing_assignment(network, demands, weights)
        total_cost = float(np.dot(flows.aggregate(), weights))
        lower_bound = 0.0
        for (source, target), volume in demands.items():
            lower_bound += distances_to(network, target, weights)[source] * volume
        assert total_cost == pytest.approx(lower_bound, rel=1e-6, abs=1e-6)

    @common_settings
    @given(data=st.data())
    def test_exponential_split_ratios_form_distribution(self, data):
        network = data.draw(connected_networks())
        weights = data.draw(weight_vectors(network))
        second = data.draw(weight_vectors(network))
        destination = data.draw(st.integers(min_value=0, max_value=NODE_COUNT - 1))
        dags = all_shortest_path_dags(network, [destination], weights)
        member = np.isfinite(dags.distances)
        stack = CompiledDag.from_mask(network, dags.destinations, member, dags.mask)
        ratios = stack.exponential_ratios(second)
        assert np.all(ratios >= -1e-12)
        totals = np.bincount(stack.rows, weights=ratios, minlength=stack.num_nodes)
        assert totals[stack.out_degree() > 0] == pytest.approx(1.0)

    @common_settings
    @given(data=st.data())
    def test_traffic_distribution_conserves_flow(self, data):
        network = data.draw(connected_networks())
        weights = data.draw(weight_vectors(network))
        second = data.draw(weight_vectors(network))
        demands = data.draw(demand_matrices(network))
        dags = all_shortest_path_dags(network, demands.destinations(), weights)
        flows = traffic_distribution(network, demands, dags, second)
        assert flows.conservation_violation(demands) < 1e-8


# ----------------------------------------------------------------------
# Objective invariants
# ----------------------------------------------------------------------
class TestObjectiveProperties:
    @common_settings
    @given(
        # beta below ~0.05 makes the inversion numerically ill-conditioned
        # (exponent 1/beta explodes), so the property is stated away from 0.
        beta=st.floats(min_value=0.05, max_value=5.0),
        q=st.floats(min_value=0.1, max_value=10.0),
        spare=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10),
    )
    def test_derivative_inverse_roundtrip(self, beta, q, spare):
        objective = LoadBalanceObjective(beta=beta, q=q)
        spare_arr = np.array(spare)
        weights = objective.derivative(spare_arr)
        recovered = objective.derivative_inverse(weights)
        assert np.allclose(recovered, spare_arr, rtol=1e-4)

    @common_settings
    @given(
        beta=st.floats(min_value=0.0, max_value=5.0),
        a=st.floats(min_value=0.01, max_value=50.0),
        b=st.floats(min_value=0.01, max_value=50.0),
    )
    def test_utility_is_monotone_increasing(self, beta, a, b):
        objective = LoadBalanceObjective(beta=beta)
        lo, hi = min(a, b), max(a, b)
        values = objective.utility(np.array([lo, hi]))
        assert values[1] >= values[0] - 1e-12

    @common_settings
    @given(
        beta=st.floats(min_value=0.0, max_value=5.0),
        spare=st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=8),
    )
    def test_weights_positive(self, beta, spare):
        objective = LoadBalanceObjective(beta=beta)
        weights = objective.derivative(np.array(spare))
        assert np.all(weights > 0)


# ----------------------------------------------------------------------
# Traffic matrix invariants
# ----------------------------------------------------------------------
class TestTrafficMatrixProperties:
    @common_settings
    @given(
        volumes=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20),
        factor=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_scaling_scales_total_volume(self, volumes, factor):
        tm = TrafficMatrix()
        for i, volume in enumerate(volumes):
            tm.add(i, i + 1, volume) if volume > 0 else None
        scaled = tm.scaled(factor)
        assert scaled.total_volume() == pytest.approx(tm.total_volume() * factor, rel=1e-9, abs=1e-12)

    @common_settings
    @given(data=st.data())
    def test_by_destination_partitions_volume(self, data):
        network = data.draw(connected_networks())
        demands = data.draw(demand_matrices(network))
        grouped = demands.by_destination()
        regrouped_total = sum(sum(v.values()) for v in grouped.values())
        assert regrouped_total == pytest.approx(demands.total_volume())
