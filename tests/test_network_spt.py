"""Unit tests for shortest-path machinery (Dijkstra, ECMP DAGs, tolerance)."""

import numpy as np
import pytest

from repro.metrics.paths import equal_cost_path_counts
from repro.network.graph import NetworkError
from repro.network.spt import (
    UnreachableError,
    all_shortest_path_dags,
    as_weight_vector,
    distances_to,
    shortest_path_dag,
)


class TestWeightConversion:
    def test_mapping_accepted(self, diamond_network):
        vector = as_weight_vector(diamond_network, {(1, 2): 2.0})
        assert vector[diamond_network.link_index(1, 2)] == 2.0

    def test_vector_accepted(self, diamond_network):
        vector = as_weight_vector(diamond_network, np.ones(4))
        assert np.allclose(vector, 1.0)

    def test_bad_length_rejected(self, diamond_network):
        with pytest.raises(NetworkError):
            as_weight_vector(diamond_network, [1.0, 2.0])

    def test_negative_weights_rejected(self, diamond_network):
        with pytest.raises(NetworkError):
            distances_to(diamond_network, 4, -np.ones(4))

    def test_nan_weights_rejected(self, diamond_network):
        weights = np.ones(4)
        weights[0] = np.nan
        with pytest.raises(NetworkError):
            distances_to(diamond_network, 4, weights)


class TestDistances:
    def test_distances_on_line(self, line_network):
        dist = distances_to(line_network, 4, np.ones(3))
        assert dist == {4: 0.0, 3: 1.0, 2: 2.0, 1: 3.0}

    def test_unreachable_nodes_absent(self, line_network):
        # Line is directed 1->2->3->4, so node 1 is unreachable from 4's
        # perspective looking forward -- i.e. distances *to* node 1.
        dist = distances_to(line_network, 1, np.ones(3))
        assert dist == {1: 0.0}

    def test_weighted_distances(self, diamond_network):
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 5.0, (3, 4): 5.0}
        dist = distances_to(diamond_network, 4, weights)
        assert dist[1] == pytest.approx(2.0)


class TestDag:
    def test_diamond_has_two_equal_paths(self, diamond_network):
        dag = shortest_path_dag(diamond_network, 4, np.ones(4))
        assert set(dag.next_hops_of(1)) == {2, 3}
        assert equal_cost_path_counts(diamond_network, np.ones(4), destinations=[4])[(1, 4)] == 2
        paths = dag.paths_from(1)
        assert sorted(paths) == [[1, 2, 4], [1, 3, 4]]

    def test_unequal_weights_single_path(self, diamond_network):
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 2.0, (3, 4): 2.0}
        dag = shortest_path_dag(diamond_network, 4, weights)
        assert dag.next_hops_of(1) == [2]
        assert equal_cost_path_counts(diamond_network, weights, destinations=[4])[(1, 4)] == 1

    def test_tolerance_merges_near_equal_paths(self, diamond_network):
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 1.1, (3, 4): 1.1}
        strict = shortest_path_dag(diamond_network, 4, weights, tolerance=1e-9)
        loose = shortest_path_dag(diamond_network, 4, weights, tolerance=0.3)
        assert len(strict.next_hops_of(1)) == 1
        assert len(loose.next_hops_of(1)) == 2

    def test_dag_edges_and_reachability(self, diamond_network):
        dag = shortest_path_dag(diamond_network, 4, np.ones(4))
        assert set(dag.edges()) == {(1, 2), (1, 3), (2, 4), (3, 4)}
        assert dag.reachable(1)
        assert dag.distance(1) == pytest.approx(2.0)

    def test_distance_of_unreachable_raises(self, line_network):
        dag = shortest_path_dag(line_network, 1, np.ones(3))
        with pytest.raises(UnreachableError):
            dag.distance(4)

    def test_paths_from_unreachable_raises(self, line_network):
        dag = shortest_path_dag(line_network, 1, np.ones(3))
        with pytest.raises(UnreachableError):
            dag.paths_from(4)

    def test_paths_limit(self, diamond_network):
        dag = shortest_path_dag(diamond_network, 4, np.ones(4))
        assert len(dag.paths_from(1, limit=1)) == 1

    def test_all_shortest_path_dags(self, triangle_network):
        dags = all_shortest_path_dags(triangle_network, [1, 2, 3], np.ones(6))
        assert set(dags) == {1, 2, 3}
        for destination, dag in dags.items():
            assert dag.destination == destination

    def test_dag_is_acyclic(self, fig4):
        weights = np.ones(fig4.num_links)
        for destination in fig4.nodes:
            dag = shortest_path_dag(fig4, destination, weights)
            # Following next hops must strictly decrease distance: no cycles.
            for node, hops in dag.next_hops.items():
                for hop in hops:
                    assert dag.distances[hop] <= dag.distances[node]


class TestPaths:
    def test_zero_weight_links_allowed(self, fig1):
        # Table I's beta=0 column assigns weight 0 to link (2, 3).
        weights = {(1, 3): 2.0, (3, 4): 1.0, (1, 2): 1.0, (2, 3): 0.0}
        dist = distances_to(fig1, 3, weights)
        assert dist[1] == pytest.approx(1.0)
        assert dist[2] == pytest.approx(0.0)
