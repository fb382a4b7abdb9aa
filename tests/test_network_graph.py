"""Unit tests for the directed capacitated network model."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.network.graph import Link, Network, NetworkError, NetworkSummary

#: ``import repro``, then a cold scenario cell: apply a failure, route OSPF.
COLD_CELL = """
import sys
import repro
from repro.scenarios import single_link_failures
from repro.topology import abilene_network
from repro.traffic.gravity import gravity_traffic_matrix

net = abilene_network()
tm = gravity_traffic_matrix(net, total_volume=1.0)
instance = single_link_failures(net)[0].apply(net, tm)
repro.OSPF().route(instance.network, instance.demands)
repro.OSPF().route(net, tm)
print("networkx" in sys.modules)
"""


class TestConstruction:
    def test_add_link_registers_nodes(self):
        net = Network()
        net.add_link("a", "b", 5.0)
        assert net.has_node("a") and net.has_node("b")
        assert net.num_nodes == 2
        assert net.num_links == 1

    def test_add_node_is_idempotent(self):
        net = Network()
        net.add_node(1)
        net.add_node(1)
        assert net.num_nodes == 1

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_link(1, 2, 1.0)
        with pytest.raises(NetworkError):
            net.add_link(1, 2, 2.0)

    def test_self_loop_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link(1, 1, 1.0)

    def test_non_positive_capacity_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link(1, 2, 0.0)
        with pytest.raises(NetworkError):
            net.add_link(1, 2, -3.0)

    def test_duplex_link_adds_both_directions(self):
        net = Network()
        forward, backward = net.add_duplex_link(1, 2, 4.0)
        assert forward.endpoints == (1, 2)
        assert backward.endpoints == (2, 1)
        assert net.num_links == 2

    def test_from_link_list(self):
        net = Network.from_link_list([(1, 2, 3.0), (2, 3, 4.0)], name="x")
        assert net.name == "x"
        assert net.num_links == 2

    def test_from_link_list_duplex(self):
        net = Network.from_link_list([(1, 2, 3.0)], duplex=True)
        assert net.num_links == 2
        assert net.has_link(2, 1)

    def test_link_index_is_insertion_order(self):
        net = Network()
        first = net.add_link(1, 2, 1.0)
        second = net.add_link(2, 3, 1.0)
        assert first.index == 0
        assert second.index == 1
        assert net.link_by_index(1).endpoints == (2, 3)


class TestQueries:
    def test_out_and_in_links(self, triangle_network):
        out_targets = {link.target for link in triangle_network.out_links(1)}
        assert out_targets == {2, 3}
        in_sources = {link.source for link in triangle_network.in_links(1)}
        assert in_sources == {2, 3}

    def test_neighbors_and_predecessors(self, diamond_network):
        assert set(diamond_network.neighbors(1)) == {2, 3}
        assert set(diamond_network.predecessors(4)) == {2, 3}

    def test_unknown_node_raises(self):
        net = Network()
        net.add_link(1, 2, 1.0)
        with pytest.raises(NetworkError):
            net.node_index(99)

    def test_unknown_link_raises(self, triangle_network):
        with pytest.raises(NetworkError):
            triangle_network.link(1, 99)
        with pytest.raises(NetworkError):
            triangle_network.link_index(99, 1)

    def test_contains_and_len(self, diamond_network):
        assert (1, 2) in diamond_network
        assert (2, 1) not in diamond_network
        assert len(diamond_network) == 4

    def test_capacity_vectors(self, diamond_network):
        assert np.allclose(diamond_network.capacities, 10.0)
        assert diamond_network.total_capacity() == pytest.approx(40.0)

    def test_capacity_of(self, diamond_network):
        assert diamond_network.capacity_of(1, 2) == pytest.approx(10.0)


class TestWeightConversions:
    def test_weight_vector_roundtrip(self, diamond_network):
        mapping = {(1, 2): 1.0, (2, 4): 2.0, (1, 3): 3.0, (3, 4): 4.0}
        vector = diamond_network.weight_vector(mapping)
        assert diamond_network.weight_dict(vector) == mapping

    def test_weight_dict_rejects_bad_shape(self, diamond_network):
        with pytest.raises(NetworkError):
            diamond_network.weight_dict([1.0, 2.0])

    def test_weight_vector_missing_edges_default_zero(self, diamond_network):
        vector = diamond_network.weight_vector({(1, 2): 5.0})
        assert vector[diamond_network.link_index(1, 2)] == 5.0
        assert vector.sum() == 5.0


class TestStructure:
    def test_triangle_is_strongly_connected(self, triangle_network):
        assert triangle_network.is_connected()
        assert triangle_network.is_strongly_connected()
        assert triangle_network.is_symmetric()

    def test_diamond_not_strongly_connected(self, diamond_network):
        assert diamond_network.is_connected()
        assert not diamond_network.is_strongly_connected()
        assert not diamond_network.is_symmetric()

    def test_to_networkx_and_back(self, triangle_network):
        graph = triangle_network.to_networkx()
        rebuilt = Network.from_networkx(graph)
        assert rebuilt.num_nodes == triangle_network.num_nodes
        assert set(rebuilt.edges) == set(triangle_network.edges)

    def test_networkx_stays_off_the_runtime_path(self):
        """networkx is optional: only the conversions below import it."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, "-c", COLD_CELL], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "False"

    def test_from_networkx_requires_capacity(self):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_edge(1, 2)
        with pytest.raises(NetworkError):
            Network.from_networkx(graph)

    def test_copy_is_independent(self, triangle_network):
        clone = triangle_network.copy()
        clone.add_link(1, 99, 1.0)
        assert not triangle_network.has_node(99)
        assert clone.num_links == triangle_network.num_links + 1

    def test_scaled_capacities(self, triangle_network):
        scaled = triangle_network.scaled(2.0)
        assert np.allclose(scaled.capacities, 2 * triangle_network.capacities)
        with pytest.raises(NetworkError):
            triangle_network.scaled(0.0)


class TestSummary:
    def test_summary_of(self, triangle_network):
        summary = NetworkSummary.of(triangle_network, kind="test", extra_field=1)
        assert summary.num_nodes == 3
        assert summary.num_links == 6
        assert summary.total_capacity == pytest.approx(60.0)
        assert summary.extra["extra_field"] == 1

    def test_link_is_frozen(self):
        link = Link("a", "b", 1.0)
        with pytest.raises(AttributeError):
            link.capacity = 2.0
