"""Unit tests for traffic matrix generators and demand scaling."""

import numpy as np
import pytest

from repro.analysis.experiments import Instance
from repro.network.demands import TrafficMatrix
from repro.solvers.mcf import solve_min_mlu
from repro.topology.backbones import abilene_network, cernet2_network
from repro.topology.paper_examples import fig1_network
from repro.traffic.fortz_thorup_tm import (
    ABILENE_COORDINATES,
    abilene_traffic_matrix,
    euclidean_distances,
    fortz_thorup_traffic_matrix,
    hop_distances,
)
from repro.traffic.gravity import (
    bimodal_traffic_matrix,
    gravity_from_link_loads,
    gravity_traffic_matrix,
    node_capacity_weights,
    uniform_traffic_matrix,
)
from repro.traffic.netflow import cernet2_traffic_matrix, synthesize_netflow
from repro.traffic.scaling import scale_to_network_load


class TestGravity:
    def test_total_volume_matches(self, triangle_network):
        tm = gravity_traffic_matrix(triangle_network, total_volume=12.0)
        assert tm.total_volume() == pytest.approx(12.0)

    def test_no_self_demands(self, triangle_network):
        tm = gravity_traffic_matrix(triangle_network, total_volume=5.0)
        assert all(s != t for s, t in tm.pairs())

    def test_zero_volume_gives_empty_matrix(self, triangle_network):
        assert len(gravity_traffic_matrix(triangle_network, 0.0)) == 0

    def test_negative_volume_rejected(self, triangle_network):
        with pytest.raises(ValueError):
            gravity_traffic_matrix(triangle_network, -1.0)

    def test_weights_shape_demand(self, triangle_network):
        out_w = {1: 10.0, 2: 1.0, 3: 1.0}
        tm = gravity_traffic_matrix(triangle_network, 12.0, out_weights=out_w)
        assert tm.outgoing_volume(1) > tm.outgoing_volume(2)

    def test_node_capacity_weights(self, triangle_network):
        weights = node_capacity_weights(triangle_network)
        assert weights[1] == pytest.approx(20.0)

    def test_gravity_from_link_loads(self):
        net = cernet2_network()
        loads = {link.endpoints: 0.1 * link.capacity for link in net.links}
        tm = gravity_from_link_loads(net, loads)
        assert tm.total_volume() == pytest.approx(sum(loads.values()) / 2)
        tm.validate(net)

    def test_gravity_from_link_loads_validation(self, triangle_network):
        with pytest.raises(ValueError):
            gravity_from_link_loads(triangle_network, {(1, 99): 1.0})
        with pytest.raises(ValueError):
            gravity_from_link_loads(triangle_network, {(1, 2): -1.0})

    def test_uniform_matrix(self, triangle_network):
        tm = uniform_traffic_matrix(triangle_network, 2.0)
        assert len(tm) == 6
        assert tm.total_volume() == pytest.approx(12.0)
        with pytest.raises(ValueError):
            uniform_traffic_matrix(triangle_network, -1.0)

    def test_bimodal_matrix(self, triangle_network):
        tm = bimodal_traffic_matrix(triangle_network, 10.0, heavy_fraction=0.3, seed=1)
        assert tm.total_volume() == pytest.approx(10.0)
        volumes = sorted((v for _, v in tm.items()), reverse=True)
        assert volumes[0] > volumes[-1]

    def test_bimodal_validation(self, triangle_network):
        with pytest.raises(ValueError):
            bimodal_traffic_matrix(triangle_network, 1.0, heavy_fraction=1.5)
        with pytest.raises(ValueError):
            bimodal_traffic_matrix(triangle_network, 1.0, heavy_share=1.5)


class TestFortzThorupTm:
    def test_total_volume(self):
        net = abilene_network()
        tm = fortz_thorup_traffic_matrix(net, total_volume=7.0, seed=0)
        assert tm.total_volume() == pytest.approx(7.0)
        tm.validate(net)

    def test_deterministic_per_seed(self):
        net = abilene_network()
        a = fortz_thorup_traffic_matrix(net, 1.0, seed=3)
        b = fortz_thorup_traffic_matrix(net, 1.0, seed=3)
        c = fortz_thorup_traffic_matrix(net, 1.0, seed=4)
        assert a == b
        assert a != c

    def test_abilene_matrix_uses_coordinates(self):
        net = abilene_network()
        tm = abilene_traffic_matrix(net, total_volume=1.0, seed=1)
        assert tm.total_volume() == pytest.approx(1.0)
        assert set(ABILENE_COORDINATES) == set(net.nodes)

    def test_hop_distances_symmetric_topology(self):
        net = fig1_network()
        dist = hop_distances(net)
        assert dist[(1, 3)] == 1.0
        assert dist[(1, 4)] == 2.0
        assert (3, 1) not in dist  # unreachable in the directed Fig. 1 graph

    def test_euclidean_distances(self):
        coords = {1: (0.0, 0.0), 2: (3.0, 4.0)}
        dist = euclidean_distances(coords)
        assert dist[(1, 2)] == pytest.approx(5.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            fortz_thorup_traffic_matrix(abilene_network(), -1.0)


class TestNetflow:
    def test_sample_dimensions(self):
        net = cernet2_network()
        sample = synthesize_netflow(net, mean_utilization=0.2, hours=48, seed=1)
        assert len(sample.series) == net.num_links
        assert all(len(v) == 48 for v in sample.series.values())

    def test_mean_utilization_respected(self):
        net = cernet2_network()
        sample = synthesize_netflow(net, mean_utilization=0.2, seed=1)
        achieved = sum(sample.average_loads().values()) / net.total_capacity()
        assert achieved == pytest.approx(0.2, abs=0.03)

    def test_loads_within_capacity(self):
        net = cernet2_network()
        sample = synthesize_netflow(net, mean_utilization=0.3, seed=2)
        for (u, v), series in sample.series.items():
            assert np.all(series <= net.capacity_of(u, v) + 1e-9)

    def test_busiest_links_and_peaks(self):
        net = cernet2_network()
        sample = synthesize_netflow(net, seed=3)
        top = sample.busiest_links(3)
        assert len(top) == 3
        peaks = sample.peak_loads()
        averages = sample.average_loads()
        assert all(peaks[edge] >= averages[edge] for edge in top)

    def test_invalid_utilization_rejected(self):
        with pytest.raises(ValueError):
            synthesize_netflow(cernet2_network(), mean_utilization=1.5)

    def test_cernet2_matrix_routable(self):
        net = cernet2_network()
        tm = cernet2_traffic_matrix(net, mean_utilization=0.2, seed=2010)
        tm.validate(net)
        assert tm.total_volume() > 0

    def test_cernet2_matrix_deterministic(self):
        net = cernet2_network()
        assert cernet2_traffic_matrix(net, seed=1) == cernet2_traffic_matrix(net, seed=1)


class TestScaling:
    def test_scale_to_network_load(self, fig1, fig1_tm):
        scaled = scale_to_network_load(fig1, fig1_tm, 0.1)
        assert scaled.network_load(fig1) == pytest.approx(0.1)

    def test_scale_to_network_load_validation(self, fig1, fig1_tm):
        with pytest.raises(ValueError):
            scale_to_network_load(fig1, fig1_tm, -0.1)
        with pytest.raises(ValueError):
            scale_to_network_load(fig1, TrafficMatrix(), 0.1)

    def test_saturation_load_reaches_saturation_mlu(self, fig1, fig1_tm):
        # The paper's procedure: scale the demands uniformly until the
        # optimal (min-max) MLU almost reaches 100%.
        instance = Instance(fig1, fig1_tm, "Example")
        saturated = instance.at_load(instance.saturation_load())
        assert solve_min_mlu(fig1, saturated, allow_overload=True).objective == pytest.approx(
            Instance.SATURATION_MLU, rel=1e-9
        )

    def test_fig10_loads_are_fractions_of_saturation(self, fig1, fig1_tm):
        instance = Instance(fig1, fig1_tm, "Example")
        loads = instance.fig10_loads()
        assert loads == pytest.approx(
            [fraction * instance.saturation_load() for fraction in instance.load_fractions],
            abs=1e-6,
        )
        for load in loads:
            assert instance.at_load(load).network_load(fig1) == pytest.approx(load)
