"""Golden equivalence of the dynamic SPT engine against cold Dijkstra.

:class:`~repro.online.DynamicSPT` must maintain, under arbitrary event
sequences, exactly the state a cold
:func:`~repro.network.spt.shortest_path_dag` build produces on the pruned
network: identical distances (bit-for-bit, not just close), identical
equal-cost next-hop sets, and therefore identical routed link loads.  These
properties are checked on Hypothesis-generated topologies and event
sequences — weight changes, failures, recoveries, disconnections — for both
the incremental regime (strictly positive weights) and the fallback regime
(zero-weight plateaus), plus hand-built corners.
"""

from __future__ import annotations


import numpy as np
import pytest
import routing_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import Network, NetworkError
from repro.network.spt import shortest_path_dag
from repro.online import DynamicSPT
from repro.network.demands import TrafficMatrix

TOLERANCE = 1e-9

#: Strictly positive pool (incremental regime); duplicates create ECMP ties.
POSITIVE_POOL = (0.5, 1.0, 1.0, 2.0, 3.0)
#: Pool with zeros: plateau states that force the full-rebuild fallback.
PLATEAU_POOL = (0.0, 0.0, 1.0, 2.0)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def topology(draw, pool=POSITIVE_POOL) -> tuple[Network, np.ndarray]:
    """A small random directed network seeded with a ring for reachability."""
    n = draw(st.integers(min_value=3, max_value=6))
    edges: dict[tuple[int, int], None] = {}
    for i in range(n):
        edges[(i, (i + 1) % n)] = None
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    for edge in extra:
        edges[edge] = None
    net = Network(name="hypothesis")
    for node in range(n):
        net.add_node(node)
    for u, v in edges:
        net.add_link(u, v, capacity=10.0)
    weights = np.array(
        draw(
            st.lists(
                st.sampled_from(pool),
                min_size=net.num_links,
                max_size=net.num_links,
            )
        )
    )
    return net, weights


@st.composite
def event_sequence(draw, net: Network, pool=POSITIVE_POOL) -> list[tuple[str, int, float]]:
    """``(op, link_index, value)`` triples; ops are fail/recover/weight."""
    length = draw(st.integers(min_value=1, max_value=6))
    ops = []
    for _ in range(length):
        op = draw(st.sampled_from(["fail", "recover", "weight"]))
        index = draw(st.integers(0, net.num_links - 1))
        value = draw(st.sampled_from(pool)) if op == "weight" else 0.0
        ops.append((op, index, value))
    return ops


def cold_state(net: Network, weights: np.ndarray, failed: set, destination):
    """Cold DAG on the pruned network (same link insertion order)."""
    pruned = Network(name="pruned")
    for node in net.nodes:
        pruned.add_node(node)
    weight_map = {}
    for link in net.links:
        if link.endpoints in failed:
            continue
        pruned.add_link(link.source, link.target, link.capacity, link.delay)
        weight_map[link.endpoints] = float(weights[link.index])
    return pruned, shortest_path_dag(pruned, destination, weight_map)


def replay(spt: DynamicSPT, net: Network, weights: np.ndarray, ops, failed: set) -> None:
    """Apply one op to the engine and mirror it in (weights, failed)."""
    op, index, value = ops
    link = net.links[index]
    if op == "fail":
        spt.fail_link(link.source, link.target)
        failed.add(link.endpoints)
    elif op == "recover":
        spt.recover_link(link.source, link.target)
        failed.discard(link.endpoints)
    else:
        spt.set_weight(link.source, link.target, value)
        weights[index] = value


def assert_matches_cold(spt: DynamicSPT, net: Network, weights, failed) -> None:
    for destination in net.nodes:
        _, cold = cold_state(net, weights, failed, destination)
        live = spt.dag(destination)
        assert live.distances == cold.distances
        assert live.next_hops == cold.next_hops


# ----------------------------------------------------------------------
# property-based equivalence
# ----------------------------------------------------------------------
class TestEventSequenceEquivalence:
    @given(data=st.data())
    @settings(max_examples=40)
    def test_positive_weights_match_cold_after_every_event(self, data):
        net, weights = data.draw(topology())
        spt = DynamicSPT(net, weights, destinations=net.nodes)
        failed: set = set()
        for ops in data.draw(event_sequence(net)):
            replay(spt, net, weights, ops, failed)
            assert_matches_cold(spt, net, weights, failed)

    @given(data=st.data())
    @settings(max_examples=25)
    def test_plateau_weights_fall_back_and_match_cold(self, data):
        """Zero-weight plateaus disable incremental updates, not correctness."""
        net, weights = data.draw(topology(pool=PLATEAU_POOL))
        spt = DynamicSPT(net, weights, destinations=net.nodes)
        failed: set = set()
        for ops in data.draw(event_sequence(net, pool=PLATEAU_POOL)):
            replay(spt, net, weights, ops, failed)
        assert_matches_cold(spt, net, weights, failed)

    @given(data=st.data())
    @settings(max_examples=25)
    def test_verified_mode_never_mismatches(self, data):
        """The incremental path agrees with its own shadow rebuild."""
        net, weights = data.draw(topology())
        spt = DynamicSPT(net, weights, destinations=net.nodes, verify=True)
        failed: set = set()
        for ops in data.draw(event_sequence(net)):
            replay(spt, net, weights, ops, failed)
        assert spt.stats.verify_mismatches == 0
        assert_matches_cold(spt, net, weights, failed)

    @given(data=st.data())
    @settings(max_examples=25)
    def test_ecmp_loads_match_python_oracle_after_events(self, data):
        """Fused single-pass routing equals the dict-loop oracle to 1e-9."""
        net, weights = data.draw(topology())
        spt = DynamicSPT(net, weights, destinations=net.nodes)
        failed: set = set()
        for ops in data.draw(event_sequence(net)):
            replay(spt, net, weights, ops, failed)

        tm = TrafficMatrix()
        for source in net.nodes:
            for target in net.nodes:
                if source != target:
                    tm.add(source, target, 1.0 + 0.25 * net.node_index(source))

        total = np.zeros(net.num_links)
        dropped_total = 0.0
        routable = TrafficMatrix()
        for destination in net.nodes:
            entering = tm.toward(destination)
            if not entering:
                continue
            loads, dropped = spt.ecmp_link_loads(destination, entering)
            total += loads
            dropped_total += sum(dropped.values())
            for source, volume in entering.items():
                if source not in dropped:
                    routable.add(source, destination, volume)

        pruned, _ = cold_state(net, weights, failed, net.nodes[0])
        weight_map = {
            link.endpoints: float(weights[net.link_index(*link.endpoints)])
            for link in pruned.links
        }
        oracle = routing_oracle.ecmp_assignment(pruned, routable, weight_map)
        mapped = np.zeros(net.num_links)
        aggregate = oracle.aggregate()
        for link in pruned.links:
            mapped[net.link_index(link.source, link.target)] = aggregate[link.index]
        np.testing.assert_allclose(total, mapped, atol=TOLERANCE, rtol=0)
        assert dropped_total == pytest.approx(tm.total_volume() - routable.total_volume())


# ----------------------------------------------------------------------
# corners and API behaviour
# ----------------------------------------------------------------------
class TestDynamicSptCorners:
    def make_diamond(self):
        net = Network(name="diamond")
        net.add_link(1, 2, 10.0)
        net.add_link(2, 4, 10.0)
        net.add_link(1, 3, 10.0)
        net.add_link(3, 4, 10.0)
        return net

    def test_fail_recover_roundtrip_restores_state(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        before = (spt.distances(4), {n: list(h) for n, h in spt.dag(4).next_hops.items()})
        assert spt.fail_link(1, 2) == {4}
        assert spt.dag(4).next_hops[1] == [3]
        assert spt.recover_link(1, 2) == {4}
        after = (spt.distances(4), {n: list(h) for n, h in spt.dag(4).next_hops.items()})
        assert before == after

    def test_disconnection_drops_nodes_from_state(self):
        net = Network(name="line")
        net.add_link(1, 2, 5.0)
        net.add_link(2, 3, 5.0)
        spt = DynamicSPT(net, [1.0, 1.0], destinations=[3])
        spt.fail_link(2, 3)
        assert spt.reachable(3, 3)
        assert not spt.reachable(1, 3) and not spt.reachable(2, 3)
        assert 1 not in spt.dag(3).next_hops
        spt.recover_link(2, 3)
        assert spt.reachable(1, 3)
        assert spt.distances(3)[1] == 2.0

    def test_weight_decrease_creates_ecmp_tie(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, [1.0, 1.0, 2.0, 1.0], destinations=[4])
        assert spt.dag(4).next_hops[1] == [2]
        changed = spt.set_weight(1, 3, 1.0)
        assert changed == {4}
        assert spt.dag(4).next_hops[1] == [2, 3]

    def test_weight_increase_not_tight_only_refreshes_ecmp(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        assert spt.dag(4).next_hops[1] == [2, 3]
        changed = spt.set_weight(1, 3, 3.0)
        assert changed == {4}
        assert spt.dag(4).next_hops[1] == [2]
        assert spt.distances(4)[1] == 2.0

    def test_fail_noop_for_already_failed_link(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        assert spt.fail_link(1, 2) == {4}
        assert spt.fail_link(1, 2) == set()
        assert spt.failed_links() == [(1, 2)]
        assert not spt.is_active(1, 2)

    def test_set_weights_rebuilds_everything(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[2, 4])
        rebuilds = spt.stats.full_rebuilds
        assert spt.set_weights([2.0, 1.0, 1.0, 2.0]) == {2, 4}
        assert spt.stats.full_rebuilds == rebuilds + 2

    def test_add_destination_later(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        spt.add_destination(2)
        assert spt.distances(2)[1] == 1.0

    def test_validation_errors(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        with pytest.raises(NetworkError):
            spt.set_weight(1, 2, -1.0)
        with pytest.raises(NetworkError):
            spt.set_weight(1, 2, float("nan"))
        with pytest.raises(NetworkError):
            spt.fail_link(1, 4)  # no such link
        with pytest.raises(NetworkError):
            spt.distances(1)  # not a maintained destination
        with pytest.raises(ValueError):
            DynamicSPT(net, np.ones(net.num_links), max_affected_fraction=0.0)

    def test_weight_change_on_failed_link_applies_on_recovery(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        spt.fail_link(1, 2)
        assert spt.set_weight(1, 2, 5.0) == set()  # masked: no DAG change yet
        spt.recover_link(1, 2)
        assert spt.dag(4).next_hops[1] == [3]  # came back at weight 5

    def test_stats_accumulate(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        spt.fail_link(1, 2)
        spt.recover_link(1, 2)
        assert spt.stats.events == 2
        assert spt.stats.destinations_changed == 2
        assert spt.stats.incremental_updates >= 2


# ----------------------------------------------------------------------
# scoped plateau fallback + per-event stats (the PR-7 bugfixes)
# ----------------------------------------------------------------------
class TestScopedPlateauFallback:
    """The plateau-floor fallback only fires near the affected cone.

    Regression cover: a sub-floor weight *anywhere* in the graph used to
    force a verified full rebuild on every event; the scoped criterion only
    falls back when the event's refresh set or moved distance range can see
    a usable plateau endpoint.
    """

    def make_line(self, tiny: float = 1e-13):
        """Duplex line 0-1-...-9 with one plateau link (8, 9) at ``tiny``."""
        net = Network(name="line10")
        for i in range(10):
            net.add_node(i)
        for i in range(9):
            net.add_duplex_link(i, i + 1, 10.0)
        weights = np.ones(net.num_links)
        weights[net.link_index(8, 9)] = tiny
        return net, weights

    def test_far_tiny_weight_no_plateau_fallback(self):
        net, weights = self.make_line()
        spt = DynamicSPT(net, weights.copy(), destinations=[9], tolerance=TOLERANCE)
        assert not spt.plateau_free
        mirror, failed = weights.copy(), set()
        # Fail / recover / retune links next to node 0 — nine hops away from
        # the plateau link, far outside any affected cone.
        for ops in [("fail", net.link_index(0, 1), 0.0),
                    ("recover", net.link_index(0, 1), 0.0),
                    ("weight", net.link_index(1, 0), 2.5)]:
            replay(spt, net, mirror, ops, failed)
        assert spt.stats.fallback_plateau == 0
        assert spt.stats.event_fallbacks == 0
        _, cold = cold_state(net, mirror, failed, 9)
        live = spt.dag(9)
        assert live.distances == cold.distances
        assert live.next_hops == cold.next_hops

    def test_event_near_plateau_still_falls_back(self):
        net, weights = self.make_line()
        spt = DynamicSPT(net, weights.copy(), destinations=[9], tolerance=TOLERANCE)
        mirror, failed = weights.copy(), set()
        # Improving (7, 8) moves distances right next to the plateau link:
        # the scoped check must refuse the incremental shortcut...
        replay(spt, net, mirror, ("weight", net.link_index(7, 8), 0.5), failed)
        assert spt.stats.fallback_plateau >= 1
        # ...and the verified rebuild still matches the cold DAG exactly.
        _, cold = cold_state(net, mirror, failed, 9)
        live = spt.dag(9)
        assert live.distances == cold.distances
        assert live.next_hops == cold.next_hops


class TestStatsUnits:
    def test_event_fallback_rate_counts_events_not_updates(self):
        from repro.online.dspt import DsptStats

        stats = DsptStats(
            events=4,
            incremental_updates=396,
            fallback_cone=4,
            events_with_fallback=1,
        )
        # The deprecated per-update rate drowns one bad event in the other
        # destinations' incremental updates; the per-event rate does not.
        with pytest.warns(DeprecationWarning):
            assert stats.fallback_rate == pytest.approx(4 / 400)
        assert stats.event_fallback_rate == pytest.approx(1 / 4)

    def test_rates_zero_when_idle(self):
        from repro.online.dspt import DsptStats

        stats = DsptStats()
        with pytest.warns(DeprecationWarning):
            assert stats.fallback_rate == 0.0
        assert stats.event_fallback_rate == 0.0

    def test_fallback_rate_is_deprecated_but_value_unchanged(self):
        from repro.online.dspt import DsptStats

        stats = DsptStats(events=4, incremental_updates=396, fallback_cone=4)
        with pytest.warns(DeprecationWarning, match="fallback_rate is deprecated"):
            deprecated = stats.fallback_rate
        # The deprecation changes the access path, never the value.
        assert deprecated == stats._per_update_fallback_rate()
        # repr still reports the historical rate without tripping the warning.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert "fallback_rate=" in repr(stats)


class TestTunedMaxAffectedFraction:
    def test_dense_graphs_get_the_high_threshold(self):
        from repro.online.dspt import (
            DENSE_CONE_FRACTION,
            SPARSE_CONE_FRACTION,
            tuned_max_affected_fraction,
        )
        from repro.topology.backbones import abilene_network
        from repro.topology.generators import rand100, rand500

        assert tuned_max_affected_fraction(rand100()) == DENSE_CONE_FRACTION
        assert tuned_max_affected_fraction(rand500()) == DENSE_CONE_FRACTION
        # Abilene: 11 nodes — small backbones never fall back on cone size.
        assert tuned_max_affected_fraction(abilene_network()) == SPARSE_CONE_FRACTION

    def test_engine_defaults_to_the_tuned_threshold(self):
        from repro.online.dspt import tuned_max_affected_fraction
        from repro.topology.generators import rand100

        net = rand100()
        dest = net.nodes[0]
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[dest])
        assert spt.max_affected_fraction == tuned_max_affected_fraction(net)
        pinned = DynamicSPT(
            net, np.ones(net.num_links), destinations=[dest], max_affected_fraction=0.25
        )
        assert pinned.max_affected_fraction == 0.25
