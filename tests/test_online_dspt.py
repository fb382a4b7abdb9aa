"""Cold exactness of the dirty-row SPT state and the controller built on it.

:class:`~repro.online.DynamicSPT` holds ``(destinations x nodes)`` distances
and a ``(destinations x links)`` DAG mask; an event dirties the rows where
the changed link is tight before or after it, and the next read re-runs the
one builder on those rows.  Under arbitrary event sequences the state must
equal, bit-for-bit, an all-rows cold build on the current weights, and
every row outside the dirty set must be left untouched.  The controller's
per-destination loads must likewise equal a cold all-rows propagation.
These properties are checked on Hypothesis-generated topologies and event
sequences -- failures, recoveries, weight rises and falls (zero weights and
ties within the tolerance included), capacity-0 events and demand updates
-- plus hand-built corners.
"""

from __future__ import annotations

import numpy as np
import pytest
import routing_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.demands import TrafficMatrix
from repro.network.graph import Network, NetworkError
from repro.network.spt import shortest_path_dag, shortest_path_mask
from repro.online import (
    CapacityChange,
    DemandUpdate,
    DynamicSPT,
    LinkFailure,
    LinkRecovery,
    LinkWeightChange,
    TEController,
)
from repro.online.dspt import DsptStats
from repro.routing import CompiledDag

TOLERANCE = 1e-9

#: Strictly positive pool; duplicates create ECMP ties.
POSITIVE_POOL = (0.5, 1.0, 1.0, 2.0, 3.0)
#: Pool with zeros: zero-weight plateaus.
PLATEAU_POOL = (0.0, 0.0, 1.0, 2.0)
#: Zeros, exact ties and near-ties (within a 0.3 tolerance, not within 1e-9).
TIE_POOL = (0.0, 0.0, 0.1, 1.0, 1.0, 1.15, 2.0)


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


@st.composite
def controller_events(draw, net: Network, pool=TIE_POOL) -> list:
    """Link, capacity and demand events over ``net``.

    A recovery brings back a link an earlier event took down, so every
    sequence mixes removals with the additions that undo them.
    """
    links = [link.endpoints for link in net.links]
    nodes = net.nodes
    events = []
    down: list = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(["fail", "recover", "weight", "capacity", "demand"]))
        edge = draw(st.sampled_from(down if kind == "recover" and down else links))
        if kind == "fail":
            events.append(LinkFailure(link=edge))
            down.append(edge)
        elif kind == "recover":
            events.append(LinkRecovery(link=edge))
        elif kind == "weight":
            events.append(LinkWeightChange(link=edge, weight=draw(st.sampled_from(pool))))
        elif kind == "capacity":
            capacity = draw(st.sampled_from([0.0, 5.0]))
            events.append(CapacityChange(link=edge, capacity=capacity))
            if capacity == 0.0:
                down.append(edge)
        else:
            source, target = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                                           unique=True))
            volume = draw(st.sampled_from([0.0, 1.0, 2.5]))
            events.append(DemandUpdate(source=source, target=target, volume=volume))
    return events


# ----------------------------------------------------------------------
# cold references
# ----------------------------------------------------------------------
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


def cold_rows(controller: TEController) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(distances, mask, per-destination loads)`` of an all-rows cold build."""
    spt = controller.spt
    vector = np.where(spt.active_mask, spt.weights, np.inf)
    destinations = spt.destinations
    distances, mask = shortest_path_mask(controller.network, destinations, vector, spt.tolerance)
    member = np.isfinite(distances)
    dag = CompiledDag.from_mask(controller.network, destinations, member, mask)
    ratios = dag.uniform_ratios()
    demand = np.zeros(member.shape)
    for (source, target), volume in controller.demands.items():
        demand[spt.row(target), controller.network.node_index(source)] = volume
    throughflow = dag.propagate(np.where(member, demand, 0.0).ravel(), ratios)
    return distances, mask, dag.destination_loads(throughflow, ratios)


def routed_rows(controller: TEController) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The controller's refreshed ``(distances, mask, per-destination loads)``, copied."""
    controller.link_loads()
    distances, mask = controller.spt.arrays()
    return distances.copy(), mask.copy(), controller._dest_loads.copy()


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
        """Zero-weight plateaus take the same dirty-row path and match cold."""
        net, weights = data.draw(topology(pool=PLATEAU_POOL))
        spt = DynamicSPT(net, weights, destinations=net.nodes)
        failed: set = set()
        for ops in data.draw(event_sequence(net, pool=PLATEAU_POOL)):
            replay(spt, net, weights, ops, failed)
        assert_matches_cold(spt, net, weights, failed)

    @given(data=st.data())
    @settings(max_examples=25)
    def test_ecmp_loads_match_python_oracle_after_events(self, data):
        """Controller loads after link events equal the dict-loop oracle to 1e-9."""
        net, weights = data.draw(topology())
        tm = TrafficMatrix()
        for source in net.nodes:
            for target in net.nodes:
                if source != target:
                    tm.add(source, target, 1.0 + 0.25 * net.node_index(source))
        controller = TEController(net, tm, weights=weights)
        failed: set = set()
        for op, index, value in data.draw(event_sequence(net)):
            edge = net.links[index].endpoints
            if op == "fail":
                controller.apply(LinkFailure(link=edge))
                failed.add(edge)
            elif op == "recover":
                controller.apply(LinkRecovery(link=edge))
                failed.discard(edge)
            else:
                controller.apply(LinkWeightChange(link=edge, weight=value))
                weights[index] = value
        measurement = controller.measure()

        routable = TrafficMatrix()
        for (source, target), volume in tm.items():
            if (source, target) not in measurement.dropped_pairs:
                routable.add(source, target, volume)
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
        np.testing.assert_allclose(measurement.loads, mapped, atol=TOLERANCE, rtol=0)
        assert measurement.dropped_volume == pytest.approx(
            tm.total_volume() - routable.total_volume()
        )


class TestDirtyRowExactness:
    @given(data=st.data(), tolerance=st.sampled_from([1e-9, 0.3]))
    @settings(max_examples=100)
    def test_every_event_matches_cold_and_spares_clean_rows(self, data, tolerance):
        """After every event: cold all-rows state bit-for-bit, clean rows untouched."""
        net, weights = data.draw(topology(pool=TIE_POOL))
        destinations = data.draw(
            st.lists(st.sampled_from(net.nodes), min_size=1, max_size=3, unique=True)
        )
        tm = TrafficMatrix(
            {(s, t): 1.0 + net.node_index(s) for t in destinations for s in net.nodes if s != t}
        )
        controller = TEController(net, tm, weights=weights, tolerance=tolerance)
        for event in data.draw(controller_events(net)):
            before = routed_rows(controller)
            controller.apply(event)
            # Rows the event dirtied in the SPT, and rows whose loads it
            # made stale (those plus a demand update's row).
            dirty, stale = set(controller.spt._dirty), set(controller._stale)
            after = routed_rows(controller)
            for old, new, changed in zip(before, after, (dirty, dirty, stale), strict=True):
                clean = [row for row in range(len(old)) if row not in changed]
                assert np.array_equal(old[clean], new[clean])
            for live, cold in zip(after, cold_rows(controller), strict=True):
                assert np.array_equal(live, cold)

    def test_failing_a_tight_link_off_the_dag_dirties_its_row(self):
        """A tight link the DAG leaves out can still carry its tail's distance.

        ``u -> v`` (weight 0) is flat and does not join the DAG: ``u`` already
        has a downhill link, to ``x``, that is tight within the tolerance.  The
        distance of ``u`` runs through ``v`` all the same, so failing the link
        moves it by less than the tolerance and the row must be recomputed.
        """
        net = Network(name="off-dag")
        for u, v in [("u", "v"), ("v", "t"), ("u", "x"), ("x", "t")]:
            net.add_link(u, v, 10.0)
        weights = [0.0, 1.0, 0.5 + 1e-10, 0.5]
        spt = DynamicSPT(net, weights, destinations=["t"])
        assert spt.dag("t").next_hops["u"] == ["x"]
        assert spt.distances("t")["u"] == 1.0
        assert spt.fail_link("u", "v") == {"t"}
        _, cold = cold_state(net, np.asarray(weights), {("u", "v")}, "t")
        assert spt.distances("t") == cold.distances
        assert spt.distances("t")["u"] > 1.0


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
        snapshot = spt.dag(4)
        before = (spt.distances(4), {n: list(h) for n, h in spt.dag(4).next_hops.items()})
        assert spt.fail_link(1, 2) == {4}
        assert spt.dag(4).next_hops[1] == [3]
        # A dag() taken before the event does not follow the engine's arrays.
        assert snapshot.next_hops == before[1] and snapshot.next_hops[1] == [2, 3]
        assert snapshot.distances == before[0]
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

    def test_weight_change_on_failed_link_applies_on_recovery(self):
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        spt.fail_link(1, 2)
        assert spt.set_weight(1, 2, 5.0) == set()  # masked: no DAG change yet
        spt.recover_link(1, 2)
        assert spt.dag(4).next_hops[1] == [3]  # came back at weight 5

    def test_stats_accumulate(self):
        """Events dirty rows; each read recomputes the dirty rows once."""
        net = self.make_diamond()
        spt = DynamicSPT(net, np.ones(net.num_links), destinations=[4])
        spt.fail_link(1, 2)
        spt.dag(4)
        spt.recover_link(1, 2)
        spt.dag(4)
        spt.dag(4)  # clean: nothing to recompute
        assert spt.stats.events == 2
        assert spt.stats.destinations_changed == 2
        assert spt.stats.incremental_updates == 2
        assert spt.stats.nodes_recomputed == 2 * net.num_nodes


# ----------------------------------------------------------------------
# events next to a near-zero weight
# ----------------------------------------------------------------------
class TestScopedPlateauFallback:
    """A near-zero weight changes nothing about how events are handled."""

    def make_line(self, tiny: float = 1e-13):
        """Duplex line 0-1-...-9 with one near-plateau link (8, 9) at ``tiny``."""
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
        mirror, failed = weights.copy(), set()
        # Fail / recover / retune links next to node 0 — nine hops away from
        # the tiny-weight link.
        for ops in [("fail", net.link_index(0, 1), 0.0),
                    ("recover", net.link_index(0, 1), 0.0),
                    ("weight", net.link_index(1, 0), 2.5)]:
            replay(spt, net, mirror, ops, failed)
        assert spt.stats.event_fallbacks == 0
        _, cold = cold_state(net, mirror, failed, 9)
        live = spt.dag(9)
        assert live.distances == cold.distances
        assert live.next_hops == cold.next_hops

    def test_event_near_plateau_matches_cold(self):
        net, weights = self.make_line()
        spt = DynamicSPT(net, weights.copy(), destinations=[9], tolerance=TOLERANCE)
        mirror, failed = weights.copy(), set()
        # Improving (7, 8) moves distances right next to the tiny-weight link.
        replay(spt, net, mirror, ("weight", net.link_index(7, 8), 0.5), failed)
        _, cold = cold_state(net, mirror, failed, 9)
        live = spt.dag(9)
        assert live.distances == cold.distances
        assert live.next_hops == cold.next_hops


class TestStatsUnits:
    def test_event_fallback_rate_counts_events_not_updates(self):
        stats = DsptStats(events=4, incremental_updates=396, events_with_fallback=1)
        assert stats.event_fallback_rate == pytest.approx(1 / 4)

    def test_rates_zero_when_idle(self):
        assert DsptStats().event_fallback_rate == 0.0
