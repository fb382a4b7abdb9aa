"""The online TE controller: events, equivalence, warm starts, integration.

Three layers are pinned here:

* the event model (conversions from scenarios, validation, timed traces);
* :class:`TEController` behaviour — incremental failure sweeps equivalent
  to cold per-scenario evaluation (1e-9 link loads), drop accounting,
  demand/capacity events, the compiled ensemble path, the
  discrete-event simulator binding;
* the warm-started reoptimization hooks (Fortz–Thorup ``warm_start=``,
  ``SPEF.fit(warm_start=)``) and the scenario runner's incremental fast
  path with its collision-proof cache keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spef import SPEF
from repro.network.demands import TrafficMatrix
from repro.network.graph import Network, NetworkError
from repro.online import (
    CapacityChange,
    DemandUpdate,
    EventError,
    LinkFailure,
    LinkRecovery,
    LinkWeightChange,
    TEController,
    failure_events,
    failure_recovery_trace,
    is_incremental_sweepable,
    is_pure_failure,
    recovery_events,
    scenario_events,
    scenario_failed_edges,
)
from repro.protocols.fortz_thorup import FortzThorup
from repro.protocols.ospf import OSPF, MinHopOSPF, invcap_weights
from repro.scenarios import Scenario, single_link_failures, node_failures
from repro.scenarios import capacity_degradations, combine
from repro.scenarios.runner import (
    BatchRunner,
    ProtocolSpec,
    _incremental_eligible,
    _probe,
    cell_key,
    evaluate_scenario,
    evaluate_scenarios,
)
from repro.solvers.assignment import ecmp_assignment

TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# event model
# ----------------------------------------------------------------------
class TestEvents:
    def test_is_pure_failure(self):
        assert is_pure_failure(Scenario("s", failed_links=((1, 2),)))
        assert is_pure_failure(Scenario("s", failed_nodes=(3,)))
        assert not is_pure_failure(Scenario("s"))  # baseline perturbs nothing
        assert not is_pure_failure(
            Scenario("s", failed_links=((1, 2),), demand_scale=0.5)
        )
        assert not is_pure_failure(
            Scenario("s", failed_links=((1, 2),), capacity_factors=(((1, 2), 0.5),))
        )

    def test_node_failure_expands_to_incident_links(self, diamond_network):
        scenario = node_failures(diamond_network, nodes=[2])[0]
        edges = scenario_failed_edges(diamond_network, scenario)
        assert set(edges) == {(1, 2), (2, 4)}
        events = failure_events(diamond_network, scenario)
        assert [event.link for event in events] == edges
        back = recovery_events(diamond_network, scenario)
        assert [event.link for event in back] == edges

    def test_unknown_link_raises(self, diamond_network):
        scenario = Scenario("bad", failed_links=((1, 4),))
        with pytest.raises(EventError):
            scenario_failed_edges(diamond_network, scenario)
        with pytest.raises(EventError):
            failure_events(diamond_network, Scenario("demand", demand_scale=2.0))

    def test_failure_recovery_trace_times(self, diamond_network):
        scenarios = single_link_failures(diamond_network, duplex=False)[:2]
        trace = failure_recovery_trace(
            diamond_network, scenarios, period=10.0, outage=4.0, start=1.0
        )
        assert [event.time for event in trace] == [1.0, 5.0, 11.0, 15.0]
        assert isinstance(trace[0], LinkFailure) and isinstance(trace[1], LinkRecovery)
        with pytest.raises(EventError):
            failure_recovery_trace(diamond_network, scenarios, period=0.0)

    def test_event_kinds(self):
        assert LinkFailure(link=(1, 2)).kind == "link-failure"
        assert DemandUpdate(source=1, target=2, volume=3.0).kind == "demand-update"


# ----------------------------------------------------------------------
# full scenario -> event conversion (capacity algebra included)
# ----------------------------------------------------------------------
class TestScenarioEvents:
    def test_is_incremental_sweepable(self):
        assert is_incremental_sweepable(Scenario("s", failed_links=((1, 2),)))
        assert is_incremental_sweepable(
            Scenario("s", capacity_factors=(((1, 2), 0.5),))
        )
        assert is_incremental_sweepable(
            Scenario("s", failed_links=((1, 2),), capacity_factors=(((2, 1), 0.5),))
        )
        assert not is_incremental_sweepable(Scenario("s"))  # baseline
        assert not is_incremental_sweepable(Scenario("s", demand_scale=2.0))
        assert not is_incremental_sweepable(
            Scenario("s", capacity_factors=(((1, 2), 0.5),), demand_scale=0.5)
        )

    def test_mixed_scenario_expands_to_failures_then_capacities(self, diamond_network):
        scenario = Scenario(
            "mix",
            failed_links=((1, 2),),
            capacity_factors=(((1, 3), 0.25),),
        )
        events = scenario_events(diamond_network, scenario)
        assert [type(e) for e in events] == [LinkFailure, CapacityChange]
        assert events[0].link == (1, 2)
        assert events[1].link == (1, 3)
        assert events[1].capacity == pytest.approx(2.5)  # 10 * 0.25

    def test_factor_zero_becomes_link_failure(self, diamond_network):
        scenario = Scenario("zero", capacity_factors=(((1, 3), 0.0),))
        events = scenario_events(diamond_network, scenario)
        assert events == [LinkFailure(link=(1, 3))]

    def test_duplicate_edges_merge_multiplicatively(self, diamond_network):
        scenario = Scenario(
            "dupe", capacity_factors=(((1, 3), 0.5), ((1, 3), 0.5))
        )
        events = scenario_events(diamond_network, scenario)
        assert events == [CapacityChange(link=(1, 3), capacity=2.5)]  # 10 * 0.25
        # ... and to a failure when the product hits zero.
        dead = Scenario("dead", capacity_factors=(((1, 3), 0.5), ((1, 3), 0.0)))
        assert scenario_events(diamond_network, dead) == [LinkFailure(link=(1, 3))]

    def test_failed_link_wins_over_capacity_factor(self, diamond_network):
        scenario = Scenario(
            "both", failed_links=((1, 3),), capacity_factors=(((1, 3), 0.5),)
        )
        assert scenario_events(diamond_network, scenario) == [LinkFailure(link=(1, 3))]

    def test_unknown_link_and_demand_scenarios_raise(self, diamond_network):
        with pytest.raises(EventError):
            scenario_events(
                diamond_network, Scenario("ghost", capacity_factors=(((9, 9), 0.5),))
            )
        with pytest.raises(EventError):
            scenario_events(diamond_network, Scenario("demand", demand_scale=2.0))
        with pytest.raises(EventError):
            scenario_events(diamond_network, Scenario("baseline"))


# ----------------------------------------------------------------------
# controller behaviour
# ----------------------------------------------------------------------
class TestController:
    def test_failure_recovery_roundtrip_restores_loads(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)
        baseline = controller.measure()
        edge = abilene.links[0].endpoints
        update = controller.apply(LinkFailure(link=edge))
        assert update.affected_destinations > 0
        degraded = controller.measure()
        assert not np.allclose(degraded.loads, baseline.loads, atol=TOLERANCE)
        assert degraded.loads[0] == 0.0  # the failed link carries nothing
        recovery = controller.apply(LinkRecovery(link=edge))
        restored = controller.measure()
        np.testing.assert_allclose(restored.loads, baseline.loads, atol=TOLERANCE, rtol=0)
        assert recovery.event == LinkRecovery(link=edge)
        assert (update.sequence, recovery.sequence) == (0, 1)
        assert recovery.affected_destinations > 0

    def test_loads_match_ospf_route(self, abilene, abilene_tm):
        weights = invcap_weights(abilene)
        controller = TEController(abilene, abilene_tm, weights=weights)
        cold = OSPF(weights=abilene.weight_dict(weights)).route(abilene, abilene_tm)
        np.testing.assert_allclose(
            controller.link_loads(), cold.aggregate(), atol=TOLERANCE, rtol=0
        )

    def test_sweep_matches_cold_scenario_evaluation(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)
        scenarios = single_link_failures(abilene)
        measurements = controller.sweep_scenarios(scenarios)
        spec = ProtocolSpec.of("OSPF")
        for scenario, measurement in zip(scenarios, measurements, strict=True):
            cold = evaluate_scenario(abilene, abilene_tm, scenario, spec)
            assert measurement.mlu == pytest.approx(cold.mlu, abs=TOLERANCE)
            assert measurement.utility == pytest.approx(cold.utility, abs=1e-6)
            assert measurement.routed_volume == pytest.approx(cold.routed_volume, abs=TOLERANCE)
            assert measurement.dropped_volume == pytest.approx(cold.dropped_volume, abs=TOLERANCE)
            assert measurement.connected == cold.connected

    def test_sweep_scenarios_matches_cold_on_capacity_and_mixed(self, abilene, abilene_tm):
        """The tentpole equivalence: capacity/mixed sweeps == cold to 1e-12."""
        protocol = MinHopOSPF()
        scenarios = (
            capacity_degradations(abilene, count=4, factor=0.5, seed=7)
            + [
                combine(
                    single_link_failures(abilene)[0],
                    capacity_degradations(abilene, count=1, factor=0.3, seed=9)[0],
                ),
                Scenario(
                    "zero", kind="capacity",
                    capacity_factors=((abilene.links[2].endpoints, 0.0),),
                ),
            ]
        )
        controller = TEController(
            abilene, abilene_tm,
            weights=protocol.ecmp_forwarding_weights(abilene),
            tolerance=protocol.ecmp_tolerance,
        )
        baseline = controller.measure()
        measurements = controller.sweep_scenarios(scenarios)
        spec = ProtocolSpec.of("MinHopOSPF")
        for scenario, measurement in zip(scenarios, measurements, strict=True):
            cold = evaluate_scenario(abilene, abilene_tm, scenario, spec)
            assert measurement.mlu == pytest.approx(cold.mlu, abs=1e-12), scenario.scenario_id
            assert measurement.utility == pytest.approx(cold.utility, abs=1e-9)
            assert measurement.routed_volume == pytest.approx(cold.routed_volume, abs=1e-12)
            assert measurement.dropped_volume == pytest.approx(cold.dropped_volume, abs=1e-12)
            assert measurement.connected == cold.connected
        # The controller is back in its starting state, capacities included.
        after = controller.measure()
        np.testing.assert_allclose(after.loads, baseline.loads, atol=0, rtol=0)
        np.testing.assert_array_equal(controller.capacities, abilene.capacities)

    def test_factor_zero_equivalence_cold_vs_incremental(self, abilene, abilene_tm):
        """The foreground bugfix pin: factor-0 loads agree on both paths."""
        protocol = MinHopOSPF()
        edge = abilene.links[0].endpoints
        scenarios = [
            Scenario("zero-a", capacity_factors=((edge, 0.0),)),
            Scenario("zero-b", capacity_factors=((abilene.links[4].endpoints, 0.0),)),
        ]
        controller = TEController(
            abilene, abilene_tm, weights=protocol.ecmp_forwarding_weights(abilene)
        )
        measurements = controller.sweep_scenarios(scenarios)
        weight_map = abilene.weight_dict(protocol.ecmp_forwarding_weights(abilene))
        for scenario, measurement in zip(scenarios, measurements, strict=True):
            instance = scenario.apply(abilene, abilene_tm)
            assert not instance.network.has_link(*scenario.capacity_factors[0][0])
            pruned_weights = {
                link.endpoints: weight_map[link.endpoints]
                for link in instance.network.links
            }
            cold = ecmp_assignment(
                instance.network, instance.demands, pruned_weights
            ).aggregate()
            mapped = np.zeros(abilene.num_links)
            for link in instance.network.links:
                mapped[abilene.link_index(link.source, link.target)] = cold[link.index]
            np.testing.assert_allclose(measurement.loads, mapped, atol=1e-12, rtol=0)

    def test_drop_accounting_on_disconnection(self):
        net = Network(name="line")
        net.add_link(1, 2, 5.0)
        net.add_link(2, 3, 5.0)
        tm = TrafficMatrix({(1, 3): 2.0, (1, 2): 1.0})
        controller = TEController(net, tm, weights=[1.0, 1.0])
        controller.apply(LinkFailure(link=(2, 3)))
        measurement = controller.measure()
        assert measurement.dropped_volume == pytest.approx(2.0)
        assert measurement.dropped_pairs == ((1, 3),)
        assert measurement.routed_volume == pytest.approx(1.0)
        assert not measurement.connected

    def test_demand_update_events(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)
        pair = abilene_tm.pairs()[0]
        controller.apply(DemandUpdate(source=pair[0], target=pair[1], volume=0.0))
        expected = TrafficMatrix(
            {p: v for p, v in abilene_tm.items() if p != pair}
        )
        cold = OSPF(weights=abilene.weight_dict(controller.weights)).route(
            abilene, expected
        )
        np.testing.assert_allclose(
            controller.link_loads(), cold.aggregate(), atol=TOLERANCE, rtol=0
        )
        assert controller.demands.total_volume() == pytest.approx(expected.total_volume())

    def test_demand_rows_match_a_pair_loop(self):
        """The constructor's one scatter, then a destination gained by an event."""
        net = Network(name="square")
        for u, v in [(1, 2), (2, 3), (3, 4), (4, 1)]:
            net.add_duplex_link(u, v, 10.0)
        tm = TrafficMatrix({(1, 3): 2.0, (4, 3): 1.5, (3, 1): 0.5, (2, 4): 3.0})
        controller = TEController(net, tm, weights=[1.0] * net.num_links)
        controller.ensemble_link_loads([TrafficMatrix({(3, 2): 1.0})])
        controller.apply(DemandUpdate(source=4, target=2, volume=2.5))
        controller.measure()

        def reference(demands):
            expected = np.zeros((len(controller.spt.destinations), net.num_nodes))
            for (source, target), volume in demands.items():
                expected[controller.spt.row(target), net.node_index(source)] = volume
            return expected

        np.testing.assert_array_equal(controller._demand, reference(controller.demands))
        assert controller.spt.destinations == [3, 1, 4, 2]

    def test_capacity_change_moves_mlu_not_loads(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)
        before = controller.measure()
        link = abilene.links[int(np.argmax(before.loads))]
        controller.apply(
            CapacityChange(link=link.endpoints, capacity=link.capacity / 2.0)
        )
        after = controller.measure()
        np.testing.assert_allclose(after.loads, before.loads, atol=TOLERANCE, rtol=0)
        assert after.mlu > before.mlu

    def test_capacity_zero_is_a_link_failure(self, abilene, abilene_tm):
        """Capacity <= 0 events are explicit failures, matching Scenario.apply."""
        edge = abilene.links[0].endpoints
        reference = TEController(abilene, abilene_tm)
        reference.apply(LinkFailure(link=edge))
        expected = reference.measure()

        controller = TEController(abilene, abilene_tm)
        update = controller.apply(CapacityChange(link=edge, capacity=0.0))
        assert update.affected_destinations > 0
        assert edge in controller.spt.failed_links()
        measurement = controller.measure()
        np.testing.assert_allclose(measurement.loads, expected.loads, atol=TOLERANCE, rtol=0)
        assert measurement.mlu == pytest.approx(expected.mlu, abs=TOLERANCE)
        # The configured capacity is retained (utilization stays 0, not 0/0)
        # and the link recovers like any other failure.
        assert controller.capacities[0] == abilene.links[0].capacity
        controller.apply(LinkRecovery(link=edge))
        baseline = TEController(abilene, abilene_tm).measure()
        assert controller.measure().mlu == pytest.approx(baseline.mlu, abs=TOLERANCE)

    def test_weight_change_event(self, diamond_network, diamond_demands):
        controller = TEController(
            diamond_network, diamond_demands, weights=[1.0, 1.0, 1.0, 1.0]
        )
        assert controller.measure().mlu == pytest.approx(0.4)  # 4 on each branch
        controller.apply(LinkWeightChange(link=(1, 3), weight=5.0))
        assert controller.measure().mlu == pytest.approx(0.8)  # all 8 via node 2

    def test_active_network_reflects_failures_and_capacities(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)
        edge = abilene.links[3].endpoints
        controller.apply(LinkFailure(link=edge))
        controller.apply(CapacityChange(link=abilene.links[4].endpoints, capacity=7.5))
        active = controller.active_network()
        assert not active.has_link(*edge)
        assert active.num_links == abilene.num_links - 1
        assert active.capacity_of(*abilene.links[4].endpoints) == pytest.approx(7.5)

    def test_ensemble_link_loads_delta_refreshes(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)
        matrices = [abilene_tm.scaled(0.5), abilene_tm.scaled(1.25)]
        edge = abilene.links[0].endpoints
        controller.ensemble_link_loads(matrices)  # before the event
        controller.apply(LinkFailure(link=edge))
        loads = controller.ensemble_link_loads(matrices)
        assert loads.shape == (2, abilene.num_links)
        # Cold reference: ECMP on the pruned network with the same weights.
        scenario = Scenario("link", failed_links=(edge,))
        instance = scenario.apply(abilene, abilene_tm)
        weight_map = abilene.weight_dict(controller.weights)
        pruned_weights = {
            link.endpoints: weight_map[link.endpoints] for link in instance.network.links
        }
        for row, matrix in zip(loads, matrices, strict=True):
            cold = ecmp_assignment(instance.network, matrix, pruned_weights).aggregate()
            mapped = np.zeros(abilene.num_links)
            for link in instance.network.links:
                mapped[abilene.link_index(link.source, link.target)] = cold[link.index]
            np.testing.assert_allclose(row, mapped, atol=TOLERANCE, rtol=0)

    def test_ensemble_builds_state_for_unseen_destinations(self):
        net = Network(name="square")
        for u, v in [(1, 2), (2, 3), (3, 4), (4, 1)]:
            net.add_duplex_link(u, v, 10.0)
        controller = TEController(
            net, TrafficMatrix({(1, 2): 1.0}), weights=[1.0] * net.num_links
        )
        loads = controller.ensemble_link_loads([TrafficMatrix({(1, 3): 2.0})])
        cold = OSPF(weights=net.weight_dict(controller.weights)).route(
            net, TrafficMatrix({(1, 3): 2.0})
        )
        np.testing.assert_allclose(loads[0], cold.aggregate(), atol=TOLERANCE, rtol=0)

    def test_unknown_event_type_raises(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)

        class Mystery:  # not a NetworkEvent subclass
            pass

        with pytest.raises(EventError):
            controller.apply(Mystery())  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# warm-started reoptimization
# ----------------------------------------------------------------------
class TestWarmStarts:
    def test_fortz_thorup_warm_start_plumbing(self, abilene, abilene_tm):
        search = FortzThorup(restarts=1, seed=0, max_evaluations=1, max_weight=20)
        start = np.full(abilene.num_links, 7.3)
        result = search.optimize(abilene, abilene_tm, warm_start=start)
        np.testing.assert_array_equal(result.weights, np.full(abilene.num_links, 7.0))
        with pytest.raises(ValueError):
            search.optimize(abilene, abilene_tm, warm_start=np.ones(3))

    def test_fortz_thorup_warm_start_converges_faster(self, abilene, abilene_tm):
        def make():
            return FortzThorup(restarts=1, seed=0, max_evaluations=300)

        cold = make().optimize(abilene, abilene_tm)
        drifted = abilene_tm.scaled(1.02)
        recold = make().optimize(abilene, drifted)
        warm = make().optimize(abilene, drifted, warm_start=cold.weights)
        assert warm.evaluations < recold.evaluations
        assert warm.cost <= recold.cost * 1.05  # no quality cliff

    def test_controller_reoptimize_installs_weights(self, abilene, abilene_tm):
        controller = TEController(abilene, abilene_tm)
        before_mlu = controller.mlu()
        result = controller.reoptimize(
            optimizer=FortzThorup(restarts=1, seed=0, max_evaluations=60)
        )
        assert result.evaluations <= 60
        installed = controller.weights
        assert np.all(installed >= 1.0) and np.all(installed <= 20.0)
        np.testing.assert_array_equal(installed, result.weights)
        # The controller still routes (and updates incrementally) after
        # installation.
        after = controller.measure()
        assert np.isfinite(after.mlu)
        update = controller.apply(LinkFailure(link=abilene.links[0].endpoints))
        assert update.affected_destinations > 0
        assert before_mlu > 0

    def test_spef_warm_start_reduces_iterations(self, abilene, abilene_tm):
        spef = SPEF(te_tolerance=1e-4, alg2_tolerance=1e-2)
        cold = spef.fit(abilene, abilene_tm)
        drifted = abilene_tm.scaled(1.05)
        recold = spef.fit(abilene, drifted)
        warm = spef.fit(abilene, drifted, warm_start=cold)
        assert warm.te_solution.iterations <= recold.te_solution.iterations
        assert warm.second_result.iterations < recold.second_result.iterations
        assert warm.max_link_utilization() == pytest.approx(
            recold.max_link_utilization(), abs=5e-2
        )

    def test_spef_incompatible_warm_start_ignored(self, abilene, abilene_tm, fig4, fig4_tm):
        spef = SPEF(te_tolerance=1e-4, alg2_tolerance=1e-2)
        other = spef.fit(fig4, fig4_tm)
        # A warm start from a different topology must be ignored, not wrong.
        solution = spef.fit(abilene, abilene_tm, warm_start=other)
        cold = spef.fit(abilene, abilene_tm)
        assert solution.max_link_utilization() == pytest.approx(
            cold.max_link_utilization(), abs=1e-6
        )

    def test_spef_warm_start_rejects_same_size_different_wiring(self):
        """Same link count, different wiring: the edge-list guard must fire."""

        def ring(name, order):
            net = Network(name=name)
            for u, v in zip(order, order[1:] + order[:1], strict=True):
                net.add_duplex_link(u, v, 10.0)
            return net

        net_a = ring("ring-a", [1, 2, 3, 4])
        net_b = ring("ring-b", [1, 3, 2, 4])  # same 8 links, different wiring
        tm = TrafficMatrix({(1, 2): 1.0, (3, 4): 1.0})
        spef = SPEF(te_tolerance=1e-4, alg2_tolerance=1e-2)
        warm_from_a = spef.fit(net_a, tm)
        assert spef._warm_initial_flows(net_b, tm, warm_from_a) is None
        warm = spef.fit(net_b, tm, warm_start=warm_from_a)
        cold = spef.fit(net_b, tm)
        assert warm.max_link_utilization() == pytest.approx(
            cold.max_link_utilization(), abs=1e-6
        )


# ----------------------------------------------------------------------
# scenario runner integration
# ----------------------------------------------------------------------
class TestRunnerIncrementalPath:
    def test_hook_support_matrix(self, abilene, abilene_tm):
        def weights(protocol, **params):
            return _probe(ProtocolSpec.of(protocol, **params), abilene).weights

        assert weights("OSPF") is not None
        assert weights("MinHopOSPF") is not None
        mapping = abilene.weight_dict(invcap_weights(abilene))
        assert weights("OSPF", weights=mapping) is not None
        # Raw link-indexed vectors decline: the cold per-cell path cannot
        # apply them to a pruned failure instance, and the two paths must
        # stay result-equivalent.
        assert weights("OSPF", weights=invcap_weights(abilene)) is None
        # Re-optimising protocols decline, and so does a spec that cannot
        # even be built.
        assert weights("PEFT") is None
        assert weights("FortzThorup") is None
        assert weights("FortzThorup", max_weight=0) is None

    def test_capacity_independence_matrix(self, abilene):
        def independent(protocol, **params):
            return _probe(ProtocolSpec.of(protocol, **params), abilene).capacity_independent

        mapping = abilene.weight_dict(invcap_weights(abilene))
        # Explicit mapping weights and unit weights survive capacity scaling;
        # the InvCap default re-derives and must decline capacity sweeps.
        assert independent("OSPF", weights=mapping)
        assert independent("MinHopOSPF")
        assert not independent("OSPF")
        assert not independent("PEFT")
        assert not independent("FortzThorup", max_weight=0)

    def test_incremental_eligibility_by_scenario_and_protocol(self):
        failure = Scenario("f", failed_links=((1, 2),))
        capacity = Scenario("c", capacity_factors=(((1, 2), 0.5),))
        mixed = Scenario("m", failed_links=((1, 2),), capacity_factors=(((2, 1), 0.5),))
        demandy = Scenario("d", capacity_factors=(((1, 2), 0.5),), demand_scale=2.0)
        assert _incremental_eligible(failure, capacity_independent=False)
        assert _incremental_eligible(failure, capacity_independent=True)
        assert not _incremental_eligible(capacity, capacity_independent=False)
        assert _incremental_eligible(capacity, capacity_independent=True)
        assert not _incremental_eligible(mixed, capacity_independent=False)
        assert _incremental_eligible(mixed, capacity_independent=True)
        assert not _incremental_eligible(demandy, capacity_independent=True)

    def test_evaluate_scenarios_matches_per_cell(self, abilene, abilene_tm):
        scenarios = single_link_failures(abilene) + node_failures(abilene, nodes=[3])
        spec = ProtocolSpec.of("OSPF")
        grouped = evaluate_scenarios(abilene, abilene_tm, scenarios, spec)
        for scenario, result in zip(scenarios, grouped, strict=True):
            cold = evaluate_scenario(abilene, abilene_tm, scenario, spec)
            assert result.as_row() == cold.as_row()
            assert result.error is None

    def test_capacity_sweep_matches_per_cell_and_isolates_errors(self, abilene, abilene_tm):
        """Capacity/mixed cells ride the sweep (MinHop); unknown links fall back."""
        scenarios = (
            capacity_degradations(abilene, count=3, factor=0.5, seed=2)
            + single_link_failures(abilene)[:2]
            + [Scenario("ghost", kind="capacity", capacity_factors=(((999, 1000), 0.5),))]
        )
        spec = ProtocolSpec.of("MinHopOSPF")
        grouped = evaluate_scenarios(abilene, abilene_tm, scenarios, spec)
        for scenario, result in zip(scenarios[:-1], grouped[:-1], strict=True):
            cold = evaluate_scenario(abilene, abilene_tm, scenario, spec)
            assert result.as_row() == cold.as_row(), scenario.scenario_id
            assert result.error is None
            # Incremental cells report construction separately from runtime.
            assert result.setup_runtime >= 0.0
        assert grouped[-1].error is not None and not grouped[-1].feasible
        # The sweep really took the incremental path for the eligible cells:
        # construction was amortised into setup_runtime, not runtime.
        assert any(result.setup_runtime > 0.0 for result in grouped[:-1])

    def test_capacity_scenarios_stay_cold_for_invcap(self, abilene, abilene_tm):
        """InvCap-derived weights keep capacity cells per-cell — and correct."""
        scenarios = capacity_degradations(abilene, count=3, factor=0.5, seed=2)
        spec = ProtocolSpec.of("OSPF")
        grouped = evaluate_scenarios(abilene, abilene_tm, scenarios, spec)
        for scenario, result in zip(scenarios, grouped, strict=True):
            cold = evaluate_scenario(abilene, abilene_tm, scenario, spec)
            assert result.as_row() == cold.as_row()
            assert result.setup_runtime == 0.0

    def test_single_eligible_scenario_matches_cold(self, abilene, abilene_tm):
        """A lone eligible scenario rides the sweep — with the cold results."""
        scenario = single_link_failures(abilene)[0]
        spec = ProtocolSpec.of("OSPF")
        result = evaluate_scenarios(abilene, abilene_tm, [scenario], spec)[0]
        cold = evaluate_scenario(abilene, abilene_tm, scenario, spec)
        assert result.as_row() == cold.as_row()

    def test_bad_scenario_keeps_per_cell_error_isolation(self, abilene, abilene_tm):
        scenarios = single_link_failures(abilene)[:3] + [
            Scenario("ghost", kind="link-failure", failed_links=((999, 1000),))
        ]
        results = evaluate_scenarios(
            abilene, abilene_tm, scenarios, ProtocolSpec.of("OSPF")
        )
        assert [r.error is None for r in results] == [True, True, True, False]
        assert not results[-1].feasible

    def test_cache_keys_distinguish_incremental_from_cold(self):
        args = ("net-fp", "demands-fp", "scenario-fp", "protocol-fp")
        cold_key = cell_key(*args)
        incremental_key = cell_key(*args, {"route": "incremental"})
        assert cold_key != incremental_key
        assert cell_key(*args, None) == cold_key
        assert cell_key(*args, {"route": "incremental"}) == incremental_key

    def test_batch_runner_caches_incremental_sweeps(self, tmp_path, abilene, abilene_tm):
        runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
        scenarios = single_link_failures(abilene)
        first = runner.run(abilene, abilene_tm, scenarios, ["OSPF"])
        assert runner.last_stats.cache_hits == 0
        second = runner.run(abilene, abilene_tm, scenarios, ["OSPF"])
        assert runner.last_stats.cache_hits == len(scenarios)
        assert [r.as_row() for r in first] == [r.as_row() for r in second]

    def test_batch_runner_caches_capacity_sweeps_route_flagged(
        self, tmp_path, abilene, abilene_tm
    ):
        """Capacity cells hit route-flagged keys for MinHop, cold keys for InvCap."""
        runner = BatchRunner(max_workers=0, results_store=tmp_path / "r.sqlite")
        scenarios = capacity_degradations(abilene, count=3, factor=0.5, seed=5)
        first = runner.run(abilene, abilene_tm, scenarios, ["MinHopOSPF"])
        assert runner.last_stats.cache_hits == 0
        second = runner.run(abilene, abilene_tm, scenarios, ["MinHopOSPF"])
        assert runner.last_stats.cache_hits == len(scenarios)
        assert [r.as_row() for r in first] == [r.as_row() for r in second]
        # The same scenarios under InvCap OSPF are a *different* (cold-path)
        # key space: no collisions with the incremental entries.
        runner.run(abilene, abilene_tm, scenarios, ["OSPF"])
        assert runner.last_stats.cache_hits == 0


# ----------------------------------------------------------------------
# dirty-row loads
# ----------------------------------------------------------------------
class TestDeltaLoads:
    def test_event_by_event_loads_match_fresh_controller(self, abilene, abilene_tm):
        """The dirty-row loads equal a fresh controller after every event."""
        controller = TEController(abilene, abilene_tm)
        failed: list = []
        for edge in [abilene.links[3].endpoints, abilene.links[11].endpoints]:
            controller.apply(LinkFailure(link=edge))
            failed.append(edge)
            fresh = TEController(abilene, abilene_tm)
            for down in failed:
                fresh.apply(LinkFailure(link=down))
            np.testing.assert_allclose(
                controller.link_loads(), fresh.link_loads(), atol=TOLERANCE, rtol=0
            )
        # Recovery walks the same path in reverse.
        controller.apply(LinkRecovery(link=failed.pop()))
        fresh = TEController(abilene, abilene_tm)
        fresh.apply(LinkFailure(link=failed[0]))
        np.testing.assert_allclose(
            controller.link_loads(), fresh.link_loads(), atol=TOLERANCE, rtol=0
        )


class TestAtomicity:
    @pytest.mark.parametrize(
        "event",
        [
            LinkFailure(link=(1, 99)),
            LinkRecovery(link=(99, 1)),
            LinkWeightChange(link=(1, 2), weight=-1.0),
            LinkWeightChange(link=(1, 2), weight=float("nan")),
            CapacityChange(link=(1, 99), capacity=0.0),
            DemandUpdate(source=1, target=99, volume=1.0),
            DemandUpdate(source=3, target=3, volume=0.0),
        ],
        ids=lambda event: f"{event.kind}-{getattr(event, 'link', None) or event.target}",
    )
    def test_rejected_event_leaves_state_untouched(self, abilene, abilene_tm, event):
        """An event that raises changes no weight, link, dirty row or measurement."""
        controller = TEController(abilene, abilene_tm)
        controller.measure()
        # Leave some rows dirty, so the check covers pending work too.
        controller.apply(LinkFailure(link=abilene.links[0].endpoints))
        spt = controller.spt
        before = (
            spt.weights, spt.active_mask, set(spt._dirty), set(controller._stale),
            dict(controller.demands.items()), controller.capacities.copy(),
        )
        with pytest.raises((EventError, NetworkError)):
            controller.apply(event)
        after = (
            spt.weights, spt.active_mask, set(spt._dirty), set(controller._stale),
            dict(controller.demands.items()), controller.capacities.copy(),
        )
        for old, new in zip(before, after, strict=True):
            assert np.array_equal(old, new) if isinstance(old, np.ndarray) else old == new
        reference = TEController(abilene, abilene_tm)
        reference.apply(LinkFailure(link=abilene.links[0].endpoints))
        measured, expected = controller.measure(), reference.measure()
        np.testing.assert_array_equal(measured.loads, expected.loads)
        assert measured.dropped_pairs == expected.dropped_pairs
        assert measured.routed_volume == expected.routed_volume


class TestSetupAmortisation:
    def test_parallel_setup_runtime_sums_to_run_setup_seconds(self, abilene, abilene_tm):
        """Invariant: per-cell setup shares add up to the run's setup clock."""
        runner = BatchRunner(max_workers=2)
        results = runner.run(
            abilene, abilene_tm, single_link_failures(abilene), ["OSPF"]
        )
        stats = runner.last_stats
        assert stats.workers == 2 and stats.cache_hits == 0
        assert stats.setup_seconds == pytest.approx(
            sum(result.setup_runtime for result in results), rel=1e-9
        )
        assert all(result.error is None for result in results)

    def test_lone_candidate_rides_incremental_sweep(self, abilene, abilene_tm):
        """One eligible scenario builds its own controller, matching cold."""
        spec = ProtocolSpec.of("OSPF")
        scenario = single_link_failures(abilene)[0]
        swept = evaluate_scenarios(abilene, abilene_tm, [scenario], spec)[0]
        cold = evaluate_scenario(abilene, abilene_tm, scenario, spec)
        # The controller build is charged to setup_runtime; a cold cell has none.
        assert cold.setup_runtime == 0.0
        assert swept.setup_runtime > 0.0
        assert swept.error is None
        assert swept.mlu == pytest.approx(cold.mlu, abs=TOLERANCE)
        assert swept.utility == pytest.approx(cold.utility, abs=TOLERANCE)
        assert swept.dropped_volume == pytest.approx(cold.dropped_volume, abs=TOLERANCE)

    def test_sharded_parallel_sweep_recomputes_the_serial_rows(self, abilene, abilene_tm):
        """Chunks that each build their controller do the serial run's SPT work."""
        from repro.obs import telemetry

        scenarios = single_link_failures(abilene)[:4]
        counts = []
        for runner in (BatchRunner(max_workers=0), BatchRunner(max_workers=2, chunk_size=1)):
            with telemetry.session(label="sweep") as registry:
                results = runner.run(abilene, abilene_tm, scenarios, ["OSPF"])
            assert all(result.error is None for result in results)
            counts.append(
                (
                    registry.counter_value("dspt.events"),
                    registry.counter_value("dspt.update", path="incremental"),
                    [result.as_row() for result in results],
                )
            )
        assert runner.last_stats.workers == 2 and runner.last_stats.chunks == 4
        assert counts[0][0] > 0 and counts[0][1] > 0
        assert counts[1] == counts[0]
