"""Unit tests for shortest-path traffic assignment (AON and even ECMP)."""

import numpy as np
import pytest
import routing_oracle as oracle

from repro.network.demands import TrafficMatrix
from repro.network.spt import UnreachableError, all_shortest_path_dags
from repro.solvers.assignment import (
    all_or_nothing_assignment,
    ecmp_assignment,
    split_ratio_assignment,
)


class TestEcmpAssignment:
    def test_even_split_on_diamond(self, diamond_network, diamond_demands):
        flows = ecmp_assignment(diamond_network, diamond_demands, np.ones(4))
        assert flows.flow_on(1, 2) == pytest.approx(4.0)
        assert flows.flow_on(1, 3) == pytest.approx(4.0)
        flows.validate(diamond_demands)

    def test_single_path_when_weights_differ(self, diamond_network, diamond_demands):
        weights = {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 3.0, (3, 4): 3.0}
        flows = ecmp_assignment(diamond_network, diamond_demands, weights)
        assert flows.flow_on(1, 2) == pytest.approx(8.0)
        assert flows.flow_on(1, 3) == pytest.approx(0.0)

    def test_transit_traffic_split_downstream(self, fig4, fig4_tm):
        flows = ecmp_assignment(fig4, fig4_tm, np.ones(fig4.num_links))
        # ECMP may overload links (that is OSPF's whole problem), but the
        # routing must still conserve flow.
        assert flows.conservation_violation(fig4_tm) == pytest.approx(0.0, abs=1e-9)
        # All demand must leave node 1 (12 units over its out links).
        out_total = sum(flows.flow_on(1, v) for v in fig4.neighbors(1))
        assert out_total == pytest.approx(12.0)

    def test_unreachable_demand_raises(self, line_network):
        demands = TrafficMatrix({(4, 1): 1.0})
        with pytest.raises(UnreachableError):
            ecmp_assignment(line_network, demands, np.ones(3))

    def test_conserves_total_demand(self, fig1, fig1_tm):
        flows = ecmp_assignment(fig1, fig1_tm, np.ones(4))
        flows.validate(fig1_tm)
        # Flow into node 3 for destination 3 equals the demand toward 3.
        into_3 = flows.flow_on(1, 3, destination=3) + flows.flow_on(2, 3, destination=3)
        assert into_3 == pytest.approx(1.0)


class TestAllOrNothing:
    def test_no_splitting(self, diamond_network, diamond_demands):
        flows = all_or_nothing_assignment(diamond_network, diamond_demands, np.ones(4))
        loads = sorted(
            [flows.flow_on(1, 2), flows.flow_on(1, 3)], reverse=True
        )
        assert loads[0] == pytest.approx(8.0)
        assert loads[1] == pytest.approx(0.0)
        flows.validate(diamond_demands)

    def test_deterministic(self, fig4, fig4_tm):
        weights = np.ones(fig4.num_links)
        first = all_or_nothing_assignment(fig4, fig4_tm, weights).aggregate()
        second = all_or_nothing_assignment(fig4, fig4_tm, weights).aggregate()
        assert np.allclose(first, second)

    def test_respects_weights(self, fig1, fig1_tm):
        # Force the 1->3 demand onto the detour 1-2-3 by making (1,3) costly.
        weights = {(1, 3): 10.0, (3, 4): 1.0, (1, 2): 1.0, (2, 3): 1.0}
        flows = all_or_nothing_assignment(fig1, fig1_tm, weights)
        assert flows.flow_on(1, 2) == pytest.approx(1.0)
        assert flows.flow_on(1, 3) == pytest.approx(0.0)

    def test_unreachable_raises(self, line_network):
        demands = TrafficMatrix({(3, 1): 1.0})
        with pytest.raises(UnreachableError):
            all_or_nothing_assignment(line_network, demands, np.ones(3))


class TestSplitRatioAssignment:
    def test_explicit_ratios(self, diamond_network, diamond_demands):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        ratios = {4: {1: {2: 0.75, 3: 0.25}}}
        flows = split_ratio_assignment(diamond_network, diamond_demands, dags, ratios)
        assert flows.flow_on(1, 2) == pytest.approx(6.0)
        assert flows.flow_on(1, 3) == pytest.approx(2.0)
        flows.validate(diamond_demands)

    def test_missing_ratios_fall_back_to_even(self, diamond_network, diamond_demands):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        flows = split_ratio_assignment(diamond_network, diamond_demands, dags, {})
        assert flows.flow_on(1, 2) == pytest.approx(4.0)

    def test_missing_dag_raises(self, diamond_network, diamond_demands):
        no_dags = all_shortest_path_dags(diamond_network, [], np.ones(4))
        with pytest.raises(UnreachableError):
            split_ratio_assignment(diamond_network, diamond_demands, no_dags, {})

    def test_ratios_renormalised(self, diamond_network, diamond_demands):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        # Ratios not summing to one are normalised over the DAG's next hops.
        ratios = {4: {1: {2: 3.0, 3: 1.0}}}
        flows = split_ratio_assignment(diamond_network, diamond_demands, dags, ratios)
        assert flows.flow_on(1, 2) == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "route", [oracle.split_ratio_assignment, split_ratio_assignment], ids=["python", "sparse"]
    )
    def test_degenerate_stored_ratios_warn_and_fall_back_evenly(
        self, diamond_network, diamond_demands, route, caplog
    ):
        """Stored-but-zero ratios are no longer a *silent* renormalisation.

        The traffic is still delivered with an even split (dropping it would
        be worse), but the fallback is logged so broken split configurations
        surface instead of hiding behind plausible-looking flows.
        """
        import logging

        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        ratios = {4: {1: {2: 0.0, 3: 0.0}}}
        with caplog.at_level(logging.WARNING, logger="repro.routing.compiled"):
            flows = route(diamond_network, diamond_demands, dags, ratios)
        assert flows.flow_on(1, 2) == pytest.approx(4.0)
        assert flows.flow_on(1, 3) == pytest.approx(4.0)
        warnings = [r for r in caplog.records if "falling back to an even split" in r.message]
        assert len(warnings) == 1

    @pytest.mark.parametrize(
        "route", [oracle.split_ratio_assignment, split_ratio_assignment], ids=["python", "sparse"]
    )
    def test_degenerate_ratios_at_unloaded_node_stay_silent(
        self, diamond_network, route, caplog
    ):
        """No traffic through the degenerate node -> no warning (oracle parity).

        The oracle only normalises (and hence only warns) for nodes that
        actually carry load; the kernel defers its warning until
        after propagation for the same reason.
        """
        import logging

        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        # Demand enters at 2, so node 1 (which holds the broken ratios)
        # never carries traffic towards 4.
        demands = TrafficMatrix({(2, 4): 5.0})
        ratios = {4: {1: {2: 0.0, 3: 0.0}}}
        with caplog.at_level(logging.WARNING, logger="repro.routing.compiled"):
            flows = route(diamond_network, demands, dags, ratios)
        assert flows.flow_on(2, 4) == pytest.approx(5.0)
        assert not caplog.records

    @pytest.mark.parametrize(
        "route", [oracle.split_ratio_assignment, split_ratio_assignment], ids=["python", "sparse"]
    )
    def test_absent_node_ratios_fall_back_silently(
        self, diamond_network, diamond_demands, route, caplog
    ):
        """Nodes simply missing from the mapping keep the quiet even split.

        Omitting single-next-hop nodes is the documented, intended shorthand;
        only *stored* ratios that turn out degenerate deserve a warning.
        """
        import logging

        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        with caplog.at_level(logging.WARNING, logger="repro.routing.compiled"):
            flows = route(diamond_network, diamond_demands, dags, {4: {}})
        assert flows.flow_on(1, 2) == pytest.approx(4.0)
        assert not caplog.records
