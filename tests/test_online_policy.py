"""Closed-loop reoptimization policies on a session's simulator replay.

Pins the policy semantics (hold timers are simulated-time events, breaches
that heal cost nothing, the oracle reoptimizes every event) and the replay
integration (reoptimizations fold into the session rows and the per-outage
sustained rows).
"""

from __future__ import annotations

import pytest

from repro.online import (
    ClosedLoopPolicy,
    ControllerSession,
    LinkFailure,
    LinkRecovery,
    OraclePolicy,
    TEController,
    failure_recovery_trace,
    replay_failure_trace,
)
from repro.online.policy import POLICY_FACTORIES
from repro.protocols.fortz_thorup import FortzThorup
from repro.scenarios import single_link_failures
from repro.simulator.events import Simulator
from repro.topology.backbones import abilene_network
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix


@pytest.fixture(scope="module")
def workload():
    network = abilene_network()
    demands = abilene_traffic_matrix(network, total_volume=1.0, seed=1).scaled(
        0.15 * network.total_capacity()
    )
    return network, demands


def small_optimizer():
    return FortzThorup(restarts=1, seed=0, max_evaluations=60)


def make_policy(**overrides):
    defaults = dict(
        target_mlu=0.95, hold=30.0, optimizer_factory=small_optimizer
    )
    defaults.update(overrides)
    return ClosedLoopPolicy(**defaults)


class TestClosedLoopPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopPolicy(target_mlu=0.0)
        with pytest.raises(ValueError):
            ClosedLoopPolicy(target_mlu=0.9, hold=-1.0)
        with pytest.raises(ValueError):
            ClosedLoopPolicy(target_mlu=0.9, cooldown=-1.0)

    def test_sustained_breach_triggers_after_hold(self, workload):
        network, demands = workload
        policy = make_policy()
        session = ControllerSession(network, demands, policy=policy)
        # link:1-2 degrades the MLU above the 0.95 target (see the online
        # controller benchmark) and never heals within this trace.
        trace = [
            LinkFailure(time=10.0, link=(1, 2)),
            LinkFailure(time=10.0, link=(2, 1)),
        ]
        session.replay(trace)
        assert policy.reoptimizations == 1
        decision = policy.decisions[0]
        assert decision.time == pytest.approx(40.0)  # breach at 10 + hold 30
        assert decision.trigger == "hold-expired"
        assert decision.mlu_after < decision.mlu_before
        assert decision.improved

    def test_breach_that_heals_within_hold_costs_nothing(self, workload):
        network, demands = workload
        # Target above the healed baseline (~0.997) but below the degraded
        # MLU (~1.019): only the outage window breaches.
        policy = make_policy(target_mlu=1.0, hold=50.0)
        session = ControllerSession(network, demands, policy=policy)
        trace = [
            LinkFailure(time=10.0, link=(1, 2)),
            LinkFailure(time=10.0, link=(2, 1)),
            LinkRecovery(time=30.0, link=(1, 2)),
            LinkRecovery(time=30.0, link=(2, 1)),
        ]
        session.replay(trace)
        assert policy.reoptimizations == 0

    def test_direct_feed_honours_cooldown(self, workload):
        """Without a simulator, the cooldown still throttles event storms."""
        network, demands = workload
        controller = TEController(network, demands)
        # Target far below anything attainable: every observation breaches.
        policy = make_policy(target_mlu=0.3, hold=0.0, cooldown=100.0).attach(
            controller, simulator=None
        )
        for t in (1.0, 2.0, 3.0):
            update = controller.apply(LinkFailure(time=t, link=(1, 2)))
            policy.observe(controller, update)
            controller.apply(LinkRecovery(time=t, link=(1, 2)))
        # Only the first breach could reoptimize inside the 100 s cooldown.
        assert policy.reoptimizations == 1

    def test_unattainable_target_terminates(self, workload):
        """A breach the search cannot clear must not self-schedule forever."""
        network, demands = workload

        class CappedSimulator(Simulator):
            """Stops after 50 callbacks: a runaway re-arm fails, not hangs."""

            def run(self, until=None, max_events=None):
                super().run(until, max_events=50)

        simulator = CappedSimulator()
        # Far below the baseline MLU: every state breaches, no weight
        # setting can fix it.
        policy = make_policy(target_mlu=0.05, hold=5.0)
        session = ControllerSession(network, demands, policy=policy)
        trace = [LinkFailure(time=1.0, link=(1, 2))]
        session.replay(trace, simulator)
        assert simulator.pending() == 0  # terminated, no runaway re-arm
        assert policy.reoptimizations == 1

    def test_registry_names(self):
        assert set(POLICY_FACTORIES) == {"closed-loop", "oracle"}


class TestOraclePolicy:
    def test_reoptimizes_every_event(self, workload):
        network, demands = workload
        policy = OraclePolicy(optimizer_factory=small_optimizer)
        session = ControllerSession(network, demands, policy=policy)
        trace = [
            LinkFailure(time=1.0, link=(1, 2)),
            LinkRecovery(time=2.0, link=(1, 2)),
        ]
        session.replay(trace)
        assert policy.reoptimizations == len(trace)
        assert all(d.trigger == "every-event" for d in policy.decisions)


class TestReplayIntegration:
    def test_policy_folds_into_outage_rows(self, workload):
        network, demands = workload
        scenarios = [
            s for s in single_link_failures(network) if s.scenario_id == "link:1-2"
        ]
        plain = replay_failure_trace(network, demands, scenarios, period=600, outage=300)
        policy = make_policy(cooldown=600.0)
        looped = replay_failure_trace(
            network, demands, scenarios, period=600, outage=300, policy=policy
        )
        assert plain.reoptimizations == 0
        assert looped.reoptimizations >= 1
        assert looped.policy is policy
        # The sustained row reflects the post-reoptimization state.
        assert looped.outages[0].reoptimizations >= 1
        assert looped.outages[0].mlu < plain.outages[0].mlu
        assert any(row["kind"] == "reoptimize" for row in looped.session.rows)
        # Rows expose the count for the results store.
        assert looped.outages[0].as_row()["reoptimizations"] >= 1

    def test_processed_events_counts_network_events_only(self, workload):
        """Policy hold timers and reoptimizations are not trace events."""
        network, demands = workload
        scenarios = single_link_failures(network)[:3]
        trace = failure_recovery_trace(network, scenarios, period=600, outage=300)
        policy = make_policy(target_mlu=0.5)
        replay = replay_failure_trace(
            network, demands, scenarios, period=600, outage=300, policy=policy
        )
        assert replay.reoptimizations == len(policy.decisions) >= 1
        assert replay.processed_events == len(trace)
        rows = replay.session.rows
        assert len(rows) == len(trace) + replay.reoptimizations
