"""ControllerSession: the feed/read/subscribe API and the event wire schema.

Pins the contracts the serve daemon is built on: the wire-schema dict
round trip and its strict validation, line-numbered trace-file errors,
feed-vs-simulator bit-for-bit equivalence, counters kept next to the rows,
the byte-stable state-dump round trip, and the ``replay_failure_trace``
batch driver.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.online import (
    CapacityChange,
    ClosedLoopPolicy,
    ControllerSession,
    DemandUpdate,
    LinkFailure,
    LinkRecovery,
    LinkWeightChange,
    NetworkEvent,
    TraceFormatError,
    failure_recovery_trace,
    from_dict,
    parse_event_line,
    read_event_trace,
    replay_failure_trace,
    to_dict,
    write_event_trace,
)
from repro.online.events import EventError
from repro.online.session import ROW_DECIMALS, measurement_row
from repro.protocols.fortz_thorup import FortzThorup
from repro.scenarios import single_link_failures
from repro.serve.wire import dumps_state
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


def fresh_session(workload, **kwargs):
    network, demands = workload
    return ControllerSession(network, demands, **kwargs)


def abilene_trace(network, count=3, period=600.0, outage=300.0):
    scenarios = single_link_failures(network)[:count]
    return scenarios, failure_recovery_trace(
        network, scenarios, period=period, outage=outage
    )


# ----------------------------------------------------------------------
# wire schema
# ----------------------------------------------------------------------
class TestWireSchema:
    EVENTS = [
        NetworkEvent(time=1.0),
        LinkFailure(link=("a", "b"), time=2.0),
        LinkRecovery(link=("a", "b"), time=3.0),
        LinkWeightChange(link=("a", "b"), weight=4.0, time=5.0),
        CapacityChange(link=("a", "b"), capacity=6.0, time=7.0),
        DemandUpdate(source="a", target="b", volume=8.0, time=9.0),
    ]

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_round_trip(self, event):
        payload = to_dict(event)
        assert payload["v"] == 1
        assert payload["event"] == event.kind
        restored = from_dict(payload)
        assert type(restored) is type(event)
        assert to_dict(restored) == payload

    def test_round_trip_survives_json(self):
        event = LinkWeightChange(link=("SNVAng", "STTLng"), weight=3.5, time=12.0)
        assert from_dict(json.loads(json.dumps(to_dict(event)))) == event

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"event": "link-failure", "time": 0.0, "link": ["a", "b"], "v": 9},
             "wire version"),
            ({"v": 1, "time": 0.0}, "unknown event kind"),
            ({"v": 1, "event": "nope", "time": 0.0}, "unknown event kind"),
            ({"v": 1, "event": "link-failure", "time": 0.0}, "missing field"),
            ({"v": 1, "event": "link-failure", "time": 0.0, "link": ["a", "b"],
              "extra": 1}, "unexpected field"),
            ({"v": 1, "event": "link-failure", "time": 0.0, "link": ["a"]},
             "link"),
            ({"v": 1, "event": "noop", "time": "later"}, "time"),
        ],
    )
    def test_strict_validation(self, payload, message):
        with pytest.raises(EventError, match=message):
            from_dict(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(EventError):
            from_dict(["not", "a", "dict"])


# ----------------------------------------------------------------------
# trace files
# ----------------------------------------------------------------------
class TestTraceFiles:
    def test_write_read_round_trip(self, tmp_path):
        events = [
            LinkFailure(link=(1, 2), time=0.0),
            LinkRecovery(link=(1, 2), time=300.0),
        ]
        path = tmp_path / "trace.jsonl"
        assert write_event_trace(path, events) == 2
        restored = read_event_trace(path)
        # Node names stringify on the wire; kinds, times and shape survive.
        assert [e.kind for e in restored] == [e.kind for e in events]
        assert [e.time for e in restored] == [e.time for e in events]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"v": 1, "event": "noop", "time": 0.0}\n'
            "\n"
            "not json\n"
        )
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:3: invalid JSON"):
            read_event_trace(path)

    def test_invalid_event_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "event": "link-failure", "time": 0.0}\n')
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:1: .*missing field"):
            read_event_trace(path)

    def test_empty_trace_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(TraceFormatError, match="no events"):
            read_event_trace(path)

    def test_parse_event_line_names_the_source(self):
        with pytest.raises(TraceFormatError, match="<socket>:7"):
            parse_event_line("{broken", 7, source="<socket>")


# ----------------------------------------------------------------------
# feed / read state / subscribe
# ----------------------------------------------------------------------
class TestControllerSession:
    def test_key_defaults_to_topology_name(self, workload):
        session = fresh_session(workload)
        assert session.key == workload[0].name
        assert fresh_session(workload, key="tenant-1").key == "tenant-1"

    def test_feed_matches_simulator_replay_bit_for_bit(self, workload):
        network, _ = workload
        _, trace = abilene_trace(network)
        fed = fresh_session(workload)
        fed.feed_many(trace)
        replayed = fresh_session(workload)
        replayed.replay(trace)
        assert fed.event_rows() == replayed.event_rows()

    def test_replay_runs_trace_through_simulator(self, workload):
        network, _ = workload
        session = fresh_session(workload)
        baseline = session.baseline
        scenarios = single_link_failures(network)[:3]
        trace = failure_recovery_trace(network, scenarios, period=10.0, outage=5.0)
        simulator = Simulator()
        timeline = []
        session.subscribe(lambda s, when, kind, m: timeline.append((when, s.mlu())))
        session.replay(trace, simulator)
        assert session.processed_events == len(trace)
        assert simulator.processed_events == len(trace)
        assert len(timeline) == len(trace)
        # After every outage healed, the controller is back at baseline.
        assert timeline[-1][1] == pytest.approx(baseline.mlu, abs=1e-9)
        assert max(t for t, _ in timeline) == trace[-1].time

    def test_measurement_row_is_rounded(self, workload):
        session = fresh_session(workload)
        row = measurement_row(0, 1.0, "noop", session.measure())
        assert row["mlu"] == round(row["mlu"], ROW_DECIMALS)
        assert set(row) == {
            "seq", "time", "kind", "mlu", "utility", "routed", "dropped", "connected",
        }

    def test_subscribe_and_unsubscribe(self, workload):
        network, _ = workload
        _, trace = abilene_trace(network, count=1)
        session = fresh_session(workload)
        seen = []
        unsubscribe = session.subscribe(
            lambda s, when, kind, m: seen.append((when, kind))
        )
        session.feed(trace[0])
        assert seen == [(trace[0].time, trace[0].kind)]
        unsubscribe()
        session.feed(trace[1])
        assert len(seen) == 1

    def test_forwarding_shape(self, workload):
        network, demands = workload
        session = fresh_session(workload)
        destination = next(iter(demands.items()))[0][1]
        table = session.forwarding(destination)
        assert table["destination"] == str(destination)
        assert table["nodes"]
        for entry in table["nodes"].values():
            assert entry["next_hops"] == sorted(entry["next_hops"])
            assert entry["split"] == pytest.approx(1.0 / len(entry["next_hops"]))

    def test_forwarding_unknown_destination(self, workload):
        session = fresh_session(workload)
        with pytest.raises(EventError, match="unknown destination"):
            session.forwarding("not-a-node")

    def test_status_and_counters(self, workload):
        network, _ = workload
        _, trace = abilene_trace(network, count=2)
        session = fresh_session(workload)
        failures = [e for e in trace if e.kind == "link-failure" and e.time == 0.0]
        session.feed_many(failures)
        status = session.status()
        assert status["topology"] == network.name
        assert status["events"] == session.processed_events
        assert status["failed_links"]  # the t=0 outage has not healed yet
        counters = session.counters()
        assert counters["events"] == session.processed_events
        assert sum(counters["events_by_kind"].values()) == counters["events"]

    def test_counters_match_a_recount_of_the_rows(self, workload):
        """Events, policy and offline reoptimizations: the counters are the rows'."""
        network, _ = workload
        _, trace = abilene_trace(network, count=2)

        def optimizer():
            return FortzThorup(restarts=1, seed=0, max_evaluations=30)

        # Without a simulator the policy reacts to the first breaching event.
        policy = ClosedLoopPolicy(target_mlu=0.05, optimizer_factory=optimizer, cooldown=1e9)
        session = fresh_session(workload, policy=policy)
        session.feed_many(trace[:2])
        session.reoptimize_offline(optimizer=optimizer())
        session.feed_many(trace[2:])
        rows = session.rows
        assert [row["seq"] for row in rows] == list(range(len(rows)))
        kinds = Counter(row["kind"] for row in rows)
        reoptimizations = kinds.pop("reoptimize")
        assert reoptimizations == len(policy.decisions) + 1 == 2
        counters = session.counters()
        assert counters["events"] == sum(kinds.values()) == len(trace)
        assert counters["events_by_kind"] == dict(sorted(kinds.items()))
        assert counters["reoptimizations"] == reoptimizations
        status = session.status()
        assert (status["events"], status["reoptimizations"]) == (len(trace), 2)

    def test_failed_reoptimize_leaves_session_untouched(self, workload):
        """An optimizer that raises changes no weight, row or counter."""
        network, _ = workload
        _, trace = abilene_trace(network, count=2)

        class Broken:
            def optimize(self, network, demands, warm_start=None):
                raise RuntimeError("search failed")

        session = fresh_session(workload)
        session.feed_many(trace[:2])
        weights = session.controller.weights
        rows = [dict(row) for row in session.rows]
        counters = session.counters()
        with pytest.raises(RuntimeError, match="search failed"):
            session.reoptimize_offline(optimizer=Broken())
        assert (session.controller.weights == weights).all()
        assert session.rows == rows
        assert session.counters() == counters
        reference = fresh_session(workload)
        reference.feed_many(trace[:2])
        assert session.feed(trace[2]).loads.tolist() == reference.feed(trace[2]).loads.tolist()
        assert session.rows == reference.rows


# ----------------------------------------------------------------------
# state dump
# ----------------------------------------------------------------------
class TestStateDump:
    def test_round_trip_is_byte_stable(self, workload):
        network, _ = workload
        _, trace = abilene_trace(network, count=2)
        session = fresh_session(workload)
        session.feed_many(trace[:3])  # leave failures outstanding
        dump = session.state_dump()
        assert dump["schema"] == 1
        assert dump["state"]["failed_links"]
        restored = ControllerSession.from_state_dump(abilene_network(), dump)
        assert dumps_state(restored.state_dump()["state"]) == dumps_state(
            dump["state"]
        )
        assert restored.measure().mlu == pytest.approx(
            session.measure().mlu, rel=1e-12
        )

    def test_restored_session_keeps_absorbing_events(self, workload):
        network, _ = workload
        _, trace = abilene_trace(network, count=2)
        session = fresh_session(workload)
        session.feed_many(trace[:3])
        restored = ControllerSession.from_state_dump(
            abilene_network(), session.state_dump()
        )
        for event, mlu in zip(
            trace[3:], [m.mlu for m in session.feed_many(trace[3:])], strict=True
        ):
            assert restored.feed(event).mlu == pytest.approx(mlu, rel=1e-12)

    def test_wrong_topology_rejected(self, workload, diamond_network):
        session = fresh_session(workload)
        with pytest.raises(EventError, match="does not match"):
            ControllerSession.from_state_dump(diamond_network, session.state_dump())

    def test_wrong_schema_rejected(self, workload):
        session = fresh_session(workload)
        dump = session.state_dump()
        dump["schema"] = 99
        with pytest.raises(EventError, match="schema"):
            ControllerSession.from_state_dump(abilene_network(), dump)


# ----------------------------------------------------------------------
# the thin batch driver
# ----------------------------------------------------------------------
class TestReplayShim:
    def test_replay_uses_prebuilt_session(self, workload):
        network, demands = workload
        scenarios, _ = abilene_trace(network)
        session = fresh_session(workload)
        result = replay_failure_trace(
            network, demands, scenarios[:1], session=session
        )
        assert result.session is session
        assert result.controller is session.controller
        assert result.processed_events == session.processed_events == 4
        assert result.outages

    def test_foreign_policy_alongside_session_rejected(self, workload):
        network, demands = workload
        scenarios, _ = abilene_trace(network)
        with pytest.raises(ValueError, match="policy"):
            replay_failure_trace(
                network,
                demands,
                scenarios[:1],
                policy=object(),
                session=fresh_session(workload),
            )
