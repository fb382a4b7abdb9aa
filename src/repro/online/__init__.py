"""Online traffic engineering: incremental routing state under event streams.

Everything elsewhere in the library answers *"what does this protocol do on
this instance?"* from scratch.  This package answers *"the network just
changed — what now?"* with bounded, incremental work:

* :mod:`~repro.online.events` — the event vocabulary (link failure and
  recovery, weight/capacity changes, demand updates) plus converters from
  the scenario engine's failure generators to event streams;
* :mod:`~repro.online.dspt` — :class:`DynamicSPT`, per-destination
  distances and DAG masks whose rows an event marks dirty and the next read
  rebuilds with the library's one shortest-path builder;
* :mod:`~repro.online.controller` — :class:`TEController`, the facade that
  re-propagates only the dirty rows' loads and runs warm-started
  reoptimization;
* :mod:`~repro.online.session` — :class:`ControllerSession`, one controller
  plus an optional :mod:`~repro.online.policy` behind the feed/read/
  subscribe API that ``repro serve`` and the batch replay
  (:mod:`~repro.online.replay`) both drive; its per-event rows are its
  only history.

The scenario runner's failure and brown-out sweeps ride
:meth:`TEController.sweep_scenarios` automatically (see
:mod:`repro.scenarios.runner`); ``benchmarks/test_online_controller.py``
tracks the resulting speedup as the ``BENCH_online.json`` artifact.
"""

from .controller import (
    ControllerMeasurement,
    ControllerUpdate,
    TEController,
)
from .dspt import DsptStats, DynamicSPT, publish_dspt_counters, snapshot_stats
from .policy import ClosedLoopPolicy, OraclePolicy, PolicyDecision
from .replay import (
    OutageRow,
    ReplayResult,
    outage_rows,
    replay_event_trace,
    replay_failure_trace,
)
from .session import ControllerSession, measurement_row
from .events import (
    WIRE_VERSION,
    CapacityChange,
    DemandUpdate,
    EventError,
    LinkFailure,
    LinkRecovery,
    LinkWeightChange,
    NetworkEvent,
    TraceFormatError,
    failure_events,
    failure_recovery_trace,
    from_dict,
    is_incremental_sweepable,
    is_pure_failure,
    parse_event_line,
    read_event_trace,
    recovery_events,
    scenario_events,
    scenario_failed_edges,
    to_dict,
    write_event_trace,
)

__all__ = [
    "CapacityChange",
    "ClosedLoopPolicy",
    "ControllerMeasurement",
    "ControllerSession",
    "ControllerUpdate",
    "DemandUpdate",
    "DsptStats",
    "DynamicSPT",
    "EventError",
    "LinkFailure",
    "LinkRecovery",
    "LinkWeightChange",
    "NetworkEvent",
    "OraclePolicy",
    "OutageRow",
    "PolicyDecision",
    "TraceFormatError",
    "WIRE_VERSION",
    "publish_dspt_counters",
    "snapshot_stats",
    "ReplayResult",
    "replay_event_trace",
    "replay_failure_trace",
    "TEController",
    "failure_events",
    "failure_recovery_trace",
    "from_dict",
    "is_incremental_sweepable",
    "is_pure_failure",
    "measurement_row",
    "outage_rows",
    "parse_event_line",
    "read_event_trace",
    "recovery_events",
    "scenario_events",
    "scenario_failed_edges",
    "to_dict",
    "write_event_trace",
]
