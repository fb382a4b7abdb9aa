"""Which public functions each layer is timed at, and the per-layer metrics.

Every workload's traced run installs the same wrappers; a layer a workload
bypasses simply reports zero, which is the benchmark's prediction for it.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from tracer import Tracer


def _count_solver(prefix: str):
    def observe(tracer: Tracer, _args: tuple, result: Any) -> None:
        tracer.counts[f"{prefix}.iterations"] += int(result.iterations)
        tracer.counts[f"{prefix}.converged"] += int(bool(result.converged))

    return observe


def _apply_span(_controller: Any, event: Any, *_rest: Any, **_kw: Any) -> str:
    kind = type(event).__name__
    if kind == "LinkFailure":
        return "online.apply_fail"
    if kind == "LinkRecovery":
        return "online.apply_recover"
    return "online.apply_other"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    patch = tracer.patch
    # solvers / core (the SPEF pipeline)
    patch("repro.core.te_problem", "solve_frank_wolfe", "solvers.fw",
          _count_solver("solvers.fw"))
    patch("repro.solvers.frank_wolfe", "solve_min_mlu", "solvers.lp")
    patch("repro.solvers.frank_wolfe", "all_or_nothing_assignment", "solvers.aon")
    patch("repro.core.spef", "all_shortest_path_dags", "core.dags")
    patch("repro.core.spef", "compute_second_weights", "core.nem",
          _count_solver("core.nem"))
    patch("repro.core.spef", "build_forwarding_tables", "core.forwarding")
    patch("repro.core.nem", "traffic_distribution", "routing.distribute")
    patch("repro.routing.sparse:CompiledDagSet", "traffic_distribution", "routing.distribute")
    # cold SPT, as the routing code sees it
    patch("repro.solvers.assignment", "shortest_path_dag", "network.spt.dag")
    patch("repro.routing.sparse", "shortest_path_dag", "network.spt.dag")
    # scenarios / protocols
    patch("repro.scenarios.scenario:Scenario", "apply", "scenarios.apply")
    patch("repro.protocols.ospf:OSPF", "route", "protocols.route")
    # online controller and session
    patch("repro.online.controller", "scenario_events", "online.events.convert")
    patch("repro.online.controller:TEController", "apply", _apply_span)
    patch("repro.online.controller:TEController", "measure", "online.measure")
    patch("repro.online.session:ControllerSession", "feed", "online.session.feed")
    patch("repro.online.session:ControllerSession", "measure", "online.session.read")
    patch("repro.online.session:ControllerSession", "forwarding", "online.session.read")
    # serve wire
    patch("repro.serve.wire", "from_dict", "online.events.convert")
    patch("repro.serve.wire", "parse_frame", "serve.wire.parse")
    patch("repro.serve.wire", "ok_frame", "serve.wire.encode")
    patch("repro.serve.wire", "error_frame", "serve.wire.encode")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def dspt_counts(before: Any, after: Any) -> dict[str, float]:
    """The ``online.dspt.*`` metrics from two :class:`DsptStats` snapshots."""
    events = after.events - before.events
    return {
        "online.dspt.incremental_updates": after.incremental_updates - before.incremental_updates,
        "online.dspt.event_fallbacks": after.event_fallbacks - before.event_fallbacks,
        "online.dspt.event_fallback_rate": _ratio(
            after.events_with_fallback - before.events_with_fallback, events
        ),
        "online.dspt.nodes_recomputed": after.nodes_recomputed - before.nodes_recomputed,
    }


def layer_metrics(totals: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Per-layer metric values from :meth:`Tracer.totals` (zeros where bypassed)."""
    calls = totals["calls"]
    busy = totals["busy"]
    own = totals["self"]
    counts = totals["counts"]

    def c(name: str) -> int:
        return int(calls.get(name, 0))

    def b(name: str) -> float:
        return float(busy.get(name, 0.0))

    def s(name: str) -> float:
        return float(own.get(name, 0.0))

    return {
        "solvers.lp.calls": c("solvers.lp"),
        "solvers.lp.busy_s": b("solvers.lp"),
        "solvers.fw.busy_s": b("solvers.fw"),
        "solvers.fw.iterations": int(counts.get("solvers.fw.iterations", 0)),
        "solvers.fw.converged_ratio": _ratio(counts.get("solvers.fw.converged", 0),
                                             c("solvers.fw")),
        "solvers.fw.self_s": s("solvers.fw"),
        "solvers.aon.calls": c("solvers.aon"),
        "solvers.aon.busy_s": b("solvers.aon"),
        "core.nem.busy_s": b("core.nem"),
        "core.nem.iterations": int(counts.get("core.nem.iterations", 0)),
        "core.nem.converged_ratio": _ratio(counts.get("core.nem.converged", 0),
                                           c("core.nem")),
        "routing.distribute_calls": c("routing.distribute"),
        "routing.distribute_busy_s": b("routing.distribute"),
        "core.dags_busy_s": b("core.dags"),
        "core.forwarding_busy_s": b("core.forwarding"),
        "core.spef.self_s": s("core.spef"),
        "network.spt.dag_calls": c("network.spt.dag"),
        "network.spt.dag_busy_s": b("network.spt.dag"),
        "scenarios.apply_calls": c("scenarios.apply"),
        "scenarios.apply_busy_s": b("scenarios.apply"),
        "protocols.route_busy_s": b("protocols.route"),
        # Route and all-or-nothing time not spent building SPT DAGs.
        "routing.propagate_s": s("protocols.route") + s("solvers.aon"),
        "scenarios.cell.self_s": s("scenarios.cell"),
        "online.events.convert_busy_s": b("online.events.convert"),
        "online.apply_fail_busy_s": b("online.apply_fail"),
        "online.apply_recover_busy_s": b("online.apply_recover"),
        "online.apply_calls": c("online.apply_fail") + c("online.apply_recover")
        + c("online.apply_other"),
        "online.measure_busy_s": b("online.measure"),
        "online.session.feed_busy_s": b("online.session.feed"),
        "online.session.read_busy_s": b("online.session.read"),
        "serve.wire.parse_calls": c("serve.wire.parse"),
        "serve.wire.parse_busy_s": b("serve.wire.parse"),
        "serve.wire.encode_busy_s": b("serve.wire.encode"),
    }
