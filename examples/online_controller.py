"""Online TE controller demo: replay an Abilene failure/recovery trace.

The scenario engine answers "how bad is each failure?" by re-posing every
perturbed instance from scratch.  This example shows the *online* view
instead: :func:`repro.online.replay_failure_trace` (the same engine behind
``repro replay``) holds live routing state for the Abilene backbone in a
:class:`~repro.online.ControllerSession` and consumes a timed event trace —
every trunk fails for five simulated minutes and then heals — through the
discrete-event simulator.  Each event is absorbed with an incremental
shortest-path update (only the affected destination DAGs are touched), the
session records one row after every event, and at the end the worst outage
is re-optimised with a warm-started Fortz-Thorup weight search.

Run with:  PYTHONPATH=src python examples/online_controller.py
"""

from __future__ import annotations

from repro.online import replay_failure_trace
from repro.protocols.fortz_thorup import FortzThorup
from repro.scenarios import single_link_failures
from repro.topology.backbones import abilene_network
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix


def main() -> None:
    network = abilene_network()
    demands = abilene_traffic_matrix(
        network, total_volume=1.0, seed=1
    ).scaled(0.12 * network.total_capacity())
    scenarios = single_link_failures(network)
    period, outage = 600.0, 300.0

    replay = replay_failure_trace(network, demands, scenarios, period=period, outage=outage)
    baseline = replay.baseline
    trace_end = (len(scenarios) - 1) * period + outage  # last recovery event
    print(
        f"Topology: {network.name} ({network.num_nodes} nodes, {network.num_links} links)\n"
        f"Demands:  {len(demands)} pairs, {demands.total_volume():.1f} units "
        f"(baseline MLU {baseline.mlu:.3f})\n"
        f"Trace:    {len(scenarios)} trunk outages over "
        f"{trace_end / 60:.0f} simulated minutes "
        f"({replay.processed_events} link events)\n"
    )

    controller = replay.controller
    stats = controller.spt.stats
    print(
        f"Replayed {replay.processed_events} events in {replay.elapsed * 1e3:.0f} ms wall "
        f"({stats.incremental_updates} dirty DAG rows recomputed, "
        f"{stats.full_rebuilds} full rebuilds, "
        f"{stats.destinations_changed} rows dirtied)\n"
    )

    worst = replay.worst
    print("time(min)  outage MLU   note")
    for row in replay.outages:
        note = []
        if row.dropped_volume:
            note.append(f"dropped {row.dropped_volume:.2g} units")
        if row is worst:
            note.append("<- worst outage")
        print(f"{row.time / 60:8.1f}  {row.mlu:10.3f}   {' '.join(note)}")

    print(
        f"\nAfter the last recovery the controller is back at baseline "
        f"(MLU {replay.final.mlu:.3f} vs {baseline.mlu:.3f}).\n"
    )

    # Re-optimise the worst outage with a warm-started weight search.
    scenario = next(s for s in scenarios if s.scenario_id == worst.scenario_id)
    print(
        f"Re-optimising the worst outage ({scenario.scenario_id}, "
        f"MLU {worst.mlu:.3f}) with warm-started Fortz-Thorup..."
    )
    from repro.online import failure_events

    controller.apply_all(failure_events(network, scenario))
    before = controller.measure()
    result = controller.reoptimize(
        optimizer=FortzThorup(restarts=1, seed=0, max_evaluations=150)
    )
    after = controller.measure()
    print(
        f"  {result.evaluations} routing evaluations (budget 150), "
        f"piecewise-linear cost {result.cost:.1f}: "
        f"MLU {before.mlu:.3f} -> {after.mlu:.3f} under the failure"
    )


if __name__ == "__main__":
    main()
