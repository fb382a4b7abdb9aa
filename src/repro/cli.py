"""``repro`` — the console entry point over sweeps, replays and results.

The examples show the library's shape; this CLI makes it scriptable, and
every command that produces numbers writes them into the
:mod:`repro.results` store so they can be listed, diffed and exported
later (by a human or by CI):

* ``repro sweep`` — a :class:`~repro.scenarios.BatchRunner` sweep of
  protocols over a scenario set, recorded with a full run manifest; cells
  already in the store are served from it, never re-evaluated;
  ``--parallel`` shards it across all CPUs, serial otherwise;
* ``repro replay`` — the online TE controller's failure/recovery trace
  replay (:func:`repro.online.replay_failure_trace`), one record per
  outage; ``--policy closed-loop|oracle`` runs it closed-loop (thresholded
  or every-event warm-started reoptimization);
* ``repro trace {sweep,replay}`` — the same sweep/replay commands run
  under an active :mod:`repro.obs` telemetry session: spans, counters and
  histograms land in a ``trace.jsonl`` file (``--trace``), with an
  optional compact text summary (``--summary``), a Chrome trace-event
  export (``--chrome-trace``), a collapsed-stack flamegraph
  (``--flamegraph``) and opt-in per-span memory tracking (``--memory``);
  ``trace sweep`` reads no stored cells so every instrumented path
  actually executes; traced runs persist per-span timing aggregates
  (``scenario="__profile__"``) into the store;
* ``repro results perf --gate BASE..HEAD`` — the statistical (median ±
  k·MAD) span-timing regression gate CI runs against ``latest~1``;
* ``repro results {list,show,query,diff,export,import,delete,gc,plot}`` —
  the store's query surface (``gc --keep-last N`` is the retention knob;
  ``list``/``show``/``query`` take ``--format table|csv|json``).  ``diff``
  is what CI gates on: timing fields are always informational, metric
  fields hard-fail (see :mod:`repro.results.diffing`); ``export``
  regenerates the committed ``BENCH_*.json`` views byte-for-byte;
  ``plot`` renders a per-metric terminal sparkline and table over stored
  runs — span self-time trends included, as ``plot --scenario
  __profile__ --metric self_seconds --agg sum --by span``.

Every subcommand takes ``--store`` (default ``$REPRO_RESULTS_DB`` or
``~/.cache/repro/results.sqlite``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Callable, Sequence

from .analysis.reporting import format_robustness_summary, format_table
from .obs import profile_records, telemetry, write_chrome_trace, write_flamegraph
from .online.events import EventError
from .results import (
    AGGREGATIONS,
    FORMATS,
    VIEW_FILENAMES,
    PerfError,
    PlotError,
    ResultsStore,
    ResultsStoreError,
    RunManifest,
    default_results_path,
    format_output,
    load_bench_view,
    metric_trend,
    render_terminal,
    scenario_set_fingerprint,
)
from .results import gate as perf_gate
from .scenarios import (
    BatchRunner,
    ProtocolSpec,
    RunnerError,
    Scenario,
    baseline_scenario,
    capacity_degradations,
    dual_link_failures,
    gravity_noise_ensemble,
    hotspot_surge_ensemble,
    node_failures,
    robustness_summary,
    single_link_failures,
    standard_scenario_suite,
)
from .topology.backbones import abilene_network, cernet2_network
from .topology.generators import hier50a, hier50b, rand50a, rand50b, rand100, rand500
from .topology.rocketfuel import synthetic_rocketfuel
from .traffic.gravity import gravity_traffic_matrix

# ----------------------------------------------------------------------
# workload registries
# ----------------------------------------------------------------------
TOPOLOGIES: dict[str, Callable[[], "object"]] = {
    "abilene": abilene_network,
    "cernet2": cernet2_network,
    "hier50a": hier50a,
    "hier50b": hier50b,
    "rand50a": rand50a,
    "rand50b": rand50b,
    "rand100": rand100,
    "rand500": rand500,
    "rocketfuel": lambda: synthetic_rocketfuel(1239, seed=0),
    "rocketfuel-router": lambda: synthetic_rocketfuel(1239, seed=0, level="router"),
}

#: Scenario-set factories: ``(network, demands, seed) -> [Scenario]``.
SCENARIO_SETS: dict[str, Callable[..., list[Scenario]]] = {
    "baseline": lambda network, demands, seed: [baseline_scenario()],
    "single-link-failures": lambda network, demands, seed: single_link_failures(network),
    "dual-link-failures": lambda network, demands, seed: dual_link_failures(
        network, limit=50, seed=seed
    ),
    "node-failures": lambda network, demands, seed: node_failures(network),
    "capacity-degradations": lambda network, demands, seed: capacity_degradations(
        network, seed=seed
    ),
    "gravity-noise": lambda network, demands, seed: gravity_noise_ensemble(
        demands, seed=seed
    ),
    "hotspot-surge": lambda network, demands, seed: hotspot_surge_ensemble(
        demands, seed=seed
    ),
    "standard-suite": lambda network, demands, seed: standard_scenario_suite(
        network, demands, seed=seed
    ),
}

#: Record filters ``results query`` and ``results plot`` share (one parent
#: parser), passed to :meth:`ResultsStore.query` together with ``limit``.
RECORD_FILTERS = ("kind", "benchmark", "topology", "workload", "scenario", "protocol")


class CLIError(ValueError):
    """Raised for bad CLI inputs not already rejected by argparse choices."""


def _coerce_param(text: str) -> object:
    """``"2"`` -> 2, ``"0.5"`` -> 0.5, ``"true"`` -> True, else the string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def parse_protocols(argument: str) -> list[ProtocolSpec]:
    """Parse ``--protocols`` entries, constructor parameters included.

    Entries are comma-separated; each is ``NAME`` or
    ``NAME:key=value[:key=value...]`` (``:`` separates parameters so the
    comma stays the entry separator), e.g.
    ``OSPF,SPEF:beta=2.0,FortzThorup:seed=1:restarts=2``.  Values are
    coerced to int/float/bool where they parse as one; unknown names and
    malformed parameters raise :class:`CLIError` with the offending entry.
    """
    specs: list[ProtocolSpec] = []
    for entry in argument.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, *param_parts = entry.split(":")
        params: dict[str, object] = {}
        for part in param_parts:
            key, separator, value = part.partition("=")
            if not separator or not key:
                raise CLIError(
                    f"malformed protocol parameter {part!r} in {entry!r} "
                    "(expected NAME:key=value[:key=value...])"
                )
            params[key.strip()] = _coerce_param(value.strip())
        try:
            spec = ProtocolSpec.of(name.strip(), **params)
        except RunnerError as exc:
            raise CLIError(str(exc)) from None
        try:
            # Build once up front: a typo'd parameter (beta vs Beta) must be
            # a usage error here, not a recorded sweep of all-infeasible
            # cells with exit code 0.
            spec.build()
        except Exception as exc:  # noqa: BLE001 - surface constructor errors
            raise CLIError(f"cannot build protocol {entry!r}: {exc}") from None
        specs.append(spec)
    if not specs:
        raise CLIError("no protocols given")
    return specs


def build_workload(
    topology: str, utilization: float, seed: int
) -> tuple["object", "object"]:
    """The CLI's canonical workload: a topology + a gravity traffic matrix."""
    try:
        network = TOPOLOGIES[topology]()
    except KeyError:
        raise CLIError(
            f"unknown topology {topology!r}; known: {', '.join(sorted(TOPOLOGIES))}"
        ) from None
    demands = gravity_traffic_matrix(network, utilization * network.total_capacity())
    return network, demands


def _resolve_side(store: ResultsStore, ref: str):
    """A diff side: a run reference, or a path to a ``BENCH_*.json`` view."""
    if ref.endswith(".json"):
        # Run ids never end in .json: treat the ref as a view path, and say
        # so when it is missing rather than reporting an "unknown run".
        if not Path(ref).exists():
            raise ResultsStoreError(f"bench view file {ref} not found")
        return load_bench_view(ref)
    return store.get_run(ref).run_id


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_sweep(args: argparse.Namespace) -> int:
    network, demands = build_workload(args.topology, args.utilization, args.seed)
    try:
        factory = SCENARIO_SETS[args.scenarios]
    except KeyError:
        print(
            f"unknown scenario set {args.scenarios!r}; "
            f"known: {', '.join(sorted(SCENARIO_SETS))}",
            file=sys.stderr,
        )
        return 2
    scenarios = factory(network, demands, args.seed)
    if args.limit is not None:
        scenarios = scenarios[: args.limit]
    protocols = parse_protocols(args.protocols)

    with ResultsStore(args.store) as store:
        runner = BatchRunner(max_workers=None if args.parallel else 0, results_store=store)
        results = runner.run(
            network,
            demands,
            scenarios,
            protocols,
            record_config={
                "command": "sweep",
                "scenario_set_name": args.scenarios,
                "utilization": args.utilization,
                "seed": args.seed,
                "parallel": bool(args.parallel),
            },
        )
        stats = runner.last_stats
        print(
            f"swept {len(scenarios)} scenario(s) x {len(protocols)} protocol(s) "
            f"on {network.name} in {stats.elapsed:.2f}s "
            f"({stats.cache_hits} cache hit(s), {stats.evaluated} evaluated)"
        )
        print()
        print(format_robustness_summary(robustness_summary(results)))
        print()
        print(f"recorded run {runner.last_run_id} in {store.path}")
    return 0


def _build_policy(args: argparse.Namespace):
    """The replay policy requested by ``--policy`` (``None`` for none)."""
    if args.policy == "none":
        return None
    from .online import ClosedLoopPolicy, OraclePolicy
    from .protocols.fortz_thorup import FortzThorup

    def optimizer_factory():
        return FortzThorup(restarts=1, seed=0, max_evaluations=args.reopt_evaluations)

    if args.policy == "oracle":
        return OraclePolicy(optimizer_factory=optimizer_factory)
    return ClosedLoopPolicy(
        target_mlu=args.mlu_target,
        hold=args.hold,
        cooldown=args.cooldown,
        optimizer_factory=optimizer_factory,
    )


def _event_trace_records(session) -> list[dict[str, object]]:
    """Per-event store records from a session's rows (replay and serve alike).

    Both ``repro replay --trace-file`` and the ``repro serve --replay-trace``
    soak recorder call this on a :class:`~repro.online.ControllerSession`
    after the trace ran, so the two runs' records carry identical identity
    keys and the CI serve-smoke diff pairs them one-to-one per event.
    """
    topology = session.network.name
    return [
        {**row, "topology": topology, "scenario": f"event-{row['seq']:04d}"}
        for row in session.rows
    ]


def _record_trace_run(
    args: argparse.Namespace,
    *,
    kind: str,
    session,
    records: list[dict[str, object]],
    scenario_set: str,
    elapsed: float,
    config: dict[str, object],
) -> None:
    """Record a trace run (generated, from a file, or soaked) into the results store."""
    stats = session.controller.spt.stats
    final = session.measure()
    with ResultsStore(args.store) as store:
        manifest = RunManifest.create(
            kind=kind,
            topology=session.network.name,
            protocols=("even-ECMP",),
            scenario_set=scenario_set,
            config={
                "utilization": args.utilization,
                "seed": args.seed,
                "events": session.processed_events,
                "baseline_mlu": round(session.baseline.mlu, 6),
                "final_mlu": round(final.mlu, 6),
                "policy": args.policy,
                "reoptimizations": session.reoptimizations,
                **config,
            },
            timings={
                "elapsed": elapsed,
                "incremental_updates": float(stats.incremental_updates),
                "full_rebuilds": float(stats.full_rebuilds),
            },
        )
        # Traced runs also persist per-span aggregates for `results plot`/`perf`.
        records = records + profile_records(telemetry.get(), session.network.name)
        run_id = store.record_run(manifest, records)
        print(f"recorded run {run_id} in {store.path}")


def cmd_replay(args: argparse.Namespace) -> int:
    from .online import (
        ControllerSession,
        failure_recovery_trace,
        read_event_trace,
        replay_event_trace,
        replay_failure_trace,
        write_event_trace,
    )

    if args.trace_file and args.export_trace:
        raise CLIError("--trace-file and --export-trace are mutually exclusive")
    network, demands = build_workload(args.topology, args.utilization, args.seed)
    policy = _build_policy(args)
    session = ControllerSession(network, demands, policy=policy)

    if args.trace_file:
        # Strict wire-schema parsing: a malformed line is a hard error with
        # its line number (the same validator the serve socket runs).
        replay = replay_event_trace(session, read_event_trace(args.trace_file))
        source = f" from {args.trace_file}"
        records = _event_trace_records(session)
        scenario_set = f"event-trace-{session.processed_events}"
        config: dict[str, object] = {"command": "replay", "trace_file": str(args.trace_file)}
    else:
        scenarios = single_link_failures(network)
        if args.limit is not None:
            scenarios = scenarios[: args.limit]
        if args.export_trace:
            trace = failure_recovery_trace(
                network, scenarios, period=args.period, outage=args.outage
            )
            count = write_event_trace(args.export_trace, trace)
            print(f"wrote {count} event(s) to {args.export_trace}")
        replay = replay_failure_trace(
            network,
            demands,
            scenarios,
            period=args.period,
            outage=args.outage,
            session=session,
        )
        source = ""
        records = [{**row.as_row(), "topology": network.name} for row in replay.outages]
        scenario_set = scenario_set_fingerprint(scenarios)
        config = {
            "command": "replay",
            "period": args.period,
            "outage": args.outage,
            "scenarios": len(scenarios),
        }
    stats = replay.controller.spt.stats
    print(
        f"replayed {replay.processed_events} events{source} on {network.name} in "
        f"{replay.elapsed * 1e3:.0f} ms wall "
        f"({stats.incremental_updates} dirty DAG rows recomputed, "
        f"{stats.full_rebuilds} full rebuilds); baseline MLU "
        f"{replay.baseline.mlu:.3f}, final MLU {replay.final.mlu:.3f}"
    )
    if policy is not None:
        print(
            f"policy {args.policy}: {replay.reoptimizations} reoptimization(s)"
            + (
                f", target MLU {args.mlu_target:g}, hold {args.hold:g}s"
                if args.policy == "closed-loop"
                else ""
            )
        )
    if not args.trace_file:
        print()
        print(
            format_table(
                [row.as_row() for row in replay.outages], title="Per-outage sustained state"
            )
        )
        if replay.worst is not None:
            print(f"\nworst outage: {replay.worst.scenario_id} (MLU {replay.worst.mlu:.3f})")
    _record_trace_run(
        args,
        kind="replay",
        session=session,
        records=records,
        scenario_set=scenario_set,
        elapsed=replay.elapsed,
        config=config,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the long-running TE control service.

    Foreground mode binds the JSON-lines socket and serves until a
    ``shutdown`` control frame (or SIGINT/SIGTERM), writing the graceful
    state dump on the way out.  ``--replay-trace FILE`` is soak mode: the
    daemon starts on a background event loop, the trace is fed through a
    real client socket, and the per-event measurements are recorded into
    the results store as a ``kind="serve"`` run — the run CI diffs against
    ``repro replay --trace-file`` on the same trace.
    """
    import asyncio
    import contextlib
    import signal
    import time as time_module

    from .online import ControllerSession, read_event_trace
    from .serve import ServeClient, ServerThread, TEServer

    topologies = args.topology or ["abilene"]
    if len(set(topologies)) != len(topologies):
        raise CLIError(f"duplicate --topology entries: {', '.join(topologies)}")
    sessions = {}
    for name in topologies:
        network, demands = build_workload(name, args.utilization, args.seed)
        session = ControllerSession(network, demands, policy=_build_policy(args))
        sessions[session.key] = session
    server = TEServer(
        sessions,
        host=args.host,
        port=args.port,
        state_dump_path=args.state_dump,
    )

    if args.replay_trace:
        if len(sessions) != 1:
            raise CLIError("--replay-trace soaks exactly one session; pass one --topology")
        (key,) = sessions
        session = sessions[key]
        events = read_event_trace(args.replay_trace)
        start = time_module.perf_counter()
        with ServerThread(server) as runner, ServeClient(args.host, runner.port) as client:
            client.feed_trace(events, session=key)
            final_mlu = client.mlu(session=key)
            client.shutdown()
        elapsed = time_module.perf_counter() - start
        print(
            f"soaked {len(events)} events through the serve socket on {key} in "
            f"{elapsed * 1e3:.0f} ms wall; baseline MLU {session.baseline.mlu:.3f}, "
            f"final MLU {final_mlu:.3f}"
        )
        if args.state_dump:
            print(f"state dump written to {args.state_dump}")
        _record_trace_run(
            args,
            kind="serve",
            session=session,
            records=_event_trace_records(session),
            scenario_set=f"event-trace-{session.processed_events}",
            elapsed=elapsed,
            config={"command": "serve", "trace_file": str(args.replay_trace)},
        )
        return 0

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, server.request_shutdown)
        print(
            f"serving {len(server.sessions)} session(s) on "
            f"{server.host}:{server.port}: {', '.join(sorted(server.sessions))}"
        )
        print("send {\"type\": \"control\", \"action\": \"shutdown\"} "
              "(or SIGINT/SIGTERM) to stop")
        await server.serve_until_shutdown()

    asyncio.run(_run())
    if args.state_dump:
        print(f"state dump written to {args.state_dump}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace {sweep,replay}``: the wrapped command under telemetry.

    Activates a fresh :class:`~repro.obs.telemetry.TelemetryRegistry` for
    the duration of the wrapped command, then exports everything it
    collected as JSON lines (and, with ``--summary``, a compact text
    digest).  A traced sweep reads no stored cells: a trace of lookups
    measures nothing.
    """
    wrapped = cmd_sweep if args.trace_command == "sweep" else cmd_replay
    registry = telemetry.TelemetryRegistry(
        label=f"trace-{args.trace_command}", memory=args.memory
    )
    telemetry.activate(registry)
    try:
        status = wrapped(args)
    finally:
        telemetry.deactivate()
    lines = registry.export_jsonl(args.trace)
    print(f"\nwrote {lines} trace line(s) to {args.trace}")
    if args.chrome_trace:
        events = write_chrome_trace(args.chrome_trace, registry)
        print(f"wrote {events} trace event(s) to {args.chrome_trace} "
              "(load in Perfetto / chrome://tracing)")
    if args.flamegraph:
        stacks = write_flamegraph(args.flamegraph, registry)
        print(f"wrote {stacks} collapsed stack(s) to {args.flamegraph} "
              "(render with speedscope / flamegraph.pl)")
    if args.summary:
        print()
        print(registry.summary())
    return status


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: the repo's custom static-analysis pass."""
    from .devtools import CheckError, check_paths, format_json, format_rule_listing, format_table

    if args.list_rules:
        print(format_rule_listing())
        return 0
    paths = args.paths or ["src"]
    try:
        result = check_paths(paths, rule_filter=args.rule)
    except CheckError as exc:
        raise CLIError(str(exc)) from None
    output = format_json(result) if args.format == "json" else format_table(result)
    print(output, end="" if output.endswith("\n") else "\n")
    return 0 if result.ok else 1


def cmd_results_list(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        manifests = store.runs(kind=args.kind, benchmark=args.benchmark, limit=args.limit)
        if not manifests and args.format == "table":
            print(f"no runs recorded in {store.path}")
            return 0
        print(
            format_output(
                [m.summary_row() for m in manifests],
                fmt=args.format,
                title=f"runs in {store.path}",
            )
        )
    return 0


def cmd_results_show(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        manifest = store.get_run(args.run)
        records = store.records(manifest.run_id)
        if args.format == "json":
            payload = {
                "manifest": manifest.to_row(),
                "records": [] if args.no_records else records,
            }
            # to_row packs config/timings/protocols as JSON strings; unpack
            # them again so JSON output is plain nested JSON.
            payload["manifest"]["protocols"] = list(manifest.protocols)
            payload["manifest"]["config"] = manifest.config
            payload["manifest"]["timings"] = manifest.timings
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if args.format == "csv":
            # CSV is for machines: records only, no manifest preamble.
            print(format_output(records, fmt="csv"))
            return 0
        for key, value in manifest.to_row().items():
            print(f"{key:>16}: {value}")
        if records and not args.no_records:
            print()
            print(format_output(records, fmt=args.format, title=f"{len(records)} record(s)"))
    return 0


def _record_filters(args: argparse.Namespace) -> dict[str, object]:
    """The shared filter options as :meth:`ResultsStore.query` keywords."""
    return {name: getattr(args, name) for name in (*RECORD_FILTERS, "limit")}


def cmd_results_query(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        rows = store.query(run=args.run, **_record_filters(args))
        if not rows and args.format == "table":
            print("no matching records")
        else:
            print(format_output(rows, fmt=args.format))
    return 0


def cmd_results_plot(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        rows = store.query(**_record_filters(args))
    series = metric_trend(rows, args.metric, agg=args.agg, by=args.by)
    print(f"{args.metric} ({args.agg} per run, oldest → newest)")
    print()
    print(render_terminal(series, args.metric))
    return 0


def cmd_results_perf(args: argparse.Namespace) -> int:
    """``repro results perf --gate BASE..HEAD``: the span-timing regression gate.

    Compares HEAD's spans against the run history ending at BASE (median ±
    k·MAD noise band, absolute and relative floors) and exits 1 when any
    span regressed.  The spans' trends are a ``results plot`` view:
    ``--scenario __profile__ --metric self_seconds --agg sum --by span``.
    """
    base_ref, separator, head_ref = args.gate.partition("..")
    if not separator or not base_ref or not head_ref:
        raise CLIError(
            f"malformed --gate reference {args.gate!r} (expected BASE..HEAD, "
            "e.g. 'latest~1:sweep..latest:sweep')"
        )
    with ResultsStore(args.store) as store:
        report = perf_gate(
            store,
            base_ref,
            head_ref,
            metric=args.metric,
            k=args.k,
            min_seconds=args.min_seconds,
            rel_floor=args.rel_floor,
            window=args.window,
        )
    print(report.summary())
    shown = [v for v in report.verdicts if v.regressed or args.all]
    if shown:
        print()
        print(format_table([verdict.as_row() for verdict in shown]))
    if not report.ok:
        print(f"\nFAIL: {len(report.regressions)} span(s) regressed "
              f"beyond the noise band")
        return 1
    print("\nOK: no span regressed beyond the noise band")
    return 0


def cmd_results_diff(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        try:
            side_a = _resolve_side(store, args.run_a)
            side_b = _resolve_side(store, args.run_b)
        except ResultsStoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        diff = store.diff(side_a, side_b, rtol=args.rtol, atol=args.atol)
    print(diff.summary())
    shown = diff.entries if args.all else diff.mismatches
    if shown:
        print()
        print(format_table([entry.as_row() for entry in shown]))
        print("\n(* = informational: timing/shape fields never gate;"
              " metric fields gate unless workload flags differ)")
    if not diff.ok:
        missing = len(diff.only_in_a) + len(diff.only_in_b)
        reasons = []
        if diff.hard_mismatches:
            reasons.append(f"{len(diff.hard_mismatches)} hard metric mismatch(es)")
        if missing:
            reasons.append(f"{missing} record(s) present on one side only")
        print(f"\nFAIL: {', '.join(reasons)}")
        return 1 if args.fail_on == "metric" else 0
    print("\nOK: no hard metric mismatches")
    return 0


def cmd_results_export(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        text = store.export_bench_view(args.benchmark, run=args.run)
        if args.output:
            Path(args.output).write_text(text)
            print(f"wrote {args.output}")
        else:
            sys.stdout.write(text)
    return 0


def cmd_results_import(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        for path in args.paths:
            run_id = store.import_bench_view(path)
            print(f"imported {path} as run {run_id}")
    return 0


def cmd_results_delete(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        run_id = store.delete_run(args.run)
        print(f"deleted run {run_id}")
    return 0


def cmd_results_gc(args: argparse.Namespace) -> int:
    with ResultsStore(args.store) as store:
        cells = store.cell_count()
        deleted = store.gc(args.keep_last, kind=args.kind, benchmark=args.benchmark)
        stale = cells - store.cell_count()
        kept = len(store.runs(kind=args.kind, benchmark=args.benchmark))
        if deleted:
            print(
                f"deleted {len(deleted)} run(s), keeping the newest "
                f"{args.keep_last} per (kind, benchmark); {kept} run(s) remain"
            )
            for run_id in deleted:
                print(f"  {run_id}")
        elif not stale:
            print(f"nothing to delete; {kept} run(s) within retention")
        if stale:
            print(f"deleted {stale} stale sweep cell(s) (older CACHE_VERSION or release)")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="abilene", choices=sorted(TOPOLOGIES))
    parser.add_argument(
        "--protocols",
        default="OSPF",
        help="comma-separated protocol entries, parameters passed through as "
        "NAME:key=value[:key=value...] — e.g. OSPF,SPEF:beta=2.0,"
        "FortzThorup:seed=1:restarts=2 (default: OSPF)",
    )
    parser.add_argument(
        "--scenarios",
        default="single-link-failures",
        choices=sorted(SCENARIO_SETS),
        help="scenario-set generator (default: single-link-failures)",
    )
    parser.add_argument("--utilization", type=float, default=0.1,
                        help="gravity demand volume as a fraction of total capacity")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="evaluate only the first N scenarios")
    parser.add_argument("--parallel", action="store_true",
                        help="shard scenario chunks across all CPUs, one online "
                        "controller per worker (default: serial)")
    parser.set_defaults(handler=cmd_sweep)


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    """Closed-loop policy knobs shared by replay and serve."""
    parser.add_argument(
        "--policy",
        choices=("none", "closed-loop", "oracle"),
        default="none",
        help="closed-loop reoptimization: 'closed-loop' reoptimizes after "
        "the MLU stays above --mlu-target for --hold seconds; 'oracle' "
        "reoptimizes after every event (the baseline any threshold policy "
        "is measured against)",
    )
    parser.add_argument("--mlu-target", type=float, default=0.9,
                        help="closed-loop MLU ceiling (default: 0.9)")
    parser.add_argument("--hold", type=float, default=30.0,
                        help="seconds a breach must persist before reoptimizing")
    parser.add_argument("--cooldown", type=float, default=120.0,
                        help="minimum seconds between reoptimizations")
    parser.add_argument("--reopt-evaluations", type=int, default=150,
                        help="Fortz-Thorup evaluation budget per reoptimization")


def _add_replay_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="abilene", choices=sorted(TOPOLOGIES))
    parser.add_argument("--utilization", type=float, default=0.12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--period", type=float, default=600.0,
                        help="seconds between consecutive outages")
    parser.add_argument("--outage", type=float, default=300.0,
                        help="seconds each outage lasts")
    parser.add_argument("--limit", type=int, default=None,
                        help="replay only the first N trunk failures")
    parser.add_argument("--trace-file", default=None, metavar="PATH",
                        help="replay a wire-schema JSONL event trace instead of the "
                        "generated single-link failures; records one row per event "
                        "(malformed lines are hard errors with line numbers)")
    parser.add_argument("--export-trace", default=None, metavar="PATH",
                        help="also write the generated failure/recovery trace as "
                        "wire-schema JSONL (feed it back via --trace-file or "
                        "`repro serve --replay-trace`)")
    _add_policy_arguments(parser)
    parser.set_defaults(handler=cmd_replay)


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", action="append", choices=sorted(TOPOLOGIES),
                        help="topology session(s) to host (repeatable; "
                        "default: abilene)")
    parser.add_argument("--utilization", type=float, default=0.12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free port, printed on start)")
    parser.add_argument("--state-dump", default=None, metavar="PATH",
                        help="write every session's state dump here on graceful "
                        "shutdown (byte-stable JSON)")
    parser.add_argument("--replay-trace", default=None, metavar="PATH",
                        help="soak mode: feed this wire-schema JSONL trace through "
                        "a real client socket, record per-event measurements as a "
                        "kind='serve' run, then shut down")
    _add_policy_arguments(parser)
    parser.set_defaults(handler=cmd_serve)


def build_parser() -> argparse.ArgumentParser:
    store_parent = argparse.ArgumentParser(add_help=False)
    store_parent.add_argument(
        "--store",
        default=str(default_results_path()),
        help="results store SQLite file (default: $REPRO_RESULTS_DB or "
        "~/.cache/repro/results.sqlite)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sweeps, replays, traces and the queryable results store "
        "of the SPEF (ICDCS 2011) reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser(
        "sweep",
        parents=[store_parent],
        help="run a protocol x scenario robustness sweep and record it",
    )
    _add_sweep_arguments(sweep)

    replay = subparsers.add_parser(
        "replay",
        parents=[store_parent],
        help="replay a failure/recovery trace through the online TE controller",
    )
    _add_replay_arguments(replay)

    serve = subparsers.add_parser(
        "serve",
        parents=[store_parent],
        help="serve TE controller sessions over a JSON-lines TCP socket",
    )
    _add_serve_arguments(serve)

    trace = subparsers.add_parser(
        "trace",
        help="run a sweep or replay under telemetry and export trace.jsonl",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    for trace_command, add_arguments in (
        ("sweep", _add_sweep_arguments),
        ("replay", _add_replay_arguments),
    ):
        traced = trace_sub.add_parser(
            trace_command,
            parents=[store_parent],
            help=f"`repro {trace_command}` with spans/counters/histograms recorded"
            + (" (reads no stored cells)" if trace_command == "sweep" else ""),
        )
        add_arguments(traced)
        traced.add_argument("--trace", default="trace.jsonl", metavar="PATH",
                            help="JSON-lines trace output path (default: trace.jsonl)")
        traced.add_argument("--chrome-trace", default=None, metavar="PATH",
                            help="also write a Chrome trace-event JSON "
                            "(Perfetto / chrome://tracing)")
        traced.add_argument("--flamegraph", default=None, metavar="PATH",
                            help="also write a collapsed-stack flamegraph file "
                            "(speedscope / flamegraph.pl)")
        traced.add_argument("--memory", action="store_true",
                            help="track per-span allocations via tracemalloc "
                            "(slower; adds alloc/peak bytes to span records)")
        traced.add_argument("--summary", action="store_true",
                            help="also print the compact telemetry summary")
        traced.set_defaults(handler=cmd_trace)

    check = subparsers.add_parser(
        "check",
        help="run the repo's static-analysis pass (determinism/byte-stability "
        "invariants, rules REP001-REP007)",
    )
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="files or directories to lint (default: src)")
    check.add_argument("--rule", action="append", metavar="REPxxx",
                       help="only report this rule (repeatable; the full rule "
                       "set still runs for suppression accounting)")
    check.add_argument("--format", choices=("table", "json"), default="table",
                       help="report format (default: table)")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule table and exit")
    check.set_defaults(handler=cmd_check)

    results = subparsers.add_parser("results", help="query the results store")
    results_sub = results.add_subparsers(dest="results_command", required=True)

    results_list = results_sub.add_parser("list", parents=[store_parent],
                                          help="list recorded runs, newest first")
    results_list.add_argument("--kind", default=None)
    results_list.add_argument("--benchmark", default=None)
    results_list.add_argument("--limit", type=int, default=20)
    results_list.add_argument("--format", choices=FORMATS, default="table",
                              help="output format (default: table)")
    results_list.set_defaults(handler=cmd_results_list)

    results_show = results_sub.add_parser("show", parents=[store_parent],
                                          help="show one run's manifest and records")
    results_show.add_argument("run", help="run id, unique prefix, or latest[:benchmark]")
    results_show.add_argument("--format", choices=FORMATS, default="table",
                              help="output format; csv prints the records only "
                              "(default: table)")
    results_show.add_argument("--no-records", action="store_true")
    results_show.set_defaults(handler=cmd_results_show)

    filter_parent = argparse.ArgumentParser(add_help=False)
    for name in RECORD_FILTERS:
        filter_parent.add_argument(f"--{name}", default=None)
    filter_parent.add_argument("--limit", type=int, default=None,
                               help="consider only the newest N records")

    results_query = results_sub.add_parser("query", parents=[store_parent, filter_parent],
                                           help="flat record rows across runs")
    results_query.add_argument("--run", default=None)
    results_query.add_argument("--format", choices=FORMATS, default="table",
                               help="output format (default: table)")
    results_query.set_defaults(handler=cmd_results_query)

    results_plot = results_sub.add_parser(
        "plot",
        parents=[store_parent, filter_parent],
        help="per-metric trendline over stored runs (sparkline + per-run table)",
    )
    results_plot.add_argument("--metric", required=True,
                              help="record field to plot, e.g. max_utilization")
    results_plot.add_argument("--agg", choices=AGGREGATIONS, default="mean",
                              help="how to collapse a run's records to one value "
                              "(default: mean)")
    results_plot.add_argument("--by", default=None, metavar="FIELD",
                              help="split into one series per value of this field, "
                              "e.g. protocol")
    results_plot.set_defaults(handler=cmd_results_plot)

    results_perf = results_sub.add_parser(
        "perf",
        parents=[store_parent],
        help="the span-timing regression gate over traced runs",
    )
    results_perf.add_argument("--gate", required=True, metavar="BASE..HEAD",
                              help="compare HEAD's span timings against the run "
                              "history ending at BASE (e.g. "
                              "'latest~1:sweep..latest:sweep'); exits 1 on "
                              "regressions")
    results_perf.add_argument("--metric", default="self_seconds",
                              help="profile record field to gate "
                              "(default: self_seconds)")
    results_perf.add_argument("--k", type=float, default=5.0,
                              help="MAD multiplier for the noise band (default: 5)")
    results_perf.add_argument("--min-seconds", type=float, default=0.005,
                              help="absolute floor below which a span never "
                              "regresses (default: 0.005)")
    results_perf.add_argument("--rel-floor", type=float, default=0.5,
                              help="relative floor as a fraction of the baseline "
                              "median (default: 0.5)")
    results_perf.add_argument("--window", type=int, default=10,
                              help="baseline history window in runs, walking back "
                              "from BASE (default: 10)")
    results_perf.add_argument("--all", action="store_true",
                              help="show every gated span, not only regressions")
    results_perf.set_defaults(handler=cmd_results_perf)

    results_diff = results_sub.add_parser(
        "diff",
        parents=[store_parent],
        help="compare two runs (run refs or BENCH_*.json view files)",
    )
    results_diff.add_argument("run_a")
    results_diff.add_argument("run_b")
    results_diff.add_argument("--rtol", type=float, default=1e-6)
    results_diff.add_argument("--atol", type=float, default=1e-9)
    results_diff.add_argument("--all", action="store_true",
                              help="show every compared field, not only mismatches")
    results_diff.add_argument(
        "--fail-on",
        choices=("metric", "none"),
        default="metric",
        help="exit non-zero on hard metric mismatches (default) or never",
    )
    results_diff.set_defaults(handler=cmd_results_diff)

    results_export = results_sub.add_parser(
        "export",
        parents=[store_parent],
        help="export a bench run as its BENCH_*.json view",
    )
    results_export.add_argument("benchmark",
                                help=f"benchmark name, e.g. {', '.join(sorted(VIEW_FILENAMES))}")
    results_export.add_argument("--run", default=None,
                                help="run reference (default: latest run of the benchmark)")
    results_export.add_argument("-o", "--output", default=None,
                                help="write to this path instead of stdout")
    results_export.set_defaults(handler=cmd_results_export)

    results_import = results_sub.add_parser(
        "import",
        parents=[store_parent],
        help="import BENCH_*.json view files as runs",
    )
    results_import.add_argument("paths", nargs="+")
    results_import.set_defaults(handler=cmd_results_import)

    results_delete = results_sub.add_parser("delete", parents=[store_parent],
                                            help="delete a run and its records")
    results_delete.add_argument("run")
    results_delete.set_defaults(handler=cmd_results_delete)

    results_gc = results_sub.add_parser(
        "gc",
        parents=[store_parent],
        help="retention: delete all but the newest N runs per (kind, benchmark), "
        "and every sweep cell an older CACHE_VERSION or release wrote",
    )
    results_gc.add_argument("--keep-last", type=int, required=True, metavar="N",
                            help="runs to keep in each (kind, benchmark) family")
    results_gc.add_argument("--kind", default=None,
                            help="only trim runs of this kind")
    results_gc.add_argument("--benchmark", default=None,
                            help="only trim runs of this benchmark")
    results_gc.set_defaults(handler=cmd_results_gc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point (``[project.scripts] repro = repro.cli:main``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CLIError, EventError, PerfError, PlotError, ResultsStoreError, RunnerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro results query | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
