"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times ops with nothing wrapped and prints the end-to-end
metrics; ``--trace 1`` runs a fixed op list untraced and then traced, and
prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Op and set-up times are in reference-host units: each
is scaled by a host-speed probe read while or around it ran
(``harness.HostClock``).
The last stdout line is the result object; the line before it is a
human-readable summary (tail percentile, unscaled median, probe reading).
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
from pathlib import Path

import harness
import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SERVE = "serve"
#: Per-layer metrics only the serve workload produces.
SERVE_ONLY = ("serve.frames_ok", "serve.frames_error", "serve.other_s",
              "serve.write_p50_ms", "serve.read_p50_ms")


def run_in_process(workload, seed: int, seconds: int):
    """Timed phase of an in-process workload: ``(metrics, record, tail label, clock)``."""
    clock = harness.HostClock(in_ops=True)
    _, setup_s = harness.repeat_setup(
        functools.partial(workload.build, seed), workload.setup_repeats, clock
    )
    inputs = workload.inputs()
    for _ in range(workload.warmup_ops):
        workload.op(next(inputs))
    record = harness.timed_loop(workload.op, inputs, workload.check, clock, seconds)
    rss = harness.peak_rss_mb()
    record.failed += workload.cross_check()
    metrics, label = harness.end_to_end(record, setup_s, rss)
    return metrics, record, label, clock


def trace_in_process(workload, seed: int, seconds: int):
    """Fixed op list, untraced then traced: ``(metrics, attempted, failed, clock)``.

    Every traced op must pass the accounting check: the self times of the
    spans it opened (its own included) sum to its wall time.
    """
    from repro.online.dspt import DsptStats, snapshot_stats

    clock = harness.HostClock()
    workload.build(seed)
    inputs = workload.inputs()
    for _ in range(workload.warmup_ops):
        workload.op(next(inputs))
    items = [next(inputs) for _ in range(workload.traced_ops(seconds))]
    plain = harness.timed_loop(workload.op, iter(items), workload.check, clock)

    stats = workload.dspt_stats() or DsptStats()
    before = snapshot_stats(stats)
    tracer = Tracer()
    unaccounted = 0

    def traced_op(item):
        nonlocal unaccounted
        mark = sum(tracer.self_time.values())
        result, wall = tracer.run_op(workload.root_span, functools.partial(workload.op, item))
        unaccounted += not harness.accounting_ok(sum(tracer.self_time.values()) - mark, wall)
        return result

    layers.install(tracer)
    try:
        traced = harness.timed_loop(traced_op, iter(items), workload.check, clock)
    finally:
        tracer.unpatch()
    failed = plain.failed + traced.failed + unaccounted + workload.cross_check()

    metrics = layers.layer_metrics(tracer.totals())
    metrics.update(layers.dspt_counts(before, stats))
    metrics.update(dict.fromkeys(SERVE_ONLY, 0))
    metrics["trace.overhead"] = statistics.median(traced.scaled) / statistics.median(plain.scaled)
    return metrics, plain.attempted + traced.attempted, failed, clock


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import serve_load
    import workloads

    harness.pin_to_one_cpu()
    if args.workload == SERVE:
        run = functools.partial(serve_load.run, ROOT)
        trace = functools.partial(serve_load.run_traced, ROOT)
    else:
        workload = workloads.IN_PROCESS[args.workload]()
        run = functools.partial(run_in_process, workload)
        trace = functools.partial(trace_in_process, workload)
    if args.trace:
        metrics, attempted, failed, clock = trace(args.seed, args.seconds)
        summary = "fixed op list"
    else:
        metrics, record, label, clock = run(args.seed, args.seconds)
        attempted, failed = record.attempted, record.failed
        summary = f"op_tail={label}, unscaled op_p50_ms={harness.median_ms(record.latencies):.3f}"
    calib_ms = statistics.median(clock.samples) * 1e3
    if args.trace:
        metrics["host.calib_ms"] = calib_ms

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = set(metrics) ^ {m["name"] for m in wanted}
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed, {summary}, host.calib_ms={calib_ms:.4f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
