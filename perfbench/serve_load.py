"""The serve workload: one closed-loop client against a ``repro serve`` subprocess.

The daemon runs ``python -m repro serve --topology abilene --port 0`` on
loopback; the traced variant starts it through :mod:`serve_bootstrap`, which
wraps the layer functions inside the daemon and reports the totals on exit.
Each event of the seed-shuffled Abilene failure/recovery trace is sent as an
event frame followed by an ``mlu`` and a ``forwarding`` query (one write to
two reads); trace times advance across passes.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np

import layers
from harness import (
    ACCOUNTING_TOLERANCE,
    HostClock,
    OpRecord,
    end_to_end,
    median_ms,
    peak_rss_mb,
    timed_loop,
)
from repro.cli import build_workload
from repro.online.events import failure_recovery_trace, from_dict, to_dict
from repro.online.session import ControllerSession, measurement_row
from repro.scenarios.generators import single_link_failures
from repro.serve import ServeClient

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
TOPOLOGY = "abilene"
#: The daemon's default workload, rebuilt in-process for the row check.
UTILIZATION, WORKLOAD_SEED = 0.12, 0
SETUP_REPEATS = 3
WARMUP_FRAMES = 30
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: Event-row MLUs must equal an in-process session's to this tolerance.
ROW_TOLERANCE = 1e-12
TRACE_PREFIX = "PERFBENCH_TRACE "
PERIOD, OUTAGE = 10.0, 5.0
#: Frames per run, per ``--seconds``.  A fixed count (not a deadline) keeps
#: the daemon's retained session rows, and with them its heap, its garbage
#: collections and its peak RSS, the same on every run of the same code.
FRAMES_PER_SECOND = 1200
#: The traced run's fixed frame list, per ``--seconds`` (run twice).
FRAMES_PER_TRACED_SECOND = 150


class Daemon:
    """A ``repro serve`` subprocess; always stopped and reaped by :meth:`stop`."""

    def __init__(self, root: Path, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        entry = [str(HERE / "serve_bootstrap.py")] if traced else ["-m", "repro"]
        argv = [sys.executable, *entry, "serve", "--topology", TOPOLOGY,
                "--host", HOST, "--port", "0"]
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        self.client: ServeClient | None = None
        self.output = ""

    def connect(self) -> ServeClient:
        """Wait for the ``serving ... on host:port`` line and connect."""
        deadline = time.monotonic() + START_TIMEOUT
        assert self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("serve daemon did not start in time")
                line = self.process.stdout.readline()
                if not line:
                    raise RuntimeError("serve daemon exited before serving")
                match = re.search(r" on [^ ]+:(\d+):", line)
                if match:
                    break
        self.client = ServeClient(HOST, int(match.group(1)))
        return self.client

    def stop(self) -> None:
        """Ask for a graceful shutdown, then reap (killing only as a last resort)."""
        try:
            if self.client is not None and self.process.poll() is None:
                self.client.shutdown()
        finally:
            if self.client is not None:
                self.client.close()
            try:
                self.output, _ = self.process.communicate(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.output, _ = self.process.communicate()

    def trace_totals(self) -> dict[str, Any]:
        for line in self.output.splitlines():
            if line.startswith(TRACE_PREFIX):
                return json.loads(line[len(TRACE_PREFIX):])
        raise RuntimeError("traced daemon reported no totals")


def _spawn_until_first_frame(root: Path) -> Daemon:
    daemon = Daemon(root, traced=False)
    try:
        daemon.connect().query("sessions")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def measure_setup(root: Path, clock: HostClock) -> tuple[Daemon, float]:
    """Median spawn-to-first-answered-frame time (scaled); the last daemon stays up."""
    times = []
    daemon = None
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        daemon = _spawn_until_first_frame(root)
        ended = time.perf_counter()
        clock.read()
        times.append((ended - start) * clock.factor(start, ended))
        if attempt < SETUP_REPEATS - 1:
            daemon.stop()
    assert daemon is not None
    return daemon, statistics.median(times)


class FramePlan:
    """The seed's frame sequence: ``(kind, frame)`` with kind ``write``/``read``."""

    def __init__(self, seed: int) -> None:
        network, _ = build_workload(TOPOLOGY, UTILIZATION, WORKLOAD_SEED)
        cells = single_link_failures(network)
        order = np.random.default_rng(seed).permutation(len(cells))
        trace = failure_recovery_trace(network, [cells[i] for i in order], PERIOD, OUTAGE)
        self.events = [to_dict(event) for event in trace]
        self.span = len(cells) * PERIOD
        self.destinations = [str(node) for node in network.nodes]

    def frames(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Endless frames; pass ``p`` shifts every event time by ``p * span``."""
        index = 0
        for pass_number in itertools.count():
            for payload in self.events:
                event = dict(payload, time=payload["time"] + pass_number * self.span)
                yield "write", {"type": "event", "event": event}
                yield "read", {"type": "query", "query": "mlu"}
                destination = self.destinations[index % len(self.destinations)]
                index += 1
                yield "read", {"type": "query", "query": "forwarding",
                               "destination": destination}


class FrameLog:
    """Frame kinds and the event rows needed for the reference check."""

    def __init__(self, client: ServeClient) -> None:
        self.client = client
        self.kinds: list[str] = []
        self.events: list[dict[str, Any]] = []
        self.row_mlus: list[float] = []

    def send(self, item: tuple[str, dict[str, Any]]) -> dict[str, Any]:
        kind, frame = item
        self.kinds.append(kind)
        return self.client.request(frame)

    def check(self, item: tuple[str, dict[str, Any]], response: dict[str, Any]) -> bool:
        kind, frame = item
        if response.get("ok") is not True:
            return False
        if kind == "write":
            self.events.append(frame["event"])
            self.row_mlus.append(response["result"]["row"]["mlu"])
        return True

    def reference_mismatches(self) -> int:
        """Event rows that differ from an in-process session fed the same events.

        Frames that came back with an error were already counted as failed.
        """
        network, demands = build_workload(TOPOLOGY, UTILIZATION, WORKLOAD_SEED)
        session = ControllerSession(network, demands)
        bad = 0
        for seq, (payload, served) in enumerate(zip(self.events, self.row_mlus)):
            event = from_dict(payload)
            expected = measurement_row(seq, event.time, event.kind, session.feed(event))
            bad += abs(float(expected["mlu"]) - served) > ROW_TOLERANCE
        return bad


def _warm_up(client: ServeClient) -> None:
    for _ in range(WARMUP_FRAMES):
        client.query("mlu")


def run(
    root: Path, seed: int, seconds: int
) -> tuple[dict[str, float], OpRecord, str, HostClock]:
    """The untraced run: end-to-end metrics, the op record, the tail label, the clock.

    ``peak_rss_mb`` is the daemon's VmHWM, read before shutdown.
    """
    frames = itertools.islice(FramePlan(seed).frames(), FRAMES_PER_SECOND * seconds)
    clock = HostClock()
    daemon, setup_s = measure_setup(root, clock)
    try:
        assert daemon.client is not None
        _warm_up(daemon.client)
        log = FrameLog(daemon.client)
        record = timed_loop(log.send, frames, log.check, clock)
        rss = peak_rss_mb(daemon.process.pid)
    finally:
        daemon.stop()
    record.failed += log.reference_mismatches()
    metrics, label = end_to_end(record, setup_s, rss)
    return metrics, record, label, clock


def _drive(
    root: Path, frames: list, traced: bool, clock: HostClock
) -> tuple[FrameLog, OpRecord, Daemon]:
    daemon = Daemon(root, traced=traced)
    try:
        client = daemon.connect()
        client.query("sessions")
        _warm_up(client)
        log = FrameLog(client)
        record = timed_loop(log.send, iter(frames), log.check, clock)
    finally:
        daemon.stop()
    record.failed += log.reference_mismatches()
    return log, record, daemon


def _p50_ms(log: FrameLog, record: OpRecord, kind: str) -> float:
    return median_ms([t for t, k in zip(record.scaled, log.kinds) if k == kind])


def run_traced(
    root: Path, seed: int, seconds: int
) -> tuple[dict[str, float], int, int, HostClock]:
    """Untraced then traced pass over one fixed frame list.

    Returns the per-layer metrics (bar ``host.calib_ms``), ops attempted, ops
    failed and the clock.  ``serve.other_s`` is the client-observed frame
    time the daemon's parse, execute and encode spans do not cover:
    transport, the session lock and the executor handoff.
    """
    count = FRAMES_PER_TRACED_SECOND * seconds
    frames = list(itertools.islice(FramePlan(seed).frames(), count))
    clock = HostClock()
    plain_log, plain, _ = _drive(root, frames, False, clock)
    _, traced, daemon = _drive(root, frames, True, clock)
    totals = daemon.trace_totals()
    # Daemon-side time of every frame, in order: the first ``sessions``
    # query, the warm-up queries, the fixed frames, then the shutdown frame.
    first = 1 + WARMUP_FRAMES
    parts = totals["op_parts"][first:first + len(frames)]
    failed = plain.failed + traced.failed + abs(len(frames) - len(parts))
    failed += sum(1 for part, wall in zip(parts, traced.latencies)
                  if part - wall > ACCOUNTING_TOLERANCE * wall)
    metrics = layers.layer_metrics(totals)
    metrics.update(totals["dspt"])
    metrics.update({
        "serve.frames_ok": totals["frames_ok"],
        "serve.frames_error": totals["frames_error"],
        "serve.other_s": sum(traced.latencies) - sum(parts),
        "serve.write_p50_ms": _p50_ms(plain_log, plain, "write"),
        "serve.read_p50_ms": _p50_ms(plain_log, plain, "read"),
        "trace.overhead": median_ms(traced.scaled) / median_ms(plain.scaled),
    })
    return metrics, plain.attempted + traced.attempted, failed, clock
