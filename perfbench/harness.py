"""Timing, statistics and host readings shared by every workload."""

from __future__ import annotations

import bisect
import contextlib
import heapq
import math
import os
import random
import signal
import statistics
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

#: Probe seconds on the reference host; scaled times are in its units.
REFERENCE_PROBE_S = 0.0025
#: Seconds between two host-probe readings.
PROBE_EVERY = 0.15
#: Readings up to this many seconds before or after an op also scale it:
#: the host's phases last seconds, and one reading alone is noisy.
SMOOTH_S = 0.5
#: Per-layer spans must account for each traced op's time within this share.
ACCOUNTING_TOLERANCE = 0.10
#: ``op_tail_ms`` is the highest whole percentile up to this one that still
#: has at least ``TAIL_MIN_BEYOND`` samples above it.  Capped at p90: on a
#: shared 2-vCPU host the p99 of served frames moved between 2.4 and 6.7 ms
#: across runs of identical code, far beyond any useful regression bound.
TAIL_MAX_PERCENTILE = 90
TAIL_MIN_BEYOND = 10


def median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def tail_percentile(count: int) -> int | None:
    """The percentile behind ``op_tail_ms`` for ``count`` samples.

    ``None`` when no percentile at or above the median keeps
    ``TAIL_MIN_BEYOND`` samples beyond it; the tail is then the maximum.
    """
    for percentile in range(TAIL_MAX_PERCENTILE, 49, -1):
        rank = math.ceil(percentile / 100 * count)
        if count - rank >= TAIL_MIN_BEYOND:
            return percentile
    return None


def tail_ms(seconds: Sequence[float]) -> tuple[float, str]:
    """``(op_tail_ms, label)``; nearest-rank percentile, or the max for short runs."""
    ordered = sorted(seconds)
    percentile = tail_percentile(len(ordered))
    if percentile is None:
        return ordered[-1] * 1e3, f"max of {len(ordered)}"
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[rank - 1] * 1e3, f"p{percentile} of {len(ordered)}"


class HostProbe:
    """A fixed pure-Python Dijkstra on a fixed graph: the host-speed reading.

    On a shared 2-vCPU host the CPU's speed drifts by +-20% over seconds, and
    the repo's ops slow down with it (a rand100 cold cell ran 85-133 ms in
    4 s windows of one process).  Interleaved with the ops, this probe slowed
    down with them: op time over probe time stayed within +-4%.  It runs
    only the benchmark's own code, so no change to ``src/`` can move it.
    """

    NODES, DEGREE, SOURCES = 400, 4, 4

    def __init__(self) -> None:
        rng = random.Random(7)
        self.adjacency = [
            [(v, rng.random() + 0.1) for v in rng.sample(range(self.NODES), self.DEGREE) if v != u]
            for u in range(self.NODES)
        ]

    def _dijkstra(self, source: int) -> dict[int, float]:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adjacency[u]:
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def sample(self, repeats: int) -> float:
        """Median seconds of ``repeats`` probe passes."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for source in range(0, self.NODES, self.NODES // self.SOURCES):
                self._dijkstra(source)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it spawns, on one CPU.

    Each workload is a closed loop that never needs two CPUs at once (the
    serve client waits while the daemon works), and sharing one CPU makes the
    host probe read the speed of the CPU the measured work runs on.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostClock:
    """Scales op times to the reference host with probe readings near each op.

    Each op is scaled by ``REFERENCE_PROBE_S`` over the mean of the probe
    readings taken while it ran or within ``SMOOTH_S`` of it or, when none
    was, of the two around it.  By default the readings (``WINDOW_REPEATS``
    probe passes each) are taken between ops, about every ``PROBE_EVERY``
    seconds.  With ``in_ops`` they
    are taken *during* ops (one pass each) from a ``SIGALRM`` timer at the
    same interval, so an op longer than the host's phases is scaled by the
    speed it actually ran at; the time a reading takes is subtracted from the
    op it interrupted.  Only single-threaded in-process loops use that mode:
    in the serve client a reading would steal the CPU the daemon answers on.
    """

    WINDOW_REPEATS = 3

    def __init__(self, in_ops: bool = False) -> None:
        self.probe = HostProbe()
        self.in_ops = in_ops
        #: Seconds of readings taken inside ops so far.
        self.paused = 0.0
        self._times: list[float] = []
        #: Raw reading durations in seconds (``host.calib_ms``).
        self.samples: list[float] = []
        self.read()

    def read(self, repeats: int = WINDOW_REPEATS) -> None:
        began = time.perf_counter()
        self.samples.append(self.probe.sample(repeats))
        self._times.append(began)

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        began = time.perf_counter()
        self.read(repeats=1)
        self.paused += time.perf_counter() - began

    @contextlib.contextmanager
    def running(self) -> Iterator[None]:
        """Take readings during ops while the block runs (``in_ops`` only)."""
        if not self.in_ops:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, began: float, ended: float) -> float:
        lo = bisect.bisect_left(self._times, began - SMOOTH_S)
        hi = bisect.bisect_right(self._times, ended + SMOOTH_S)
        readings = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return REFERENCE_PROBE_S / statistics.fmean(readings)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def repeat_setup(
    build: Callable[[], Any], repeats: int, clock: HostClock
) -> tuple[Any, float]:
    """Run ``build`` ``repeats`` times; the last result and the median scaled seconds."""
    times = []
    result = None
    for _ in range(repeats):
        began = time.perf_counter()
        result = build()
        ended = time.perf_counter()
        clock.read()
        times.append((ended - began) * clock.factor(began, ended))
    return result, statistics.median(times)


@dataclass
class OpRecord:
    """What one timed phase produced."""

    #: Wall seconds of each op, as measured.
    latencies: list[float] = field(default_factory=list)
    #: The same ops in reference-host seconds (see :class:`HostClock`).
    scaled: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def timed_loop(
    op: Callable[[Any], Any],
    inputs: Iterator[Any],
    check: Callable[[Any, Any], bool],
    clock: HostClock,
    seconds: float | None = None,
) -> OpRecord:
    """Closed loop: each op starts when the previous one (and its check) ends.

    Runs until ``inputs`` is exhausted or ``seconds`` have passed.  An op
    that raises counts as failed, like one whose output check fails.
    """
    record = OpRecord()
    spans = []
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    last_read = time.perf_counter()
    with clock.running():
        for item in inputs:
            if time.perf_counter() >= deadline:
                break
            paused = clock.paused
            began = time.perf_counter()
            try:
                result = op(item)
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                result = exc
            ended = time.perf_counter()
            record.latencies.append(ended - began - (clock.paused - paused))
            spans.append((began, ended))
            if isinstance(result, Exception):
                record.failed += 1
                print(f"op failed: {type(result).__name__}: {result}", file=sys.stderr)
            else:
                record.failed += not check(item, result)
            if not clock.in_ops and ended - last_read >= PROBE_EVERY:
                clock.read()
                last_read = time.perf_counter()
    clock.read()
    record.scaled = [
        latency * clock.factor(began, ended)
        for latency, (began, ended) in zip(record.latencies, spans)
    ]
    return record


def end_to_end(record: OpRecord, setup_s: float, rss_mb: float) -> tuple[dict, str]:
    """The end-to-end metric values every workload reports, plus the tail label.

    Times are in reference-host units; ``ops_per_s`` is ops over the time
    spent in ops (probe readings and output checks excluded).
    """
    tail, label = tail_ms(record.scaled)
    return {
        "ops_per_s": record.attempted / sum(record.scaled),
        "op_p50_ms": median_ms(record.scaled),
        "op_tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }, label


def accounting_ok(parts: float, wall: float) -> bool:
    """Whether layer self times (plus the op's own) account for an op's wall time."""
    return abs(parts - wall) <= ACCOUNTING_TOLERANCE * wall
