"""Start ``repro serve`` with the per-layer wrappers installed.

Usage: ``python perfbench/serve_bootstrap.py serve --topology abilene ...``
(with ``src`` on ``PYTHONPATH``).  The arguments go to the repro CLI
unchanged.  After the daemon shuts down, one line ``PERFBENCH_TRACE {json}``
on stdout carries the span totals, the daemon-side time of every frame in
arrival order, the frame counters and the incremental SPT counters.
"""

from __future__ import annotations

import json
import sys

import layers
from repro.cli import main
from repro.online.dspt import DsptStats
from repro.serve import daemon as serve_daemon
from repro.serve import wire
from serve_load import TRACE_PREFIX
from tracer import Tracer


def bootstrap(argv: list[str]) -> int:
    tracer = Tracer()
    layers.install(tracer)
    servers: list[serve_daemon.TEServer] = []

    traced_parse = wire.parse_frame

    def parse_frame(line: bytes) -> object:
        # Frames are answered one at a time on the single connection, so
        # every root span from here to the next parse belongs to this frame.
        tracer.begin_op()
        return traced_parse(line)

    wire.parse_frame = parse_frame
    original_init = serve_daemon.TEServer.__init__

    def init(self: serve_daemon.TEServer, *args: object, **kwargs: object) -> None:
        original_init(self, *args, **kwargs)
        servers.append(self)

    serve_daemon.TEServer.__init__ = init  # type: ignore[method-assign]
    code = main(argv)

    report: dict[str, object] = tracer.totals()
    report["op_parts"] = tracer.op_parts
    (server,) = servers
    (session,) = server.sessions.values()
    report["frames_ok"] = server.frames_ok
    report["frames_error"] = server.frames_error
    report["dspt"] = layers.dspt_counts(DsptStats(), session.controller.spt.stats)
    print(TRACE_PREFIX + json.dumps(report, sort_keys=True), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(bootstrap(sys.argv[1:]))
