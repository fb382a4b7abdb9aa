"""``repro serve``: a long-running TE control service over a TCP socket.

The serve stack is three thin layers over the one real API,
:class:`~repro.online.session.ControllerSession`:

* :mod:`~repro.serve.wire` — the versioned JSON-lines frame protocol
  (event payloads are exactly the trace-file wire schema of
  :mod:`repro.online.events`, parsed by the same validator);
* :mod:`~repro.serve.daemon` — :class:`TEServer`, the asyncio daemon
  hosting one session per topology with per-session locks, worker-thread
  event application and a graceful shutdown that writes a byte-stable
  state dump; :class:`ServerThread` runs it from synchronous code;
* :mod:`~repro.serve.client` — :class:`ServeClient`, the blocking client
  used by the tests, the soak recorder and operator one-liners.

Because the daemon drives ``ControllerSession.feed`` — the same method
the batch replay drives — a trace fed over the socket reports
measurements bit-for-bit identical to ``repro replay`` on the same
trace; the CI serve-smoke job gates on that diff.
"""

from .client import ServeClient, ServeClientError
from .daemon import ServerThread, TEServer
from .wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Frame,
    WireError,
    dumps_state,
    dumps_state_file,
    error_frame,
    ok_frame,
    parse_frame,
)

__all__ = [
    "Frame",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeClientError",
    "ServerThread",
    "TEServer",
    "WireError",
    "dumps_state",
    "dumps_state_file",
    "error_frame",
    "ok_frame",
    "parse_frame",
]
