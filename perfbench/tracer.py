"""Per-layer span accounting by wrapping module and class attributes.

Nothing in ``src/`` is instrumented: :class:`Tracer` replaces the public
functions each layer exposes (as seen from the module that calls them) with
timing wrappers while a traced phase runs, and puts the originals back
afterwards.  Each span records its calls, its inclusive time and its self time
(inclusive time minus the time of spans it called), summed per name.

Stacks are per thread, so the serve daemon's event-loop thread and its
executor workers account separately.  A span whose name is already open on
the current thread's stack is passed through untimed, so a function wrapped in
two namespaces, or a layer that calls itself, is never counted twice.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from typing import Any

#: ``name`` may be a string or a function of the call's arguments.
SpanName = str | Callable[..., str]
#: ``observe(tracer, args, result)`` turns a call's result into work counts.
Observer = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Accumulates span totals; install wrappers with :meth:`patch`."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: Root-span time of each op, in the order :meth:`begin_op` opened them.
        self.op_parts: list[float] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, func: Callable, name: SpanName, observe: Observer | None = None
    ) -> Callable:
        """A timing wrapper around ``func`` recording under ``name``."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = name(*args, **kwargs) if callable(name) else name
            stack = tracer._stack()
            if any(frame[0] == span for frame in stack):
                return func(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer.calls[span] += 1
                tracer.busy[span] += elapsed
                tracer.self_time[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                elif tracer.op_parts:
                    tracer.op_parts[-1] += elapsed
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        target: str,
        attr: str,
        name: SpanName,
        observe: Observer | None = None,
    ) -> None:
        """Wrap ``target.attr``; ``target`` is ``"module"`` or ``"module:Class"``."""
        module_name, _, class_name = target.partition(":")
        owner: object = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def unpatch(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def begin_op(self) -> None:
        """Start accumulating root-span time for a new op."""
        self.op_parts.append(0.0)

    def run_op(self, name: str, func: Callable[[], Any]) -> tuple[Any, float]:
        """Run one op as a root span; returns its result and external wall time."""
        self.begin_op()
        traced = self.wrap(func, name)
        start = time.perf_counter()
        result = traced()
        return result, time.perf_counter() - start

    def totals(self) -> dict[str, dict[str, float]]:
        """Plain-dict snapshot (what the serve bootstrap ships back as JSON)."""
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }
