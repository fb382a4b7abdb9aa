"""Closed-loop reoptimization policies for a controller session.

The controller can *absorb* events incrementally and it can *reoptimize*
(warm-started weight search); this module closes the loop between the two.
A policy watches the controller's MLU after every event of a simulated
trace and decides when to spend a reoptimization:

* :class:`ClosedLoopPolicy` — the operational shape: when the MLU stays
  above a target for ``hold`` simulated seconds, run the warm-started
  weight search (:meth:`TEController.reoptimize`) and install the result.
  The hold timer is a real discrete event (scheduled on the simulator when
  the breach starts, cancelled if an intermediate event clears it), so
  "above target for N seconds" means simulated time, not event count.
* :class:`OraclePolicy` — the upper bound the closed loop is measured
  against: reoptimize after *every* event, however small.  Unaffordable in
  practice (one weight search per event) but it bounds how much MLU a
  thresholded policy leaves on the table.

A policy is attached to a :class:`~repro.online.session.ControllerSession`
(``policy=...``; the CLI exposes it as ``repro replay --policy``), records
a :class:`PolicyDecision` per triggered reoptimization, and calls an
optional ``on_reoptimize`` callback, through which the session records the
post-reoptimization measurement as a ``"reoptimize"`` row.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..obs import telemetry
from ..simulator.events import EventHandle, Simulator
from .controller import ControllerMeasurement, ControllerUpdate, TEController

#: ``(controller, decision, measurement)`` hook run after a policy installed
#: new weights; ``measurement`` is the post-installation state so callers
#: (e.g. the session's rows) need not re-measure.
ReoptimizeHook = Callable[
    [TEController, "PolicyDecision", ControllerMeasurement], None
]


@dataclass
class PolicyDecision:
    """One reoptimization a policy decided to spend."""

    time: float
    mlu_before: float
    mlu_after: float
    evaluations: int
    #: What tripped the decision (``"hold-expired"`` or ``"every-event"``).
    trigger: str = "hold-expired"

    @property
    def improved(self) -> bool:
        return self.mlu_after < self.mlu_before


def _default_optimizer_factory():
    """A small deterministic Fortz–Thorup search (warm starts do the work)."""
    from ..protocols.fortz_thorup import FortzThorup

    return FortzThorup(restarts=1, seed=0, max_evaluations=200)


class _PolicyBase:
    """Shared bookkeeping: attachment, decisions, the reoptimize primitive."""

    def __init__(
        self,
        optimizer_factory: Callable[[], object] | None = None,
        warm_start: bool = True,
    ) -> None:
        self.optimizer_factory = optimizer_factory or _default_optimizer_factory
        self.warm_start = warm_start
        self.decisions: list[PolicyDecision] = []
        self._controller: TEController | None = None
        self._simulator: Simulator | None = None
        self._on_reoptimize: ReoptimizeHook | None = None

    def attach(
        self,
        controller: TEController,
        simulator: Simulator | None,
        on_reoptimize: ReoptimizeHook | None = None,
    ) -> _PolicyBase:
        """Bind the policy to one controller + simulator pair (resets state)."""
        self._controller = controller
        self._simulator = simulator
        self._on_reoptimize = on_reoptimize
        self.decisions = []
        return self

    @property
    def reoptimizations(self) -> int:
        return len(self.decisions)

    def observe(
        self,
        controller: TEController,
        update: ControllerUpdate,
        measurement: ControllerMeasurement | None = None,
    ) -> None:
        """Called after every controller event (the session's :meth:`feed` does).

        Callers that already measured the post-event state (the session
        does, for its row) pass it as ``measurement`` so the policy does not
        re-measure; without it the policy measures itself.
        """
        raise NotImplementedError

    def _reoptimize(
        self,
        time: float,
        trigger: str,
        before: ControllerMeasurement | None = None,
    ) -> PolicyDecision:
        controller = self._controller
        assert controller is not None, "policy used before attach()"
        if before is None:
            before = controller.measure()
        with telemetry.span("policy.reoptimize", trigger=trigger):
            result = controller.reoptimize(
                optimizer=self.optimizer_factory(), warm_start=self.warm_start
            )
        after = controller.measure()
        decision = PolicyDecision(
            time=time,
            mlu_before=before.mlu,
            mlu_after=after.mlu,
            evaluations=getattr(result, "evaluations", 0),
            trigger=trigger,
        )
        self.decisions.append(decision)
        if telemetry.enabled():
            telemetry.count("policy.reoptimize", 1, trigger=trigger)
            telemetry.count(
                "policy.reoptimize_improved", 1, improved=decision.improved
            )
        if self._on_reoptimize is not None:
            self._on_reoptimize(controller, decision, after)
        return decision


class ClosedLoopPolicy(_PolicyBase):
    """Reoptimize when the MLU stays above ``target_mlu`` for ``hold`` seconds.

    Parameters
    ----------
    target_mlu:
        The utilization ceiling the operator is willing to sustain.
    hold:
        Seconds the breach must persist before a reoptimization is spent
        (0 reacts to the first breaching event).  Timed on the simulator
        clock with a scheduled check event, so a failure that heals within
        the hold window costs nothing.
    optimizer_factory:
        Zero-argument factory for the weight search (defaults to a small
        deterministic single-restart Fortz–Thorup); a fresh instance per
        decision keeps decisions independent.
    warm_start:
        Warm-start the search from the installed weights (the whole point
        of the online controller; disable only for A/B measurements).
    cooldown:
        Minimum simulated seconds between two reoptimizations, so an event
        storm cannot trigger a weight-search storm.
    """

    def __init__(
        self,
        target_mlu: float,
        hold: float = 0.0,
        optimizer_factory: Callable[[], object] | None = None,
        warm_start: bool = True,
        cooldown: float = 0.0,
    ) -> None:
        if target_mlu <= 0:
            raise ValueError(f"target_mlu must be positive, got {target_mlu}")
        if hold < 0 or cooldown < 0:
            raise ValueError("hold and cooldown must be non-negative")
        super().__init__(optimizer_factory, warm_start)
        self.target_mlu = float(target_mlu)
        self.hold = float(hold)
        self.cooldown = float(cooldown)
        self._pending: EventHandle | None = None
        self._last_reoptimized: float = float("-inf")

    def attach(self, controller, simulator, on_reoptimize=None) -> ClosedLoopPolicy:
        super().attach(controller, simulator, on_reoptimize)
        self._pending = None
        self._last_reoptimized = float("-inf")
        return self

    def observe(
        self,
        controller: TEController,
        update: ControllerUpdate,
        measurement: ControllerMeasurement | None = None,
    ) -> None:
        if measurement is None:
            measurement = controller.measure()
        now = self._simulator.now if self._simulator is not None else update.event.time
        if measurement.mlu > self.target_mlu:
            if self._pending is None:
                self._start_hold(now)
        elif self._pending is not None:
            # The breach healed on its own (e.g. the outage recovered)
            # before the hold expired: no reoptimization spent.
            self._pending.cancel()
            self._pending = None
            telemetry.count("policy.hold", 1, transition="cancelled")

    def _start_hold(self, now: float) -> None:
        telemetry.count("policy.hold", 1, transition="started")
        fire_at = max(now + self.hold, self._last_reoptimized + self.cooldown)
        if self._simulator is None:
            # No simulator (direct event feeding): there is no clock to wait
            # out the hold on, so react at once — but the cooldown still
            # applies, otherwise every breaching event of a storm would run
            # a full weight search.
            if now >= self._last_reoptimized + self.cooldown:
                self._expire(now)
            return
        self._pending = self._simulator.schedule(
            fire_at, lambda sim: self._expire(sim.now), label="policy-hold"
        )

    def _expire(self, now: float) -> None:
        self._pending = None
        controller = self._controller
        if controller is None:
            return
        measurement = controller.measure()
        if measurement.mlu > self.target_mlu:
            telemetry.count("policy.hold", 1, transition="expired-breaching")
            self._reoptimize(now, trigger="hold-expired", before=measurement)
            self._last_reoptimized = now
            # Deliberately no re-arm here: if the reoptimized network still
            # breaches, re-running the (deterministic) search from the same
            # state gains nothing — and self-scheduled re-arms would keep
            # the simulator alive forever on an unattainable target.  The
            # next *network* event that still breaches starts a fresh hold.
        else:
            telemetry.count("policy.hold", 1, transition="expired-cleared")


class OraclePolicy(_PolicyBase):
    """Reoptimize after every event — the clairvoyant baseline.

    One warm-started weight search per event is far too expensive to
    operate, but its worst-case MLU is the floor any thresholded policy
    should be compared against (and its reoptimization count the cost of
    that floor).
    """

    def observe(
        self,
        controller: TEController,
        update: ControllerUpdate,
        measurement: ControllerMeasurement | None = None,
    ) -> None:
        now = self._simulator.now if self._simulator is not None else update.event.time
        self._reoptimize(now, trigger="every-event", before=measurement)


#: Registry used by ``repro replay --policy``; ``None`` means "no policy".
POLICY_FACTORIES = {
    "closed-loop": ClosedLoopPolicy,
    "oracle": OraclePolicy,
}


# Imported for re-export convenience (ControllerMeasurement shows up in the
# annotations of downstream policy consumers).
__all__ = [
    "ClosedLoopPolicy",
    "ControllerMeasurement",
    "OraclePolicy",
    "PolicyDecision",
    "POLICY_FACTORIES",
]
