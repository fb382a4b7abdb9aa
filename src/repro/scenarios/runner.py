"""Cached parallel batch evaluation of protocols over scenario sets.

The evaluation loop of the paper — route one matrix on one topology, read off
MLU and utility — becomes, at scenario scale, an embarrassingly parallel
batch job: |scenarios| x |protocols| independent routing problems.  This
module provides the machinery to run that batch fast and repeatably:

* :class:`ProtocolSpec` — a picklable, hashable *description* of a protocol
  (registry name + constructor parameters).  Specs, not protocol instances,
  travel to worker processes and into cache keys.
* :class:`ResultCache` — an on-disk store of :class:`ScenarioResult` records
  keyed by ``sha256(topology, demands, scenario, protocol)``; repeated sweeps
  (the common case while exploring) skip straight to cache hits.
* :class:`BatchRunner` — chunked dispatch over a ``ProcessPoolExecutor``
  with a serial fast path, cache-aware scheduling (hits never reach a
  worker) and per-run statistics.

Worker payloads are ``(network, demands, scenarios, spec)`` tuples; the
scenario is applied *inside* the worker so only the small base instance and
the declarative scenarios cross the process boundary.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..core.objectives import normalized_utility
from ..network.demands import TrafficMatrix
from ..network.graph import Network
from ..obs import telemetry
from ..protocols.base import RoutingProtocol
from ..protocols.fortz_thorup import FortzThorup
from ..protocols.minmax_mlu import MinMaxMLU
from ..protocols.ospf import OSPF, MinHopOSPF
from ..protocols.peft import PEFT
from ..protocols.spef_protocol import SPEFProtocol
from .scenario import Scenario, ScenarioInstance, _sha256, demands_fingerprint, network_fingerprint


class RunnerError(ValueError):
    """Raised for malformed runner inputs (unknown protocols, bad specs...)."""


# ----------------------------------------------------------------------
# protocol specs
# ----------------------------------------------------------------------
def _make_spef(beta: float | None = None, **overrides) -> RoutingProtocol:
    if beta is not None:
        return SPEFProtocol.with_beta(beta, **overrides)
    return SPEFProtocol(**overrides)


#: Registry of protocol factories the runner can instantiate by name.
PROTOCOL_REGISTRY: dict[str, Callable[..., RoutingProtocol]] = {
    "OSPF": OSPF,
    "MinHopOSPF": MinHopOSPF,
    "SPEF": _make_spef,
    "PEFT": PEFT,
    "FortzThorup": FortzThorup,
    "MinMaxMLU": MinMaxMLU,
}


def register_protocol(name: str, factory: Callable[..., RoutingProtocol]) -> None:
    """Register a protocol factory for use in :class:`ProtocolSpec`.

    Registration must happen at import time of a module available to worker
    processes, otherwise parallel runs cannot rebuild the protocol.
    """
    PROTOCOL_REGISTRY[name] = factory


@dataclass(frozen=True)
class ProtocolSpec:
    """A declarative, picklable recipe for building a routing protocol.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs are
    hashable and fingerprint deterministically.
    """

    protocol: str
    params: tuple[tuple[str, object], ...] = ()
    label: str | None = None

    @classmethod
    def of(
        cls,
        protocol: str | "ProtocolSpec",
        label: str | None = None,
        **params: object,
    ) -> ProtocolSpec:
        """Coerce a name (plus keyword parameters) into a spec."""
        if isinstance(protocol, ProtocolSpec):
            return protocol
        if protocol not in PROTOCOL_REGISTRY:
            raise RunnerError(
                f"unknown protocol {protocol!r}; known: {sorted(PROTOCOL_REGISTRY)}"
            )
        return cls(protocol=protocol, params=tuple(sorted(params.items())), label=label)

    @property
    def display_name(self) -> str:
        """The name used in results and reports."""
        if self.label:
            return self.label
        if self.params:
            rendered = ",".join(f"{k}={v}" for k, v in self.params)
            return f"{self.protocol}({rendered})"
        return self.protocol

    def build(self) -> RoutingProtocol:
        """Instantiate the protocol (called inside worker processes)."""
        try:
            factory = PROTOCOL_REGISTRY[self.protocol]
        except KeyError:
            raise RunnerError(
                f"unknown protocol {self.protocol!r}; known: {sorted(PROTOCOL_REGISTRY)}"
            ) from None
        return factory(**dict(self.params))

    def fingerprint(self) -> str:
        return _sha256(
            {
                "protocol": self.protocol,
                "params": [(k, repr(v)) for k, v in self.params],
            }
        )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Headline metrics of one protocol on one scenario.

    ``mlu`` is infinite and ``feasible`` False when the protocol could not
    route the scenario at all (e.g. an LP failure); ``error`` then carries
    the exception text.  ``runtime`` and ``cached`` describe how the number
    was obtained, not what it is — they are excluded from equality-relevant
    reporting (:meth:`as_row`).
    """

    scenario_id: str
    kind: str
    protocol: str
    mlu: float
    utility: float
    routed_volume: float
    dropped_volume: float
    feasible: bool
    connected: bool
    runtime: float = 0.0
    #: Amortised share of one-off setup (controller construction) charged to
    #: this cell, reported *separately* from ``runtime`` so incremental and
    #: cold per-cell timings stay comparable in the results store.
    setup_runtime: float = 0.0
    cached: bool = False
    error: str | None = None

    def as_row(self) -> dict[str, object]:
        """The deterministic part of the result (for tables and comparisons)."""
        return {
            "scenario": self.scenario_id,
            "kind": self.kind,
            "protocol": self.protocol,
            "mlu": round(self.mlu, 6) if math.isfinite(self.mlu) else self.mlu,
            "utility": round(self.utility, 6) if math.isfinite(self.utility) else self.utility,
            "routed": round(self.routed_volume, 6),
            "dropped": round(self.dropped_volume, 6),
            "feasible": self.feasible,
            "connected": self.connected,
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "kind": self.kind,
            "protocol": self.protocol,
            "mlu": self.mlu,
            "utility": self.utility,
            "routed_volume": self.routed_volume,
            "dropped_volume": self.dropped_volume,
            "feasible": self.feasible,
            "connected": self.connected,
            "runtime": self.runtime,
            "setup_runtime": self.setup_runtime,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> ScenarioResult:
        return cls(
            scenario_id=str(data["scenario_id"]),
            kind=str(data["kind"]),
            protocol=str(data["protocol"]),
            mlu=float(data["mlu"]),
            utility=float(data["utility"]),
            routed_volume=float(data["routed_volume"]),
            dropped_volume=float(data["dropped_volume"]),
            feasible=bool(data["feasible"]),
            connected=bool(data["connected"]),
            runtime=float(data.get("runtime", 0.0)),
            setup_runtime=float(data.get("setup_runtime", 0.0)),
            error=data.get("error"),  # type: ignore[arg-type]
        )


def evaluate_scenario(
    network: Network,
    demands: TrafficMatrix,
    scenario: Scenario,
    spec: ProtocolSpec,
) -> ScenarioResult:
    """Evaluate one (scenario, protocol) cell — the unit of batch work.

    Never raises: a broken cell — an inapplicable scenario (e.g. one built
    for a different topology) just as much as a routing failure — yields an
    infeasible result carrying the error text, so one pathological scenario
    cannot sink a thousand-cell sweep.
    """
    start = time.perf_counter()
    instance = None
    try:
        instance = scenario.apply(network, demands)
        if len(instance.demands) == 0:
            # Nothing left to route (everything dropped or scaled to zero):
            # an empty workload trivially fits, whatever the protocol.
            mlu, utility, feasible, error = 0.0, 0.0, True, None
        else:
            protocol = spec.build()
            flows = protocol.route(instance.network, instance.demands)
            utilization = flows.utilization()
            mlu = float(np.max(utilization)) if utilization.size else 0.0
            utility = normalized_utility(utilization) if utilization.size else 0.0
            feasible = bool(np.all(np.isfinite(utilization)))
            error = None
    except Exception as exc:  # noqa: BLE001 - worker boundary, reported in result
        mlu = float("inf")
        utility = float("-inf")
        feasible = False
        error = f"{type(exc).__name__}: {exc}"
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        kind=scenario.kind,
        protocol=spec.display_name,
        mlu=mlu,
        utility=utility,
        routed_volume=instance.demands.total_volume() if instance else 0.0,
        dropped_volume=instance.dropped_volume if instance else 0.0,
        feasible=feasible,
        connected=instance.fully_connected if instance else False,
        runtime=time.perf_counter() - start,
        error=error,
    )


def _result_from_loads(
    scenario: Scenario,
    spec: ProtocolSpec,
    instance: ScenarioInstance,
    loads: np.ndarray,
    capacities: np.ndarray,
    runtime: float,
) -> ScenarioResult:
    """Assemble a :class:`ScenarioResult` from batched aggregate link loads."""
    utilization = loads / capacities
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        kind=scenario.kind,
        protocol=spec.display_name,
        mlu=float(np.max(utilization)) if utilization.size else 0.0,
        utility=normalized_utility(utilization) if utilization.size else 0.0,
        routed_volume=instance.demands.total_volume(),
        dropped_volume=instance.dropped_volume,
        feasible=bool(np.all(np.isfinite(utilization))),
        connected=instance.fully_connected,
        runtime=runtime,
        error=None,
    )


def incremental_sweep_weights(
    protocol: RoutingProtocol | None, network: Network
) -> np.ndarray | None:
    """The weight vector an incremental failure sweep should use, or ``None``.

    Wraps :meth:`RoutingProtocol.ecmp_forwarding_weights` defensively: a
    protocol that cannot (or declines to) expose demand-independent ECMP
    weights simply keeps the cold per-cell path.
    """
    if protocol is None:
        return None
    try:
        return protocol.ecmp_forwarding_weights(network)
    except Exception:  # noqa: BLE001 - a broken hook means "cannot sweep"
        return None


def incremental_sweep_capacity_independent(
    protocol: RoutingProtocol | None, network: Network
) -> bool:
    """True when the protocol's sweep weights ignore link capacities.

    Capacity-degradation scenarios may only ride the incremental sweep for
    such protocols: capacity-derived defaults (Cisco InvCap) re-derive
    different weights on the degraded instance, so the cold and incremental
    paths would legitimately route differently.  Defensive like
    :func:`incremental_sweep_weights`: a broken hook means "not independent".
    """
    if protocol is None:
        return False
    try:
        return bool(protocol.capacity_independent_forwarding(network))
    except Exception:  # noqa: BLE001 - a broken hook means "cannot sweep"
        return False


def _incremental_eligible(scenario: Scenario, capacity_independent: bool = False) -> bool:
    """True for scenarios the online controller can replay as link events.

    Pure link/node failures are always eligible; scenarios carrying capacity
    factors additionally require the protocol's forwarding weights to be
    capacity-independent (see
    :func:`incremental_sweep_capacity_independent`).  A pure function of
    ``(spec, scenario)`` — never of cache state or chunking — so the
    route-flagged cache keys stay stable across runs.
    """
    from ..online.events import is_incremental_sweepable

    if not is_incremental_sweepable(scenario):
        return False
    if scenario.capacity_factors and not capacity_independent:
        return False
    return True


def _result_from_measurement(
    scenario: Scenario,
    spec: ProtocolSpec,
    measurement,
    runtime: float,
    setup_runtime: float = 0.0,
) -> ScenarioResult:
    """A :class:`ScenarioResult` from a controller measurement.

    Field-for-field equivalent to what :func:`evaluate_scenario` computes
    from a cold ``scenario.apply`` + route: the controller's load vector is
    base-indexed with zeros on failed links, and zero-utilization entries
    contribute nothing to MLU or ``sum log(1 - u)``.
    """
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        kind=scenario.kind,
        protocol=spec.display_name,
        mlu=measurement.mlu,
        utility=measurement.utility,
        routed_volume=measurement.routed_volume,
        dropped_volume=measurement.dropped_volume,
        feasible=measurement.feasible,
        connected=measurement.connected,
        runtime=runtime,
        setup_runtime=setup_runtime,
        error=None,
    )


def evaluate_scenarios(
    network: Network,
    demands: TrafficMatrix,
    scenarios: Sequence[Scenario],
    spec: ProtocolSpec,
    controller_params: dict[str, object] | None = None,
    baseline: object | None = None,
) -> list[ScenarioResult]:
    """Evaluate one protocol across several scenarios, batching where safe.

    Two fast paths run before the per-cell fallback:

    * scenarios that do not perturb the topology (pure demand scenarios)
      share the base network, so protocols whose forwarding state depends
      only on the network (see :meth:`RoutingProtocol.batch_link_loads`)
      route all of them against one compiled weight setting in a single
      stacked operation;
    * topology-perturbing scenarios against an even-ECMP protocol with
      demand-independent weights (:meth:`RoutingProtocol.ecmp_forwarding_weights`)
      are replayed through the online :class:`~repro.online.TEController`
      as incremental apply → measure → revert events, so a failure or
      brown-out sweep pays one delta update per perturbed trunk instead of
      a full recompute per scenario.  Pure link/node failures always
      qualify; scenarios carrying capacity factors additionally need
      capacity-independent weights
      (:meth:`RoutingProtocol.capacity_independent_forwarding`), since
      capacity-derived defaults re-derive differently on the degraded
      instance.

    Everything else -- demand+topology compounds, per-cell errors,
    protocols that re-optimise per matrix -- falls back to
    :func:`evaluate_scenario`, preserving its per-cell error isolation
    exactly.

    ``controller_params`` (``max_affected_fraction``, ``verify``) tune the
    incremental sweep's :class:`~repro.online.TEController`.  They never
    change the *numbers* — every fallback is cold-identical — only how much
    incremental work is attempted, so they stay out of the cache keys.

    ``baseline`` is an optional
    :class:`~repro.online.controller.ControllerBaseline` snapshot (built
    once by the parent :class:`BatchRunner`): the sweep controller then
    adopts the compiled per-destination state instead of re-running a cold
    Dijkstra per destination, and even a lone eligible scenario rides the
    incremental path (without a baseline a lone candidate is cheaper cold).
    Adoption is best-effort — a mismatched or unusable snapshot falls back
    to a locally built controller.
    """
    scenarios = list(scenarios)
    results: list[ScenarioResult | None] = [None] * len(scenarios)

    try:
        probe: RoutingProtocol | None = spec.build()
    except Exception:  # noqa: BLE001 - reported per cell by evaluate_scenario
        probe = None

    batchable: list[int] = []
    instances: dict[int, ScenarioInstance] = {}
    batch_protocol = probe
    if batch_protocol is not None and len(scenarios) > 1:
        # Probe with an empty ensemble: non-batchable protocols return None
        # and we skip the (scenario.apply) scan entirely rather than
        # materialising every demand-only instance twice.
        try:
            if batch_protocol.batch_link_loads(network, []) is None:
                batch_protocol = None
        except Exception:  # noqa: BLE001 - treat a broken probe as non-batchable
            batch_protocol = None
    if batch_protocol is not None and len(scenarios) > 1:
        for index, scenario in enumerate(scenarios):
            if scenario.perturbs_topology():
                continue
            try:
                instance = scenario.apply(network, demands)
            except Exception:  # noqa: BLE001 - re-applied (and reported) per cell
                continue
            if len(instance.demands) == 0:
                continue  # the empty-workload shortcut stays on the per-cell path
            instances[index] = instance
            batchable.append(index)

    if len(batchable) > 1:
        loads: np.ndarray | None = None
        elapsed = 0.0
        try:
            start = time.perf_counter()
            loads = batch_protocol.batch_link_loads(
                network, [instances[index].demands for index in batchable]
            )
            elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - batch is best-effort, fall back per cell
            loads = None
        if loads is not None and np.shape(loads) != (len(batchable), network.num_links):
            # A wrong-shaped return from a user-registered protocol must not
            # sink the sweep; treat it as "cannot batch" and go per cell.
            loads = None
        if loads is not None:
            capacities = network.capacities
            per_cell = elapsed / len(batchable)
            for row, index in enumerate(batchable):
                results[index] = _result_from_loads(
                    scenarios[index], spec, instances[index], loads[row], capacities, per_cell
                )

    sweep_weights = incremental_sweep_weights(probe, network)
    if sweep_weights is not None and len(demands):
        from ..online.controller import TEController
        from ..online.events import scenario_events

        capacity_independent = incremental_sweep_capacity_independent(probe, network)
        candidates: list[int] = []
        for index, scenario in enumerate(scenarios):
            if results[index] is not None or not _incremental_eligible(
                scenario, capacity_independent
            ):
                continue
            try:
                # Scenarios built for another topology fail loudly here and
                # keep the per-cell path, which reports the error in-result.
                scenario_events(network, scenario)
            except Exception:  # noqa: BLE001
                continue
            candidates.append(index)
        # A lone candidate is cheaper cold only when the controller must be
        # built from scratch: building it costs a full all-destination
        # baseline, which only amortises over several scenarios (mirrors the
        # demand-batch path's > 1 guard).  With a shared baseline snapshot
        # adoption is cheap, so even one candidate rides incrementally.
        if len(candidates) > 1 or (candidates and baseline is not None):
            try:
                start = time.perf_counter()
                controller = None
                if (
                    baseline is not None
                    and getattr(baseline, "demands", None) == dict(demands.items())
                    and np.array_equal(getattr(baseline, "weights", None), sweep_weights)
                ):
                    try:
                        controller = TEController.from_snapshot(
                            network,
                            baseline,
                            verify=bool((controller_params or {}).get("verify", False)),
                        )
                    except Exception:  # noqa: BLE001 - bad snapshot: build locally
                        controller = None
                if controller is None:
                    controller = TEController(
                        network,
                        demands,
                        weights=sweep_weights,
                        tolerance=getattr(probe, "ecmp_tolerance", 1e-9),
                        **(controller_params or {}),
                    )
                construction = time.perf_counter() - start
                start = time.perf_counter()
                measurements = controller.sweep_scenarios(
                    [scenarios[index] for index in candidates]
                )
                elapsed = time.perf_counter() - start
            except Exception:  # noqa: BLE001 - best-effort, fall back per cell
                measurements = None
            if measurements is not None:
                # Construction is the sweep's one-off amortised cost; charge
                # it to `setup_runtime`, not `runtime`, so a cell's runtime
                # measures the same thing on both evaluation paths.
                per_cell = elapsed / len(candidates)
                per_cell_setup = construction / len(candidates)
                for index, measurement in zip(candidates, measurements, strict=True):
                    results[index] = _result_from_measurement(
                        scenarios[index], spec, measurement, per_cell, per_cell_setup
                    )

    for index, scenario in enumerate(scenarios):
        if results[index] is None:
            results[index] = evaluate_scenario(network, demands, scenario, spec)
    return results  # type: ignore[return-value]


def _evaluate_chunk(
    payload: tuple[
        Network,
        TrafficMatrix,
        list[Scenario],
        ProtocolSpec,
        dict[str, object] | None,
        object | None,
    ],
) -> tuple[list[ScenarioResult], dict[str, object] | None]:
    """Worker entry point: evaluate a chunk of scenarios for one protocol.

    Returns ``(results, telemetry_snapshot)``.  When the parent run has
    telemetry active (``options["telemetry"]``), the worker activates a
    fresh registry around its chunk and ships the picklable snapshot back
    for the parent to :meth:`~repro.obs.TelemetryRegistry.merge`; otherwise
    the snapshot slot is ``None``.  ``baseline`` (the last payload slot) is
    the parent's shared :class:`~repro.online.controller.ControllerBaseline`
    for incremental-sweep specs, or ``None``.
    """
    network, demands, scenarios, spec, options, baseline = payload
    options = options or {}
    controller_params = options.get("controller")  # type: ignore[assignment]
    if not options.get("telemetry"):
        return (
            evaluate_scenarios(
                network,
                demands,
                scenarios,
                spec,
                controller_params=controller_params,
                baseline=baseline,
            ),
            None,
        )
    registry = telemetry.activate(
        telemetry.TelemetryRegistry(label=f"worker-{os.getpid()}")
    )
    try:
        with telemetry.span(
            "runner.chunk", protocol=spec.display_name, scenarios=len(scenarios)
        ):
            results = evaluate_scenarios(
                network,
                demands,
                scenarios,
                spec,
                controller_params=controller_params,
                baseline=baseline,
            )
        return results, registry.snapshot()
    finally:
        telemetry.deactivate()


def _telemetry_summary_record(
    topology: str, timings: dict[str, float]
) -> dict[str, object] | None:
    """Distil the active registry into manifest timings + one results record.

    The record rides the run under the reserved identity
    ``scenario="__telemetry__"`` and carries the incremental-vs-fallback
    counts with their per-reason breakdown; ``fallback_rate`` classifies as
    a *metric* in :func:`repro.results.diffing.classify_field`, so
    ``repro results diff`` hard-gates fallback-rate regressions between two
    traced runs, not just runtime drifts.  Returns ``None`` when telemetry
    is off or the run did no dynamic-SPT work (fully cached or cold-path
    runs must not grow a record that untraced runs lack).
    """
    registry = telemetry.get()
    if registry is None:
        return None
    incremental = registry.counter_value("dspt.update", path="incremental")
    fallbacks = registry.counter_breakdown("dspt.fallback")
    fallback_total = sum(fallbacks.values())
    attempts = incremental + fallback_total
    if not attempts:
        return None
    rate = fallback_total / attempts
    # Per-event rate alongside the historical per-update rate: the old
    # denominator counts per-destination update attempts, which understates
    # how many *events* abandoned the incremental path (see
    # :attr:`repro.online.dspt.DsptStats.event_fallback_rate`).
    events = registry.counter_value("dspt.events")
    fallback_events = registry.counter_value("dspt.fallback_events")
    event_rate = fallback_events / events if events else 0.0
    timings["dspt_fallback_rate"] = rate
    timings["dspt_event_fallback_rate"] = event_rate
    timings["dspt_incremental_updates"] = float(incremental)
    record: dict[str, object] = {
        "scenario": "__telemetry__",
        "kind": "telemetry",
        "protocol": "*",
        "topology": topology,
        "fallback_rate": round(rate, 6),
        "event_fallback_rate": round(event_rate, 6),
        "incremental_updates": int(incremental),
        "fallback_total": int(fallback_total),
        "fallback_events": int(fallback_events),
    }
    for tags, value in sorted(fallbacks.items()):
        reason = dict(tags).get("reason", "unknown").replace("-", "_")
        record[f"fallback_{reason}"] = int(value)
    return record


# ----------------------------------------------------------------------
# on-disk result cache
# ----------------------------------------------------------------------
#: Bump when the semantics of cached metrics change (invalidates old caches).
#: 2: routing moved to the vectorized sparse backend (float-round-off shifts).
#: 3: cache keys carry route flags (incremental failure sweeps vs cold), so
#:    results produced by different evaluation paths can never collide.
#: 4: the incremental sweep covers capacity-degradation and mixed scenarios
#:    (route flags now depend on the protocol's capacity independence), and
#:    factor-0 capacities are explicit link failures on both paths.
#: 5: one-shot routing left the dict-loop oracle for the stacked kernel
#:    (cold-cell loads shift at float round-off).
CACHE_VERSION = 5


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/scenarios``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro" / "scenarios"


class ResultCache:
    """A content-addressed store of scenario results (JSON file per key).

    Writes are atomic (tempfile + rename) so concurrent runners sharing a
    cache directory at worst duplicate work, never corrupt entries.  An
    in-memory layer absorbs repeated lookups within one process.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self._memory: dict[str, ScenarioResult] = {}

    @staticmethod
    def key(
        network_fp: str,
        demands_fp: str,
        scenario: Scenario,
        spec: ProtocolSpec,
        flags: dict[str, object] | None = None,
    ) -> str:
        return ResultCache.key_from_fingerprints(
            network_fp, demands_fp, scenario.fingerprint(), spec.fingerprint(), flags
        )

    @staticmethod
    def key_from_fingerprints(
        network_fp: str,
        demands_fp: str,
        scenario_fp: str,
        protocol_fp: str,
        flags: dict[str, object] | None = None,
    ) -> str:
        """Cache key from precomputed fingerprints (the batch fast path).

        ``flags`` partitions cells by their *designated* evaluation path
        (currently ``{"route": "incremental"}`` for cells eligible for the
        online controller's failure sweep) — a pure function of
        ``(spec, scenario)``, never of cache state or chunking, so keys are
        stable across runs.  Incremental-path and cold-path entries thus
        never share a key; the residual overlaps — the best-effort fallback
        (a controller failure mid-sweep re-evaluates the cell cold under
        its incremental key) and lone-candidate chunks (one eligible
        scenario is cheaper cold) — are safe because every configuration
        that flags incremental is result-equivalent on both paths
        (equivalence-tested to 1e-9).
        """
        from .. import __version__

        # The package version is part of the key so cached metrics never
        # survive a release that may have changed protocol implementations;
        # CACHE_VERSION covers semantic changes within a release cycle.
        payload = {
            "version": CACHE_VERSION,
            "package": __version__,
            "network": network_fp,
            "demands": demands_fp,
            "scenario": scenario_fp,
            "protocol": protocol_fp,
        }
        if flags:
            payload["flags"] = sorted((str(k), repr(v)) for k, v in flags.items())
        return _sha256(payload)

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small on big sweeps.
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> ScenarioResult | None:
        if key in self._memory:
            result = self._memory[key]
        else:
            path = self._path(key)
            try:
                result = ScenarioResult.from_dict(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, TypeError):
                # Unreadable, malformed or wrong-shaped entries (e.g. stray
                # files in a shared cache dir) are misses, never fatal.
                return None
            self._memory[key] = result
        hit = ScenarioResult.from_dict(result.to_dict())
        hit.cached = True
        return hit

    def put(self, key: str, result: ScenarioResult) -> None:
        self._memory[key] = result
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(result.to_dict(), sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def clear(self) -> int:
        """Remove every cached entry; returns the number of files deleted."""
        self._memory.clear()
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*/*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


# ----------------------------------------------------------------------
# batch runner
# ----------------------------------------------------------------------
@dataclass
class RunStats:
    """Bookkeeping of one :meth:`BatchRunner.run` call."""

    total: int = 0
    cache_hits: int = 0
    evaluated: int = 0
    chunks: int = 0
    workers: int = 0
    elapsed: float = 0.0
    #: One-off setup wall-clock of this run: shared-baseline builds in the
    #: parent plus controller construction inside chunks.  Equals the sum of
    #: ``setup_runtime`` over the run's evaluated (non-cached) results.
    setup_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


class BatchRunner:
    """Evaluate protocols across scenario sets, in parallel and cached.

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk result cache; ``None`` uses
        :func:`default_cache_dir`, ``False`` disables caching entirely.
    max_workers:
        Process pool size.  ``0`` or ``1`` evaluates serially in-process
        (no pool overhead — the right choice for small batches and tests);
        ``None`` uses ``os.cpu_count()``.
    chunk_size:
        Scenarios per worker task.  ``None`` auto-sizes to about four
        chunks per worker, which amortises dispatch overhead while keeping
        the pool load-balanced when scenario costs vary.
    results_store:
        A :class:`repro.results.ResultsStore` (or a path to one) to record
        every :meth:`run` into: a manifest (git sha, topology, protocols,
        scenario-set hash, ``CACHE_VERSION``, timings) plus one record per
        cell.  ``None`` (the default) records nothing.  The id of the most
        recent recorded run is available as :attr:`last_run_id`.

    Examples
    --------
    >>> from repro.topology.backbones import abilene_network
    >>> from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
    >>> from repro.scenarios import single_link_failures
    >>> net = abilene_network()
    >>> tm = abilene_traffic_matrix(net, total_volume=50.0, seed=1)
    >>> runner = BatchRunner(cache_dir=False, max_workers=0)
    >>> results = runner.run(net, tm, single_link_failures(net), ["OSPF"])
    >>> len(results)
    14
    """

    def __init__(
        self,
        cache_dir: str | Path | None | bool = None,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        results_store: str | Path | object | None = None,
    ) -> None:
        if cache_dir is False:
            self.cache: ResultCache | None = None
        else:
            self.cache = ResultCache(None if cache_dir in (None, True) else cache_dir)
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.last_stats = RunStats()
        self.results_store = results_store
        self.last_run_id: str | None = None

    def run(
        self,
        network: Network,
        demands: TrafficMatrix,
        scenarios: Sequence[Scenario],
        protocols: Iterable[str | ProtocolSpec],
        record_config: dict[str, object] | None = None,
        controller_params: dict[str, object] | None = None,
    ) -> list[ScenarioResult]:
        """Evaluate every protocol on every scenario.

        Results are returned in ``(protocol, scenario)`` input order
        regardless of which worker (or cache entry) produced them.  When
        the runner has a :attr:`results_store`, the run is recorded there
        with a full manifest; ``record_config`` adds caller context (CLI
        arguments, workload parameters) to that manifest.
        ``controller_params`` tunes the incremental sweep's controller (see
        :func:`evaluate_scenarios`); with telemetry active
        (:func:`repro.obs.telemetry.session`), worker registries are merged
        back into the active one and a summary lands in the recorded run.
        """
        specs = [ProtocolSpec.of(p) for p in protocols]
        scenarios = list(scenarios)
        start = time.perf_counter()
        stats = RunStats(total=len(specs) * len(scenarios))

        network_fp = network_fingerprint(network)
        demands_fp = demands_fingerprint(demands)
        # Fingerprints are hashed once per scenario/spec, not once per cell.
        scenario_fps = [scenario.fingerprint() for scenario in scenarios]
        spec_fps = [spec.fingerprint() for spec in specs]
        # Which specs can ride the incremental sweep: their eligible cells
        # get a route flag in the cache key, so incremental and cold results
        # never share an entry.  Eligibility is a pure function of
        # (spec, scenario) — never of which other cells hit the cache — so
        # keys are stable across runs and chunkings.  Capacity-bearing
        # scenarios additionally require capacity-independent weights.
        incremental_spec = []
        cap_independent_spec = []
        spec_sweep_weights: list[np.ndarray | None] = []
        spec_tolerance: list[float] = []
        for spec in specs:
            try:
                probe = spec.build()
            except Exception:  # noqa: BLE001 - broken specs error per cell
                probe = None
            sweep_weights = incremental_sweep_weights(probe, network)
            spec_sweep_weights.append(sweep_weights)
            spec_tolerance.append(float(getattr(probe, "ecmp_tolerance", 1e-9)))
            incremental_spec.append(sweep_weights is not None)
            cap_independent_spec.append(
                incremental_sweep_capacity_independent(probe, network)
            )

        def cell_incremental(si: int, ci: int) -> bool:
            return incremental_spec[si] and _incremental_eligible(
                scenarios[ci], cap_independent_spec[si]
            )

        # Resolve cache hits up front so only misses reach the pool.
        results: dict[tuple[int, int], ScenarioResult] = {}
        misses: list[tuple[int, int]] = []
        keys: dict[tuple[int, int], str] = {}
        for si, _spec in enumerate(specs):
            for ci, _scenario in enumerate(scenarios):
                cell = (si, ci)
                if self.cache is not None:
                    flags = (
                        {"route": "incremental"} if cell_incremental(si, ci) else None
                    )
                    key = ResultCache.key_from_fingerprints(
                        network_fp, demands_fp, scenario_fps[ci], spec_fps[si], flags
                    )
                    keys[cell] = key
                    hit = self.cache.get(key)
                    if hit is not None:
                        results[cell] = hit
                        stats.cache_hits += 1
                        continue
                misses.append(cell)

        stats.evaluated = len(misses)
        workers = self._effective_workers(len(misses))
        stats.workers = workers
        #: Cells designated for the incremental sweep, per spec — the
        #: amortisation base for shared-baseline setup.
        designated: dict[int, list[tuple[int, int]]] = {}
        for cell in misses:
            if cell_incremental(*cell):
                designated.setdefault(cell[0], []).append(cell)
        parent_setup: dict[int, float] = {}
        baselines: dict[int, object] = {}
        if telemetry.enabled():
            telemetry.count("runner.cells", stats.cache_hits, outcome="cache-hit")
            telemetry.count("runner.cells", len(misses), outcome="evaluated")
        if misses:
            options: dict[str, object] | None = None
            if controller_params or telemetry.enabled():
                options = {
                    "controller": controller_params,
                    "telemetry": telemetry.enabled(),
                }
            if workers <= 1:
                # Serial path: group by protocol so demand-only scenarios can
                # share one compiled weight setting (see evaluate_scenarios).
                by_spec: dict[int, list[tuple[int, int]]] = {}
                for cell in misses:
                    by_spec.setdefault(cell[0], []).append(cell)
                for si, cells in by_spec.items():
                    with telemetry.span(
                        "runner.chunk",
                        protocol=specs[si].display_name,
                        scenarios=len(cells),
                    ):
                        chunk_results = evaluate_scenarios(
                            network,
                            demands,
                            [scenarios[ci] for _, ci in cells],
                            specs[si],
                            controller_params=controller_params,
                        )
                    for cell, result in zip(cells, chunk_results, strict=True):
                        results[cell] = result
            else:
                # Build the compiled baseline once in the parent for every
                # incremental-sweep spec whose shards would otherwise each
                # pay a cold all-destination controller build; workers adopt
                # the pickled snapshot via TEController.from_snapshot.
                from ..online.controller import TEController

                for si, cells in designated.items():
                    if len(cells) < 2:
                        continue  # a lone cell is cheaper cold (serial parity)
                    start_setup = time.perf_counter()
                    try:
                        with telemetry.span(
                            "runner.baseline", protocol=specs[si].display_name
                        ):
                            controller = TEController(
                                network,
                                demands,
                                weights=spec_sweep_weights[si],
                                tolerance=spec_tolerance[si],
                                **(controller_params or {}),
                            )
                            baselines[si] = controller.snapshot()
                    except Exception:  # noqa: BLE001 - workers then build locally
                        baselines.pop(si, None)
                    parent_setup[si] = time.perf_counter() - start_setup
                chunks = self._chunk(
                    misses,
                    workers,
                    sharded_specs={
                        si for si in range(len(specs)) if incremental_spec[si]
                    },
                )
                stats.chunks = len(chunks)
                payloads = [
                    (
                        network,
                        demands,
                        [scenarios[ci] for _, ci in chunk],
                        specs[chunk[0][0]],
                        options,
                        baselines.get(chunk[0][0]),
                    )
                    for chunk in chunks
                ]
                registry = telemetry.get()
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for chunk, (chunk_results, snapshot) in zip(
                        chunks, pool.map(_evaluate_chunk, payloads), strict=True
                    ):
                        for cell, result in zip(chunk, chunk_results, strict=True):
                            results[cell] = result
                        if registry is not None and snapshot is not None:
                            registry.merge(snapshot)
            # Fair setup amortisation: chunk-side controller construction is
            # already charged to the cells it served; the parent's
            # shared-baseline build is spread evenly across the spec's
            # designated cells post-hoc.  Invariant (asserted in tests): the
            # sum of setup_runtime over evaluated cells equals
            # ``stats.setup_seconds``, the run's setup wall-clock.
            stats.setup_seconds = sum(results[cell].setup_runtime for cell in misses)
            for si, setup in parent_setup.items():
                cells = designated.get(si, [])
                if cells:
                    share = setup / len(cells)
                    for cell in cells:
                        results[cell].setup_runtime += share
                stats.setup_seconds += setup
            if self.cache is not None:
                for cell in misses:
                    # Error results are never cached: a transient failure
                    # (solver hiccup, memory pressure) must not permanently
                    # poison the cell as infeasible on disk.
                    if results[cell].error is None:
                        self.cache.put(keys[cell], results[cell])

        stats.elapsed = time.perf_counter() - start
        self.last_stats = stats
        ordered = [
            results[(si, ci)]
            for si in range(len(specs))
            for ci in range(len(scenarios))
        ]
        if self.results_store is not None:
            self.last_run_id = self._record(
                network, specs, scenarios, ordered, stats, record_config
            )
        return ordered

    def _record(
        self,
        network: Network,
        specs: Sequence[ProtocolSpec],
        scenarios: Sequence[Scenario],
        results: Sequence[ScenarioResult],
        stats: RunStats,
        record_config: dict[str, object] | None,
    ) -> str:
        """Write this run (manifest + one record per cell) to the store."""
        # Imported lazily: repro.results depends on this module's
        # CACHE_VERSION, and the store is optional machinery.
        from ..results import RunManifest, ResultsStore, scenario_set_fingerprint

        store = self.results_store
        owned = not isinstance(store, ResultsStore)
        if owned:
            store = ResultsStore(store)  # type: ignore[arg-type]
        try:
            config: dict[str, object] = {
                "scenarios": len(scenarios),
                "protocols": len(specs),
                "cache_hits": stats.cache_hits,
                "evaluated": stats.evaluated,
                "workers": stats.workers,
            }
            config.update(record_config or {})
            timings: dict[str, float] = {
                "elapsed": stats.elapsed,
                "setup_seconds": stats.setup_seconds,
            }
            telemetry_record = _telemetry_summary_record(network.name, timings)
            manifest = RunManifest.create(
                kind="sweep",
                topology=network.name,
                protocols=[spec.display_name for spec in specs],
                scenario_set=scenario_set_fingerprint(scenarios),
                config=config,
                timings=timings,
            )
            records = [
                {
                    **result.as_row(),
                    "topology": network.name,
                    "runtime": result.runtime,
                    "setup_runtime": result.setup_runtime,
                    "cached": result.cached,
                }
                for result in results
            ]
            if telemetry_record is not None:
                records.append(telemetry_record)
            # Traced runs additionally persist per-span timing aggregates
            # (scenario="__profile__") — the history `repro results perf`
            # trends and gates on.  Untraced runs add nothing, keeping them
            # record-identical to pre-telemetry behaviour.
            from ..obs.profiling import profile_records

            records.extend(profile_records(telemetry.get(), network.name))
            return store.record_run(manifest, records)
        finally:
            if owned:
                store.close()

    # ------------------------------------------------------------------
    # scheduling helpers
    # ------------------------------------------------------------------
    def _effective_workers(self, num_tasks: int) -> int:
        if self.max_workers is not None:
            workers = self.max_workers
        else:
            workers = os.cpu_count() or 1
        return max(0, min(workers, num_tasks))

    def _chunk(
        self,
        misses: list[tuple[int, int]],
        workers: int,
        sharded_specs: set | None = None,
    ) -> list[list[tuple[int, int]]]:
        """Split misses into per-protocol chunks of roughly equal size.

        Chunks never mix protocols so each worker payload carries exactly
        one spec; within a protocol, chunk size defaults to ~4 chunks per
        worker for load balancing.  Specs in ``sharded_specs`` (those that
        can ride the incremental controller sweep) instead get exactly one
        chunk per worker: every chunk builds its own controller — the
        sweep's amortised one-off cost — so fewer, larger shards beat finer
        load balancing.
        """
        by_spec: dict[int, list[tuple[int, int]]] = {}
        for cell in misses:
            by_spec.setdefault(cell[0], []).append(cell)
        chunks: list[list[tuple[int, int]]] = []
        for si, cells in by_spec.items():
            if self.chunk_size:
                size = self.chunk_size
            elif sharded_specs and si in sharded_specs:
                size = max(1, math.ceil(len(cells) / workers))
            else:
                size = max(1, math.ceil(len(cells) / (workers * 4)))
            for i in range(0, len(cells), size):
                chunks.append(cells[i : i + size])
        return chunks
