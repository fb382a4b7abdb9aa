"""Parallel batch evaluation of protocols over scenario sets.

The evaluation loop of the paper — route one matrix on one topology, read off
MLU and utility — becomes, at scenario scale, an embarrassingly parallel
batch job: |scenarios| x |protocols| independent routing problems.  This
module provides the machinery to run that batch fast and repeatably:

* :class:`ProtocolSpec` — a picklable, hashable *description* of a protocol
  (registry name + constructor parameters).  Specs, not protocol instances,
  travel to worker processes and into cell keys.
* :func:`cell_key` — the content address of one cell,
  ``sha256(topology, demands, scenario, protocol, route flag)``, under which
  the :class:`~repro.results.ResultsStore` keeps the cell's result; repeated
  sweeps (the common case while exploring) skip straight to stored cells.
* :class:`BatchRunner` — chunked dispatch over a ``ProcessPoolExecutor``
  (or, serially, the same chunks through the built-in ``map``),
  store-aware scheduling (stored cells never reach a worker) and per-run
  statistics.

Worker payloads carry the base instance, a chunk of declarative scenarios,
one spec and that spec's probed :class:`_SweepPlan`; the scenario is
applied *inside* the worker so only the small base instance and the
declarative scenarios cross the process boundary.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.objectives import normalized_utility
from ..network.demands import TrafficMatrix
from ..network.graph import Network
from ..network.spt import DEFAULT_TOLERANCE, as_weight_vector, validate_weights
from ..obs import telemetry
from ..protocols.base import RoutingProtocol
from ..protocols.fortz_thorup import FortzThorup
from ..protocols.minmax_mlu import MinMaxMLU
from ..protocols.ospf import OSPF, MinHopOSPF
from ..protocols.peft import PEFT
from ..protocols.spef_protocol import SPEFProtocol
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioInstance,
    _sha256,
    demands_fingerprint,
    network_fingerprint,
)

if TYPE_CHECKING:
    from ..results.store import ResultsStore


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


@dataclass
class _SweepPlan:
    """What one probe of a spec's protocol hooks found (picklable).

    ``weights`` are the validated even-ECMP weights the incremental sweep
    holds fixed (``None``: the spec cannot sweep), ``tolerance`` the ECMP
    cost tolerance, ``capacity_independent`` whether those weights survive
    capacity scaling, and ``batchable`` whether demand-only scenarios can
    share one :meth:`RoutingProtocol.batch_link_loads` call.
    """

    weights: np.ndarray | None = None
    tolerance: float = DEFAULT_TOLERANCE
    capacity_independent: bool = False
    batchable: bool = False


def _probe(spec: ProtocolSpec, network: Network) -> _SweepPlan:
    """Call each protocol hook the fast paths depend on, once per spec.

    Protocol code is the one foreign boundary of the sweep: a hook that
    raises (or hands back weights that do not fit ``network``) only turns
    its fast path off, and :func:`evaluate_scenario` reports any real
    error per cell.
    """
    plan = _SweepPlan()
    try:
        protocol = spec.build()
    except Exception:  # noqa: BLE001 - reported per cell by evaluate_scenario
        return plan
    try:
        weights = protocol.ecmp_forwarding_weights(network)
        if weights is not None:
            plan.weights = as_weight_vector(network, weights)
            validate_weights(plan.weights)
            plan.tolerance = float(getattr(protocol, "ecmp_tolerance", DEFAULT_TOLERANCE))
    except Exception:  # noqa: BLE001 - a broken hook means "cannot sweep"
        plan.weights = None
    try:
        plan.capacity_independent = bool(protocol.capacity_independent_forwarding(network))
    except Exception:  # noqa: BLE001 - a broken hook means "not independent"
        plan.capacity_independent = False
    try:
        # Batchable protocols return an empty array for an empty ensemble.
        plan.batchable = protocol.batch_link_loads(network, []) is not None
    except Exception:  # noqa: BLE001 - a broken probe means "cannot batch"
        plan.batchable = False
    return plan


def _incremental_eligible(scenario: Scenario, capacity_independent: bool = False) -> bool:
    """True for scenarios the online controller can replay as link events.

    Pure link/node failures are always eligible; scenarios carrying capacity
    factors additionally require the protocol's forwarding weights to be
    capacity-independent (see
    :meth:`RoutingProtocol.capacity_independent_forwarding`).  A pure function of
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
      are replayed through one freshly built
      :class:`~repro.online.TEController` as incremental apply → measure →
      revert events, so a failure or brown-out sweep pays one delta update
      per perturbed trunk instead of a full recompute per scenario; even a
      lone eligible scenario takes this path (building the controller
      costs about as much as one cold cell).  Pure link/node failures always
      qualify; scenarios carrying capacity factors additionally need
      capacity-independent weights
      (:meth:`RoutingProtocol.capacity_independent_forwarding`), since
      capacity-derived defaults re-derive differently on the degraded
      instance.

    Everything else -- demand+topology compounds, per-cell errors,
    protocols that re-optimise per matrix -- falls back to
    :func:`evaluate_scenario`, preserving its per-cell error isolation
    exactly.  Only protocol code is guarded: a failure inside the
    controller sweep is a bug and propagates.
    """
    return _evaluate_planned(network, demands, scenarios, spec, _probe(spec, network))


def _evaluate_planned(
    network: Network,
    demands: TrafficMatrix,
    scenarios: Sequence[Scenario],
    spec: ProtocolSpec,
    plan: _SweepPlan,
) -> list[ScenarioResult]:
    """:func:`evaluate_scenarios` with the spec's :func:`_probe` already done."""
    scenarios = list(scenarios)
    results: list[ScenarioResult | None] = [None] * len(scenarios)

    batchable: list[int] = []
    instances: dict[int, ScenarioInstance] = {}
    if plan.batchable and len(scenarios) > 1:
        for index, scenario in enumerate(scenarios):
            if scenario.perturbs_topology():
                continue
            try:
                instance = scenario.apply(network, demands)
            except ScenarioError:
                continue  # re-applied (and reported) per cell
            if len(instance.demands) == 0:
                continue  # the empty-workload shortcut stays on the per-cell path
            instances[index] = instance
            batchable.append(index)

    if len(batchable) > 1:
        try:
            protocol = spec.build()
            start = time.perf_counter()
            loads = protocol.batch_link_loads(
                network, [instances[index].demands for index in batchable]
            )
            elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - protocol code: batch is best-effort, go per cell
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

    if plan.weights is not None and len(demands):
        from ..online.controller import TEController
        from ..online.events import EventError, scenario_events

        candidates: list[int] = []
        for index, scenario in enumerate(scenarios):
            if results[index] is not None or not _incremental_eligible(
                scenario, plan.capacity_independent
            ):
                continue
            try:
                # Scenarios built for another topology fail loudly here and
                # keep the per-cell path, which reports the error in-result.
                scenario_events(network, scenario)
            except EventError:
                continue
            candidates.append(index)
        if candidates:
            start = time.perf_counter()
            controller = TEController(
                network, demands, weights=plan.weights, tolerance=plan.tolerance
            )
            construction = time.perf_counter() - start
            start = time.perf_counter()
            measurements = controller.sweep_scenarios([scenarios[index] for index in candidates])
            elapsed = time.perf_counter() - start
            # Construction is the sweep's one-off amortised cost; charge it
            # to `setup_runtime`, not `runtime`, so a cell's runtime
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
        _SweepPlan,
        bool,
    ],
) -> tuple[list[ScenarioResult], dict[str, object] | None]:
    """Evaluate a chunk of scenarios for one protocol (the unit of dispatch).

    Returns ``(results, telemetry_snapshot)``.  The last payload slot is set
    when the chunk runs in a pool worker under a traced parent: the chunk
    then records into a fresh registry and ships its picklable snapshot back
    for the parent to :meth:`~repro.obs.TelemetryRegistry.merge`.  Serial
    chunks run in the parent's process and record straight into its active
    registry, so their snapshot slot is ``None``.
    """
    network, demands, scenarios, spec, plan, traced = payload

    def evaluate() -> list[ScenarioResult]:
        with telemetry.span("runner.chunk", protocol=spec.display_name, scenarios=len(scenarios)):
            return _evaluate_planned(network, demands, scenarios, spec, plan)

    if not traced:
        return evaluate(), None
    with telemetry.session(label=f"worker-{os.getpid()}") as registry:
        results = evaluate()
    return results, registry.snapshot()


def _telemetry_summary_record(
    topology: str, timings: dict[str, float]
) -> dict[str, object] | None:
    """Distil the active registry into manifest timings + one results record.

    The record rides the run under the reserved identity
    ``scenario="__telemetry__"`` and carries the dynamic-SPT work: events
    and ``rows_recomputed`` (dirty destination rows the builder re-ran).
    Both classify as *metrics* in :func:`repro.results.diffing.classify_field`,
    so ``repro results diff`` hard-fails when two traced runs of the same
    sweep (say serial and ``--parallel``) recompute different rows.
    Returns ``None`` when telemetry is off or the run applied no SPT
    events (fully cached or cold-path runs must not grow a record that
    untraced runs lack).
    """
    registry = telemetry.get()
    if registry is None:
        return None
    events = registry.counter_value("dspt.events")
    if not events:
        return None
    rows = registry.counter_value("dspt.update", path="incremental")
    timings["dspt_incremental_updates"] = float(rows)
    return {
        "scenario": "__telemetry__",
        "kind": "telemetry",
        "protocol": "*",
        "topology": topology,
        "events": int(events),
        "rows_recomputed": int(rows),
    }


# ----------------------------------------------------------------------
# cell keys
# ----------------------------------------------------------------------
#: Bump when the semantics of stored cell metrics change (old cells then
#: never hit again, and ``ResultsStore.gc`` drops them).
#: 2: routing moved to the vectorized sparse backend (float-round-off shifts).
#: 3: cache keys carry route flags (incremental failure sweeps vs cold), so
#:    results produced by different evaluation paths can never collide.
#: 4: the incremental sweep covers capacity-degradation and mixed scenarios
#:    (route flags now depend on the protocol's capacity independence), and
#:    factor-0 capacities are explicit link failures on both paths.
#: 5: one-shot routing left the dict-loop oracle for the stacked kernel
#:    (cold-cell loads shift at float round-off).
#: 6: Frank-Wolfe takes exact slope-root steps over a stacked iterate, so
#:    FW-based cells (SPEF, PEFT) shift at float round-off.
#: 7: the demands fingerprint hashes the sorted pair layout's index and
#:    volume arrays (same matrices, new digests).
CACHE_VERSION = 7


def cell_key(
    network_fp: str,
    demands_fp: str,
    scenario_fp: str,
    protocol_fp: str,
    flags: dict[str, object] | None = None,
) -> str:
    """Content address of one sweep cell from its four fingerprints.

    ``flags`` partitions cells by their *designated* evaluation path
    (currently ``{"route": "incremental"}`` for cells eligible for the
    online controller's failure sweep) — a pure function of
    ``(spec, scenario)``, never of store state or chunking, so keys are
    stable across runs.  Every flagged cell is evaluated by the incremental
    sweep, so incremental-path and cold-path results never share a key.
    """
    from .. import __version__

    # The package version is part of the key so stored metrics never
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
    #: One-off setup wall-clock of this run: the controller construction
    #: inside each chunk, i.e. the sum of ``setup_runtime`` over the run's
    #: evaluated (non-cached) results.
    setup_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


class BatchRunner:
    """Evaluate protocols across scenario sets, in parallel and stored.

    Parameters
    ----------
    max_workers:
        Process pool size.  ``0`` or ``1`` runs the same chunked pipeline
        in-process, one chunk per protocol, without a pool (no pool
        overhead — the right choice for small batches and tests); ``None``
        uses ``os.cpu_count()``.
    chunk_size:
        Scenarios per worker task of a pooled run.  ``None`` auto-sizes to
        about four chunks per worker, which amortises dispatch overhead
        while keeping the pool load-balanced when scenario costs vary.
    results_store:
        A :class:`repro.results.ResultsStore` (or a path to one).  Cells
        stored there under :func:`cell_key` never reach a worker; evaluated
        cells without an error are stored.  Every :meth:`run` is recorded
        there too: a manifest (git sha, topology, protocols, scenario-set
        hash, ``CACHE_VERSION``, timings) plus one record per cell, its id
        in :attr:`last_run_id`.  ``None`` (the default) does none of this.

    Examples
    --------
    >>> from repro.topology.backbones import abilene_network
    >>> from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
    >>> from repro.scenarios import single_link_failures
    >>> net = abilene_network()
    >>> tm = abilene_traffic_matrix(net, total_volume=50.0, seed=1)
    >>> runner = BatchRunner(max_workers=0)
    >>> results = runner.run(net, tm, single_link_failures(net), ["OSPF"])
    >>> len(results)
    14
    """

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        results_store: str | Path | ResultsStore | None = None,
    ) -> None:
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
    ) -> list[ScenarioResult]:
        """Evaluate every protocol on every scenario.

        Results are returned in ``(protocol, scenario)`` input order
        regardless of which worker (or stored cell) produced them.  When
        the runner has a :attr:`results_store`, the run is recorded there
        with a full manifest; ``record_config`` adds caller context (CLI
        arguments, workload parameters) to that manifest.  With telemetry active
        (:func:`repro.obs.telemetry.session`), worker registries are merged
        back into the active one and a summary lands in the recorded run;
        a traced run reads no stored cells but still stores what it
        evaluates.
        """
        from ..results import ResultsStore  # lazily: it imports CACHE_VERSION

        store = self.results_store
        if store is not None and not isinstance(store, ResultsStore):
            with ResultsStore(store) as opened:
                return self._run(opened, network, demands, scenarios, protocols, record_config)
        return self._run(store, network, demands, scenarios, protocols, record_config)

    def _run(
        self,
        store: ResultsStore | None,
        network: Network,
        demands: TrafficMatrix,
        scenarios: Sequence[Scenario],
        protocols: Iterable[str | ProtocolSpec],
        record_config: dict[str, object] | None,
    ) -> list[ScenarioResult]:
        specs = [ProtocolSpec.of(p) for p in protocols]
        scenarios = list(scenarios)
        start = time.perf_counter()
        stats = RunStats(total=len(specs) * len(scenarios))

        if store is not None:
            # Cell keys need fingerprints, hashed once per scenario/spec.
            network_fp = network_fingerprint(network)
            demands_fp = demands_fingerprint(demands, network)
            scenario_fps = [scenario.fingerprint() for scenario in scenarios]
            spec_fps = [spec.fingerprint() for spec in specs]
        # One probe per spec decides its fast paths.  Specs that can ride
        # the incremental sweep give their eligible cells a route flag in
        # the cell key, so incremental and cold results never share a
        # cell.  Eligibility is a pure function of (spec, scenario) — never
        # of which other cells are stored — so keys are stable across
        # runs and chunkings.  Capacity-bearing scenarios additionally
        # require capacity-independent weights.
        plans = [_probe(spec, network) for spec in specs]

        def cell_incremental(si: int, ci: int) -> bool:
            return plans[si].weights is not None and _incremental_eligible(
                scenarios[ci], plans[si].capacity_independent
            )

        # Resolve stored cells up front so only misses reach the pool.
        read = store is not None and not telemetry.enabled()
        results: dict[tuple[int, int], ScenarioResult] = {}
        misses: list[tuple[int, int]] = []
        keys: dict[tuple[int, int], str] = {}
        for si in range(len(specs)):
            for ci in range(len(scenarios)):
                cell = (si, ci)
                if store is not None:
                    flags = (
                        {"route": "incremental"} if cell_incremental(si, ci) else None
                    )
                    key = cell_key(
                        network_fp, demands_fp, scenario_fps[ci], spec_fps[si], flags
                    )
                    keys[cell] = key
                    stored = store.cell(key) if read else None
                    if stored is not None:
                        results[cell] = ScenarioResult.from_dict(stored)
                        results[cell].cached = True
                        stats.cache_hits += 1
                        continue
                misses.append(cell)

        stats.evaluated = len(misses)
        workers = self._effective_workers(len(misses))
        stats.workers = workers
        if telemetry.enabled():
            telemetry.count("runner.cells", stats.cache_hits, outcome="cache-hit")
            telemetry.count("runner.cells", len(misses), outcome="evaluated")
        if misses:
            sweepable = {si for si, plan in enumerate(plans) if plan.weights is not None}
            chunks = self._chunk(misses, workers, sweepable)
            stats.chunks = len(chunks)
            # Pool workers under a traced parent record into their own
            # registry (merged back below); serial chunks record directly.
            traced = workers > 1 and telemetry.enabled()
            payloads = [
                (
                    network,
                    demands,
                    [scenarios[ci] for _, ci in chunk],
                    specs[chunk[0][0]],
                    plans[chunk[0][0]],
                    traced,
                )
                for chunk in chunks
            ]
            registry = telemetry.get()
            with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
                dispatch = map if pool is None else pool.map
                for chunk, (chunk_results, snapshot) in zip(
                    chunks, dispatch(_evaluate_chunk, payloads), strict=True
                ):
                    for cell, result in zip(chunk, chunk_results, strict=True):
                        results[cell] = result
                    if registry is not None and snapshot is not None:
                        registry.merge(snapshot)
            # Each chunk charged its controller construction to the cells
            # it served, so the run's setup clock is their sum.
            stats.setup_seconds = sum(results[cell].setup_runtime for cell in misses)
            if store is not None:
                # Error results are never stored: a transient failure
                # (solver hiccup, memory pressure) must not permanently
                # poison the cell as infeasible.
                store.put_cells(
                    (keys[cell], results[cell].to_dict())
                    for cell in misses
                    if results[cell].error is None
                )

        stats.elapsed = time.perf_counter() - start
        self.last_stats = stats
        ordered = [
            results[(si, ci)]
            for si in range(len(specs))
            for ci in range(len(scenarios))
        ]
        if store is not None:
            self.last_run_id = self._record(
                store, network, specs, scenario_fps, ordered, stats, record_config
            )
        return ordered

    def _record(
        self,
        store: ResultsStore,
        network: Network,
        specs: Sequence[ProtocolSpec],
        scenario_fps: Sequence[str],
        results: Sequence[ScenarioResult],
        stats: RunStats,
        record_config: dict[str, object] | None,
    ) -> str:
        """Write this run (manifest + one record per cell) to the store."""
        from ..obs.profiling import profile_records
        from ..results import RunManifest

        config: dict[str, object] = {
            "scenarios": len(scenario_fps),
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
            # `scenario_set_fingerprint(scenarios)` over the run's own hashes.
            scenario_set=_sha256(sorted(scenario_fps)),
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
        # (scenario="__profile__") — the history `repro results plot`
        # trends and `repro results perf` gates on.  Untraced runs add nothing, keeping them
        # record-identical to pre-telemetry behaviour.
        records.extend(profile_records(telemetry.get(), network.name))
        return store.record_run(manifest, records)

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
        sharded_specs: set[int],
    ) -> list[list[tuple[int, int]]]:
        """Split misses into per-protocol chunks of roughly equal size.

        Chunks never mix protocols so each payload carries exactly one spec.
        A serial run (``workers <= 1``) gets one chunk per spec: there is no
        pool to balance.  Otherwise chunk size defaults to ~4 chunks per
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
            if workers <= 1:
                size = len(cells)
            elif self.chunk_size:
                size = self.chunk_size
            elif si in sharded_specs:
                size = max(1, math.ceil(len(cells) / workers))
            else:
                size = max(1, math.ceil(len(cells) / (workers * 4)))
            for i in range(0, len(cells), size):
                chunks.append(cells[i : i + size])
        return chunks
