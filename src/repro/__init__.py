"""SPEF: optimal OSPF traffic engineering with one extra link weight.

Reproduction of "One More Weight is Enough: Toward the Optimal Traffic
Engineering with OSPF" (Xu, Liu, Liu, Shen -- ICDCS 2011).

The public API re-exports the pieces most users need:

* :class:`~repro.network.Network` / :class:`~repro.network.TrafficMatrix` --
  the problem inputs;
* :class:`~repro.core.LoadBalanceObjective` -- the (q, beta) objective family;
* :class:`~repro.core.SPEF` / :class:`~repro.protocols.SPEFProtocol` -- the
  protocol itself;
* the baselines (:class:`~repro.protocols.OSPF`,
  :class:`~repro.protocols.PEFT`, :class:`~repro.protocols.FortzThorup`,
  :class:`~repro.protocols.MinMaxMLU`);
* topologies and traffic generators used in the paper's evaluation;
* the scenario engine (:class:`~repro.scenarios.Scenario`,
  :class:`~repro.scenarios.BatchRunner`) for failure sweeps, demand
  ensembles and cached parallel robustness evaluation;
* the routing kernel (:mod:`repro.routing`): every routing path stacks its
  per-destination DAGs into one edge list and propagates flow level by
  level; :meth:`~repro.routing.CompiledDag.from_weights` compiles one
  weight setting and routes whole demand ensembles against it;
* the online control plane (:mod:`repro.online`):
  :class:`~repro.online.TEController` absorbing event streams over
  incremental shortest-path DAGs, :class:`~repro.online.ControllerSession`
  — the feed/read/subscribe API both the batch replay and the serve
  daemon drive — plus the closed-loop policies and the versioned event
  wire schema (:func:`~repro.online.to_dict` /
  :func:`~repro.online.from_dict`, trace files via
  :func:`~repro.online.read_event_trace`);
* the serving layer (:mod:`repro.serve`): the ``repro serve`` daemon — a
  long-running multi-tenant TE control service over JSON-lines TCP —
  with its blocking :class:`~repro.serve.ServeClient`;
* the observability layer (:mod:`repro.obs`): structured spans, counters
  and fixed-bucket histograms wired through the online controller, the
  scenario runner and the optimizers, exported as ``trace.jsonl`` files by
  ``repro trace``;
* the results store (:mod:`repro.results`): SQLite-backed run manifests,
  ``query``/``diff``/``aggregate`` over recorded sweeps and benchmarks, and
  the ``BENCH_*.json`` views — all scriptable through the ``repro`` CLI
  (:mod:`repro.cli`).
"""

from . import (
    core,
    network,
    obs,
    online,
    protocols,
    results,
    routing,
    scenarios,
    serve,
    solvers,
    topology,
    traffic,
)
from .core import (
    SPEF,
    LoadBalanceObjective,
    SPEFConfig,
    SPEFSolution,
    TEProblem,
    TESolution,
    solve_optimal_te,
)
from .network import FlowAssignment, Network, TrafficMatrix
from .online import (
    CapacityChange,
    ClosedLoopPolicy,
    ControllerSession,
    DemandUpdate,
    DynamicSPT,
    LinkFailure,
    LinkRecovery,
    LinkWeightChange,
    NetworkEvent,
    OraclePolicy,
    TEController,
    read_event_trace,
    replay_failure_trace,
    write_event_trace,
)
from .protocols import OSPF, PEFT, FortzThorup, MinMaxMLU, SPEFProtocol
from .results import ResultsStore, RunManifest
from .routing import CompiledDagSet
from .scenarios import BatchRunner, ProtocolSpec, Scenario, ScenarioResult
from .serve import ServeClient, TEServer

__version__ = "1.10.0"

__all__ = [
    "core",
    "network",
    "obs",
    "online",
    "protocols",
    "results",
    "routing",
    "scenarios",
    "serve",
    "solvers",
    "topology",
    "traffic",
    "CompiledDagSet",
    "SPEF",
    "LoadBalanceObjective",
    "SPEFConfig",
    "SPEFSolution",
    "TEProblem",
    "TESolution",
    "solve_optimal_te",
    "FlowAssignment",
    "Network",
    "TrafficMatrix",
    "OSPF",
    "PEFT",
    "FortzThorup",
    "MinMaxMLU",
    "SPEFProtocol",
    "Scenario",
    "ScenarioResult",
    "BatchRunner",
    "ProtocolSpec",
    "CapacityChange",
    "ClosedLoopPolicy",
    "ControllerSession",
    "DemandUpdate",
    "DynamicSPT",
    "LinkFailure",
    "LinkRecovery",
    "LinkWeightChange",
    "NetworkEvent",
    "OraclePolicy",
    "TEController",
    "read_event_trace",
    "replay_failure_trace",
    "write_event_trace",
    "ServeClient",
    "TEServer",
    "ResultsStore",
    "RunManifest",
    "__version__",
]
