"""Scenario engine: failure sweeps, demand ensembles and a batch runner.

This subsystem generalises the paper's one-topology / one-matrix evaluation
(Section V) into *scenario sets* — families of perturbed ``(Network,
TrafficMatrix)`` instances — and evaluates any registered protocol across
them in parallel, serving cells it has already computed from the
:class:`~repro.results.ResultsStore`:

* :mod:`~repro.scenarios.scenario` — the declarative :class:`Scenario`
  model and fingerprints;
* :mod:`~repro.scenarios.generators` — deterministic failure sweeps and
  demand-uncertainty ensembles;
* :mod:`~repro.scenarios.runner` — :class:`BatchRunner`
  (``ProcessPoolExecutor`` + chunked dispatch + store-resident cells keyed
  by :func:`~repro.scenarios.runner.cell_key`);
* :mod:`~repro.scenarios.robustness` — distributional metrics (worst case,
  CVaR, regret vs. a re-optimised oracle).
"""

from .generators import (
    baseline_scenario,
    capacity_degradations,
    dual_link_failures,
    gravity_noise_ensemble,
    hotspot_surge_ensemble,
    node_failures,
    single_link_failures,
    standard_scenario_suite,
    uniform_scaling_ensemble,
)
from .robustness import (
    cvar,
    distribution_summary,
    group_by_protocol,
    metric_values,
    regret_rows,
    robustness_summary,
    worst_case,
)
from .runner import (
    PROTOCOL_REGISTRY,
    BatchRunner,
    ProtocolSpec,
    RunnerError,
    RunStats,
    ScenarioResult,
    evaluate_scenario,
    evaluate_scenarios,
    register_protocol,
)
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioInstance,
    combine,
    demands_fingerprint,
    network_fingerprint,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioInstance",
    "combine",
    "network_fingerprint",
    "demands_fingerprint",
    "baseline_scenario",
    "single_link_failures",
    "dual_link_failures",
    "node_failures",
    "capacity_degradations",
    "uniform_scaling_ensemble",
    "gravity_noise_ensemble",
    "hotspot_surge_ensemble",
    "standard_scenario_suite",
    "BatchRunner",
    "ProtocolSpec",
    "RunnerError",
    "RunStats",
    "ScenarioResult",
    "PROTOCOL_REGISTRY",
    "register_protocol",
    "evaluate_scenario",
    "evaluate_scenarios",
    "cvar",
    "distribution_summary",
    "group_by_protocol",
    "metric_values",
    "regret_rows",
    "robustness_summary",
    "worst_case",
]
