"""Experiment harness: one function per table/figure of the paper.

Each function returns plain Python data structures (dicts, lists, numpy
arrays) that the ``benchmarks/`` modules print and sanity-check, and that the
``examples/`` scripts plot or tabulate.  Nothing here touches matplotlib so
the harness stays importable in headless CI.

The module also defines the *standard instances*: the (network, base traffic
matrix) pairs for Abilene, Cernet2 and the synthetic topologies, generated
with fixed seeds so every experiment is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from ..core.first_weights import compute_first_weights
from ..core.nem import compute_second_weights
from ..core.objectives import LoadBalanceObjective, normalized_utility
from ..core.spef import SPEF, SPEFConfig
from ..core.te_problem import TEProblem, solve_optimal_te
from ..network.demands import TrafficMatrix
from ..network.graph import Network, NetworkSummary
from ..network.spt import all_shortest_path_dags
from ..protocols.fortz_thorup import FortzThorup, link_cost
from ..protocols.minmax_mlu import MinMaxMLU
from ..protocols.ospf import OSPF, invcap_weights
from ..protocols.peft import PEFT
from ..protocols.spef_protocol import SPEFProtocol
from ..scenarios.generators import baseline_scenario, single_link_failures
from ..scenarios.robustness import regret_rows, robustness_summary
from ..scenarios.runner import BatchRunner, ProtocolSpec
from ..scenarios.scenario import Scenario
from ..simulator.simulation import simulate_protocol
from ..topology.backbones import abilene_network, cernet2_network
from ..topology.generators import hier50a, hier50b, rand50a, rand50b, rand100
from ..topology.paper_examples import (
    FIG4_LINKS,
    fig1_demands,
    fig1_network,
    fig4_demands,
    fig4_network,
)
from ..traffic.fortz_thorup_tm import abilene_traffic_matrix, fortz_thorup_traffic_matrix
from ..traffic.netflow import cernet2_traffic_matrix
from ..traffic.scaling import scale_to_network_load


# ----------------------------------------------------------------------
# Standard instances
# ----------------------------------------------------------------------
@dataclass
class Instance:
    """A named (network, base traffic matrix) pair used by the evaluation."""

    network: Network
    base_demands: TrafficMatrix
    kind: str
    #: Fractions of the saturation load swept in Fig. 10 for this instance.
    load_fractions: tuple[float, ...] = (0.55, 0.65, 0.75, 0.85, 0.95, 1.0)
    #: Cached network load at which the *optimal* (min-max) MLU reaches
    #: ``SATURATION_MLU``; computed lazily by :meth:`saturation_load`.
    _saturation_load: float | None = None

    #: Optimal MLU that defines "almost 100% utilisation" in the paper's
    #: demand-scaling procedure.  Kept a little below 1 so that the
    #: proportional-fairness optimum (whose MLU is >= the min-max optimum)
    #: still fits at the top of the sweep.
    SATURATION_MLU = 0.9

    def at_load(self, load: float) -> TrafficMatrix:
        """The base matrix uniformly scaled to a target network load."""
        return scale_to_network_load(self.network, self.base_demands, load)

    def saturation_load(self) -> float:
        """Network load at which the optimal MLU reaches ``SATURATION_MLU``.

        This reproduces the paper's procedure of "uniformly increasing the
        traffic demands until the maximal link utilization almost reaches
        100% with SPEF": SPEF realises the optimal TE, so its MLU equals the
        min-max LP optimum, which scales linearly with a uniform demand
        scaling.  One LP solve therefore pins down the saturation load.
        """
        if self._saturation_load is None:
            from ..solvers.mcf import solve_min_mlu

            base_load = self.base_demands.network_load(self.network)
            # The LP is badly conditioned on tiny volumes: solve it near load 1.
            # The MLU is linear in the scale, and a power of two is exact.
            scale = 2.0 ** -round(math.log2(base_load)) if base_load > 0 else 1.0
            base_mlu = solve_min_mlu(
                self.network, self.base_demands.scaled(scale), allow_overload=True
            ).objective / scale
            if base_mlu <= 0:
                raise ValueError("base traffic matrix routes with zero utilization")
            self._saturation_load = base_load * self.SATURATION_MLU / base_mlu
        return self._saturation_load

    def fig10_loads(self) -> list[float]:
        """The network-load levels swept in Fig. 10 for this instance."""
        saturation = self.saturation_load()
        return [round(fraction * saturation, 6) for fraction in self.load_fractions]

    def at_fraction(self, fraction: float) -> TrafficMatrix:
        """Demands scaled to ``fraction`` of the saturation load."""
        return self.at_load(fraction * self.saturation_load())


def _limit_pairs(
    demands: TrafficMatrix,
    max_pairs: int | None,
    max_destinations: int | None = None,
) -> TrafficMatrix:
    """Keep only the largest demands, optionally capping distinct destinations.

    The LP and Frank-Wolfe costs scale with the number of *commodities*
    (destinations), so the destination cap is the effective runtime knob for
    the 50/100-node synthetic topologies.
    """
    kept = dict(demands.items())
    if max_destinations is not None:
        by_destination: dict[object, float] = {}
        for (_source, target), volume in kept.items():
            by_destination[target] = by_destination.get(target, 0.0) + volume
        top = set(
            sorted(by_destination, key=by_destination.get, reverse=True)[:max_destinations]
        )
        kept = {pair: volume for pair, volume in kept.items() if pair[1] in top}
    if max_pairs is not None and len(kept) > max_pairs:
        largest = sorted(kept.items(), key=lambda item: item[1], reverse=True)[:max_pairs]
        kept = dict(largest)
    return TrafficMatrix(kept)


def standard_instances(
    max_pairs: int | None = 240, max_destinations: int | None = 20
) -> dict[str, Instance]:
    """The seven evaluation instances of Table III with their base workloads.

    ``max_pairs`` and ``max_destinations`` cap the demand matrix on the large
    synthetic topologies (the biggest demands / busiest destinations are
    kept); set both to ``None`` for the full all-pairs matrices at the cost of
    much slower LP solves.
    """
    instances: dict[str, Instance] = {}

    abilene = abilene_network()
    instances["Abilene"] = Instance(
        network=abilene,
        base_demands=abilene_traffic_matrix(abilene, total_volume=1.0, seed=1),
        kind="Backbone",
    )

    cernet2 = cernet2_network()
    instances["Cernet2"] = Instance(
        network=cernet2,
        base_demands=cernet2_traffic_matrix(cernet2, mean_utilization=0.25, seed=2010),
        kind="Backbone",
    )

    synthetic: list[tuple[str, Callable[[], Network]]] = [
        ("Hier50a", hier50a),
        ("Hier50b", hier50b),
        ("Rand50a", rand50a),
        ("Rand50b", rand50b),
        ("Rand100", rand100),
    ]
    for name, builder in synthetic:
        network = builder()
        seed = sum(ord(c) for c in name)
        demands = fortz_thorup_traffic_matrix(network, total_volume=1.0, seed=seed)
        demands = _limit_pairs(demands, max_pairs, max_destinations)
        kind = "2-level" if name.startswith("Hier") else "Random"
        instances[name] = Instance(network=network, base_demands=demands, kind=kind)
    return instances


def table3_topologies(instances: dict[str, Instance] | None = None) -> list[dict[str, object]]:
    """Table III: the properties of every evaluation network."""
    instances = instances or standard_instances()
    rows = []
    for name, instance in instances.items():
        summary = NetworkSummary.of(instance.network, kind=instance.kind)
        rows.append(
            {
                "network": name,
                "topology": instance.kind,
                "nodes": summary.num_nodes,
                "links": summary.num_links,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table I / Fig. 2 / Fig. 3 -- the Fig. 1 example
# ----------------------------------------------------------------------
def table1_weights_and_utilizations() -> list[dict[str, object]]:
    """Table I: weights and utilizations on Fig. 1 for several objectives."""
    network = fig1_network()
    demands = fig1_demands()
    rows: list[dict[str, object]] = []

    for beta in (0.0, 1.0):
        objective = LoadBalanceObjective(beta=beta)
        solution = solve_optimal_te(TEProblem(network, demands, objective))
        utilization = solution.flows.utilization()
        for link in network.links:
            rows.append(
                {
                    "objective": f"beta={beta:g}",
                    "link": f"{link.source}->{link.target}",
                    "weight": float(solution.link_weights[link.index]),
                    "utilization": float(utilization[link.index]),
                }
            )

    # Fortz-Thorup optimised integer weights with even ECMP splitting.
    ft = FortzThorup(max_weight=5, max_evaluations=200, seed=3)
    ft_flows = ft.route(network, demands)
    ft_weights = ft.last_result.weights
    ft_util = ft_flows.utilization()
    for link in network.links:
        rows.append(
            {
                "objective": "Fortz-Thorup",
                "link": f"{link.source}->{link.target}",
                "weight": float(ft_weights[link.index]),
                "utilization": float(ft_util[link.index]),
            }
        )

    # Min-max MLU LP routing.
    mlu = MinMaxMLU()
    mlu_flows = mlu.route(network, demands)
    mlu_weights = mlu.weights(network, demands)
    mlu_util = mlu_flows.utilization()
    for link in network.links:
        rows.append(
            {
                "objective": "min-max MLU",
                "link": f"{link.source}->{link.target}",
                "weight": float(mlu_weights[link.index]) if mlu_weights is not None else 0.0,
                "utilization": float(mlu_util[link.index]),
            }
        )
    return rows


def fig2_cost_curves(
    loads: Sequence[float] | None = None, capacity: float = 1.0
) -> dict[str, list[float]]:
    """Fig. 2: link cost as a function of load for FT and beta in {0, 1, 2}.

    The (q, beta) "cost" of carrying load f on a unit-capacity link is the
    utility loss ``V(c) - V(c - f)`` with q = 1, which is the natural
    counterpart of the Fortz-Thorup piecewise-linear cost.
    """
    if loads is None:
        loads = [round(x, 3) for x in np.linspace(0.0, 0.99, 100)]
    curves: dict[str, list[float]] = {"load": list(map(float, loads))}
    curves["FT"] = [link_cost(load * capacity, capacity) for load in loads]
    for beta in (0.0, 1.0, 2.0):
        objective = LoadBalanceObjective(beta=beta)
        base = float(objective.utility(np.array([capacity]))[0])
        values = []
        for load in loads:
            spare = capacity - load * capacity
            utility = float(objective.utility(np.array([spare]))[0])
            values.append(base - utility if np.isfinite(utility) else float("inf"))
        curves[f"beta={beta:g}"] = values
    return curves


def fig3_beta_sweep(betas: Sequence[float] | None = None) -> dict[str, dict[str, list[float]]]:
    """Fig. 3: first weights and utilizations on Fig. 1 as beta varies."""
    if betas is None:
        betas = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
    network = fig1_network()
    demands = fig1_demands()
    weights: dict[str, list[float]] = {f"{u}->{v}": [] for u, v in network.edges}
    utilizations: dict[str, list[float]] = {f"{u}->{v}": [] for u, v in network.edges}
    for beta in betas:
        objective = LoadBalanceObjective(beta=beta)
        solution = solve_optimal_te(TEProblem(network, demands, objective))
        utilization = solution.flows.utilization()
        for link in network.links:
            key = f"{link.source}->{link.target}"
            weights[key].append(float(solution.link_weights[link.index]))
            utilizations[key].append(float(utilization[link.index]))
    return {"beta": {"values": list(map(float, betas))}, "weights": weights, "utilizations": utilizations}


# ----------------------------------------------------------------------
# Fig. 5/6/7 -- the Fig. 4 example
# ----------------------------------------------------------------------
def fig4_example_results(betas: Sequence[float] = (0.0, 1.0, 5.0)) -> dict[str, object]:
    """Fig. 6 and Fig. 7: OSPF vs SPEF(beta) on the 7-node example topology."""
    network = fig4_network()
    demands = fig4_demands()
    link_labels = [f"{FIG4_LINKS[i][0]}->{FIG4_LINKS[i][1]}" for i in sorted(FIG4_LINKS)]

    ospf_util = OSPF().route(network, demands).utilization()
    results: dict[str, object] = {
        "link_labels": link_labels,
        "OSPF_utilization": [float(x) for x in ospf_util],
    }
    for beta in betas:
        protocol = SPEFProtocol.with_beta(beta)
        solution = protocol.fit(network, demands)
        results[f"SPEF{beta:g}_first_weights"] = [float(x) for x in solution.first_weights]
        results[f"SPEF{beta:g}_second_weights"] = [float(x) for x in solution.second_weights]
        results[f"SPEF{beta:g}_utilization"] = [float(x) for x in solution.utilization()]
    return results


def fig5_forwarding_table(beta: float = 1.0, destination: int = 2) -> dict[str, object]:
    """Fig. 5 / Table II: the SPEF forwarding entries towards one destination."""
    network = fig4_network()
    demands = fig4_demands()
    solution = SPEFProtocol.with_beta(beta).fit(network, demands)
    rows = []
    for node, table in solution.forwarding_tables.items():
        if destination not in table.entries:
            continue
        for entry in table.entries[destination]:
            rows.append(
                {
                    "node": node,
                    "destination": destination,
                    "next_hop": entry.next_hop,
                    "num_paths": entry.num_paths,
                    "path_lengths": tuple(round(x, 4) for x in entry.path_lengths),
                    "split_ratio": round(entry.split_ratio, 4),
                }
            )
    return {"rows": rows, "solution": solution}


# ----------------------------------------------------------------------
# Fig. 9 / Fig. 10 -- SPEF vs OSPF on the evaluation topologies
# ----------------------------------------------------------------------
def fig9_sorted_utilizations(
    instance: Instance,
    load: float | None = None,
    spef_config: SPEFConfig | None = None,
) -> dict[str, list[float]]:
    """Fig. 9: sorted link utilizations of OSPF and SPEF at one load level.

    ``load`` defaults to 85% of the instance's saturation load, the regime
    where the paper's Fig. 9 snapshots are taken (OSPF already overloading
    some links while SPEF still fits).
    """
    if load is None:
        load = 0.85 * instance.saturation_load()
    demands = instance.at_load(load)
    ospf_flows = OSPF().route(instance.network, demands)
    spef_protocol = SPEFProtocol(config=spef_config) if spef_config else SPEFProtocol()
    spef_flows = spef_protocol.route(instance.network, demands)
    return {
        "OSPF": [float(x) for x in ospf_flows.sorted_utilizations()],
        "SPEF": [float(x) for x in spef_flows.sorted_utilizations()],
    }


def fig10_utility_sweep(
    instance: Instance,
    loads: Sequence[float] | None = None,
    protocols: dict[str, Callable[[], object]] | None = None,
) -> dict[str, list[float]]:
    """Fig. 10: normalised utility of OSPF and SPEF across network loads."""
    loads = list(loads) if loads is not None else instance.fig10_loads()
    if protocols is None:
        protocols = {"OSPF": OSPF, "SPEF": SPEFProtocol}
    series: dict[str, list[float]] = {"load": [float(x) for x in loads]}
    for name, factory in protocols.items():
        values = []
        for load in loads:
            demands = instance.at_load(load)
            protocol = factory()
            flows = protocol.route(instance.network, demands)
            values.append(normalized_utility(flows.utilization()))
        series[name] = values
    return series


# ----------------------------------------------------------------------
# Table IV / Fig. 11 -- SPEF vs PEFT in the flow-level simulator
# ----------------------------------------------------------------------
def table4_demands() -> dict[str, TrafficMatrix]:
    """The demand sets of Table IV (simple network and Cernet2 backbone).

    The Cernet2 demands keep the paper's source/destination pairs and their
    relative sizes but are scaled down (factor 0.25): our Cernet2
    reconstruction attaches less regional capacity to the source PoPs 11 and
    14 than the paper's map, so the full Table IV volumes would not be
    routable on it.  The scaling preserves the experiment's purpose --
    comparing how SPEF and PEFT spread a fixed demand set over the backbone.
    """
    cernet2_demands = TrafficMatrix(
        {
            (11, 1): 3.0,
            (11, 2): 2.0,
            (11, 20): 2.0,
            (13, 6): 1.0,
            (14, 1): 4.0,
            (14, 8): 2.0,
        }
    ).scaled(0.25)
    return {"simple": fig4_demands(), "cernet2": cernet2_demands}


def fig11_simulation(
    case: str = "simple",
    duration: float = 400.0,
    seed: int = 7,
) -> dict[str, object]:
    """Fig. 11: mean per-link load of SPEF vs PEFT in the flow-level simulator."""
    demands_by_case = table4_demands()
    if case not in demands_by_case:
        raise ValueError(f"unknown case {case!r}; expected one of {sorted(demands_by_case)}")
    if case == "simple":
        network = fig4_network()
    else:
        network = cernet2_network()
    demands = demands_by_case[case]

    spef = SPEFProtocol()
    peft = PEFT()
    spef_result = simulate_protocol(network, demands, spef, duration=duration, seed=seed)
    peft_result = simulate_protocol(network, demands, peft, duration=duration, seed=seed)
    return {
        "network": network,
        "demands": demands,
        "SPEF": spef_result,
        "PEFT": peft_result,
        "SPEF_used_links": len(spef_result.used_links()),
        "PEFT_used_links": len(peft_result.used_links()),
        "SPEF_load_std": spef_result.load_variation(),
        "PEFT_load_std": peft_result.load_variation(),
    }


# ----------------------------------------------------------------------
# Table V -- equal-cost path histogram on Cernet2
# ----------------------------------------------------------------------
def table5_equal_cost_paths(
    load_fractions: Sequence[float] = (0.6, 0.8, 1.0),
    instance: Instance | None = None,
) -> dict[str, dict[int, int]]:
    """Table V: number of pairs with i equal-cost paths, OSPF vs SPEF per load.

    ``load_fractions`` are fractions of the instance's saturation load (the
    paper's three Cernet2 load levels 0.13 / 0.17 / 0.21 are, in its own
    scaling procedure, increasing fractions of the saturating demand).
    """
    from ..metrics.paths import equal_cost_path_histogram, histogram_from_dags

    if instance is None:
        instance = standard_instances()["Cernet2"]
    network = instance.network
    results: dict[str, dict[int, int]] = {}
    results["OSPF"] = equal_cost_path_histogram(network, invcap_weights(network))
    for fraction in load_fractions:
        load = fraction * instance.saturation_load()
        demands = instance.at_load(load)
        solution = SPEFProtocol().fit(network, demands)
        results[f"SPEF@{load:.3f}"] = histogram_from_dags(solution.dags, network)
    return results


# ----------------------------------------------------------------------
# Fig. 12 -- convergence of Algorithms 1 and 2
# ----------------------------------------------------------------------
def fig12_convergence(
    instance: Instance | None = None,
    load: float | None = None,
    alg1_step_ratios: Sequence[float] = (2.0, 1.0, 0.5, 0.1),
    alg2_step_ratios: Sequence[float] = (2.0, 1.0, 0.5, 0.25),
    alg1_iterations: int = 600,
    alg2_iterations: int = 200,
) -> dict[str, dict[str, list[float]]]:
    """Fig. 12: dual objective evolution of Algorithm 1 and 2 for several steps."""
    if instance is None:
        instance = standard_instances()["Cernet2"]
    if load is None:
        load = 0.85 * instance.saturation_load()
    network = instance.network
    demands = instance.at_load(load)
    objective = LoadBalanceObjective.proportional()

    alg1_series: dict[str, list[float]] = {}
    best_result = None
    for ratio in alg1_step_ratios:
        result = compute_first_weights(
            network,
            demands,
            objective=objective,
            max_iterations=alg1_iterations,
            tolerance=0.0,
            step_ratio=ratio,
            record_history=True,
        )
        alg1_series[f"ratio={ratio:g}"] = result.dual_objective_history
        if ratio == 1.0:
            best_result = result
    if best_result is None:
        best_result = compute_first_weights(
            network, demands, objective=objective, max_iterations=alg1_iterations, tolerance=0.0
        )

    # Algorithm 2 convergence on top of the default first weights.
    te_solution = solve_optimal_te(TEProblem(network, demands, objective))
    weights = te_solution.link_weights
    target = te_solution.flows.aggregate()
    tolerance = 0.05 * float(np.mean(weights[weights > 0])) if np.any(weights > 0) else 1e-9
    dags = all_shortest_path_dags(network, demands.destinations(), weights, tolerance)
    alg2_series: dict[str, list[float]] = {}
    for ratio in alg2_step_ratios:
        result = compute_second_weights(
            network,
            demands,
            dags,
            target,
            max_iterations=alg2_iterations,
            tolerance=0.0,
            step_ratio=ratio,
            record_history=True,
        )
        alg2_series[f"ratio={ratio:g}"] = result.dual_objective_history
    return {"algorithm1": alg1_series, "algorithm2": alg2_series}


# ----------------------------------------------------------------------
# Scenario robustness sweeps (beyond the paper: failures and demand
# uncertainty, evaluated with the parallel batch runner)
# ----------------------------------------------------------------------
def scenario_robustness_sweep(
    network: Network,
    demands: TrafficMatrix,
    scenarios: Sequence[Scenario] | None = None,
    protocols: Sequence[object] = ("OSPF", "SPEF"),
    oracle: object | None = "MinMaxMLU",
    metric: str = "mlu",
    cvar_alpha: float = 0.1,
    runner: BatchRunner | None = None,
    include_baseline: bool = True,
) -> dict[str, object]:
    """Evaluate protocols across a scenario set and summarise robustness.

    The scenario-engine counterpart of the per-figure experiments above:
    instead of one (topology, matrix) point it sweeps a whole scenario set
    (defaulting to the baseline plus every single-trunk failure) through the
    parallel :class:`~repro.scenarios.runner.BatchRunner` and returns

    * ``results`` — the flat per-(scenario, protocol) result list,
    * ``summary`` — one robustness row per protocol (mean / median /
      worst-case / CVaR of ``metric``, plus regret when an oracle is given),
    * ``regret`` — per-scenario regret rows against ``oracle`` re-optimised
      for each perturbed instance (``None`` oracle skips both),
    * ``stats`` — the runner's cache/parallelism statistics.

    ``protocols`` and ``oracle`` accept registry names (``"OSPF"``) or
    :class:`~repro.scenarios.runner.ProtocolSpec` objects.
    """
    if scenarios is None:
        scenarios = single_link_failures(network)
    scenarios = list(scenarios)
    if include_baseline and not any(s.is_baseline() for s in scenarios):
        scenarios = [baseline_scenario()] + scenarios
    # The implicit runner has no store: stored cells are an explicit
    # opt-in (pass a BatchRunner with a results_store).
    runner = runner or BatchRunner(max_workers=0)

    specs = [ProtocolSpec.of(p) for p in protocols]
    oracle_spec = ProtocolSpec.of(oracle) if oracle is not None else None
    all_specs = list(specs)
    if oracle_spec is not None and oracle_spec not in all_specs:
        all_specs.append(oracle_spec)

    results = runner.run(network, demands, scenarios, all_specs)
    per_scenario = len(scenarios)
    by_spec = {
        spec.display_name: results[i * per_scenario : (i + 1) * per_scenario]
        for i, spec in enumerate(all_specs)
    }
    protocol_results = [r for spec in specs for r in by_spec[spec.display_name]]
    oracle_results = by_spec[oracle_spec.display_name] if oracle_spec is not None else None

    summary = robustness_summary(
        protocol_results, metric=metric, cvar_alpha=cvar_alpha, oracle=oracle_results
    )
    regret = (
        regret_rows(protocol_results, oracle_results, metric=metric)
        if oracle_results is not None
        else []
    )
    return {
        "results": protocol_results,
        "oracle_results": oracle_results,
        "summary": summary,
        "regret": regret,
        "stats": runner.last_stats,
        "scenarios": scenarios,
    }


# ----------------------------------------------------------------------
# Fig. 13 -- impact of integer weights
# ----------------------------------------------------------------------
def fig13_integer_weights(
    instance: Instance, loads: Sequence[float] | None = None
) -> dict[str, list[float]]:
    """Fig. 13: normalised utility with fractional vs rounded integer weights."""
    loads = list(loads) if loads is not None else instance.fig10_loads()
    series: dict[str, list[float]] = {"load": [float(x) for x in loads]}
    for label, integer in (("Noninteger", False), ("Integer", True)):
        values = []
        for load in loads:
            demands = instance.at_load(load)
            config = SPEFConfig(integer_weights=integer)
            solution = SPEF(config=config).fit(instance.network, demands)
            values.append(solution.normalized_utility())
        series[label] = values
    return series
