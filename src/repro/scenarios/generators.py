"""Deterministic scenario generators: failure sweeps and demand ensembles.

Every generator returns a list of :class:`~repro.scenarios.scenario.Scenario`
objects and is fully determined by its arguments — a fixed seed always yields
the identical scenario set (ids included), which is what makes the batch
runner's stored cells and the property-based determinism tests possible.

Failure families (perturb the network):

* :func:`single_link_failures` / :func:`dual_link_failures` — the classic
  TE robustness sweeps (every single / pair of bidirectional trunks down);
* :func:`node_failures` — whole-PoP outages;
* :func:`capacity_degradations` — partial brown-outs (a sampled subset of
  links at a fraction of nominal capacity).

Demand families (perturb the traffic matrix; the paper's single-matrix
evaluation corresponds to the baseline member of each ensemble):

* :func:`uniform_scaling_ensemble` — the paper's Fig. 10 load sweep recast
  as scenarios;
* :func:`gravity_noise_ensemble` — lognormal multiplicative noise on every
  pair, the standard model for traffic-matrix estimation error;
* :func:`hotspot_surge_ensemble` — a few destinations suddenly pull far more
  traffic (flash crowds).
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Iterable, Sequence

import numpy as np

from ..network.demands import Pair, TrafficMatrix
from ..network.graph import Edge, Network, Node
from .scenario import Scenario, ScenarioError


def baseline_scenario() -> Scenario:
    """The identity scenario (unperturbed network and demands)."""
    return Scenario(scenario_id="baseline", kind="baseline")


# ----------------------------------------------------------------------
# failure sweeps
# ----------------------------------------------------------------------
def _trunk_groups(network: Network, duplex: bool) -> list[tuple[str, tuple[Edge, ...]]]:
    """Failure units: bidirectional trunks when ``duplex``, else single links.

    Backbone fibre cuts take out both directions at once, so the default
    sweep granularity is the undirected trunk; ``duplex=False`` enumerates
    directed links individually (e.g. for asymmetric interface failures).
    """
    groups: list[tuple[str, tuple[Edge, ...]]] = []
    seen: set = set()
    for link in network.links:
        u, v = link.endpoints
        if duplex:
            if frozenset((u, v)) in seen:
                continue
            seen.add(frozenset((u, v)))
            edges: tuple[Edge, ...] = (
                ((u, v), (v, u)) if network.has_link(v, u) else ((u, v),)
            )
            groups.append((f"{u}-{v}", edges))
        else:
            groups.append((f"{u}>{v}", ((u, v),)))
    return groups


def single_link_failures(network: Network, duplex: bool = True) -> list[Scenario]:
    """One scenario per failed trunk (both directions) or directed link."""
    return [
        Scenario(scenario_id=f"link:{label}", kind="link-failure", failed_links=edges)
        for label, edges in _trunk_groups(network, duplex)
    ]


def dual_link_failures(
    network: Network,
    duplex: bool = True,
    limit: int | None = None,
    seed: int = 0,
) -> list[Scenario]:
    """Every unordered pair of trunk failures, optionally down-sampled.

    With ``limit`` set, a deterministic sample of ``limit`` pairs is drawn
    with ``seed`` (the full dual sweep grows quadratically in the number of
    trunks, which is the first place a sweep stops fitting in one run).
    """
    groups = _trunk_groups(network, duplex)
    pairs = list(combinations(range(len(groups)), 2))
    if limit is not None and limit < len(pairs):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(pairs), size=limit, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]
    scenarios = []
    for i, j in pairs:
        label_i, edges_i = groups[i]
        label_j, edges_j = groups[j]
        scenarios.append(
            Scenario(
                scenario_id=f"link2:{label_i}+{label_j}",
                kind="link-failure",
                failed_links=edges_i + edges_j,
                seed=seed if limit is not None else None,
            )
        )
    return scenarios


def node_failures(network: Network, nodes: Iterable[Node] | None = None) -> list[Scenario]:
    """One scenario per failed node (all incident links removed)."""
    candidates = list(nodes) if nodes is not None else network.nodes
    return [
        Scenario(scenario_id=f"node:{node}", kind="node-failure", failed_nodes=(node,))
        for node in candidates
    ]


def capacity_degradations(
    network: Network,
    count: int = 10,
    factor: float = 0.5,
    links_per_scenario: int = 2,
    duplex: bool = True,
    seed: int = 0,
) -> list[Scenario]:
    """Seeded brown-out scenarios: sampled trunks at ``factor`` of capacity.

    Each of the ``count`` scenarios picks ``links_per_scenario`` distinct
    trunks uniformly at random (deterministic in ``seed``) and multiplies
    their capacities by ``factor`` — modelling LAG member loss or scheduled
    maintenance rather than a full cut.
    """
    if not 0 < factor < 1:
        raise ScenarioError(f"degradation factor must be in (0, 1), got {factor}")
    groups = _trunk_groups(network, duplex)
    if links_per_scenario > len(groups):
        raise ScenarioError(
            f"links_per_scenario={links_per_scenario} exceeds the {len(groups)} available trunks"
        )
    rng = np.random.default_rng(seed)
    scenarios = []
    for index in range(count):
        chosen = sorted(rng.choice(len(groups), size=links_per_scenario, replace=False))
        factors: tuple[tuple[Edge, float], ...] = tuple(
            (edge, factor) for i in chosen for edge in groups[i][1]
        )
        scenarios.append(
            Scenario(
                scenario_id=f"cap:{index:03d}@{factor:g}",
                kind="capacity",
                capacity_factors=factors,
                seed=seed,
            )
        )
    return scenarios


# ----------------------------------------------------------------------
# demand ensembles
# ----------------------------------------------------------------------
def uniform_scaling_ensemble(factors: Sequence[float]) -> list[Scenario]:
    """One scenario per uniform demand scale factor (the Fig. 10 sweep)."""
    scenarios = []
    for factor in factors:
        if factor < 0:
            raise ScenarioError(f"demand scale factor must be non-negative, got {factor}")
        scenarios.append(
            Scenario(
                scenario_id=f"scale:{factor:g}",
                kind="demand",
                demand_scale=float(factor),
            )
        )
    return scenarios


def gravity_noise_ensemble(
    demands: TrafficMatrix,
    size: int = 20,
    sigma: float = 0.25,
    preserve_total: bool = True,
    seed: int = 0,
) -> list[Scenario]:
    """Lognormal multiplicative noise on every demand pair.

    Traffic matrices inferred from link counts (the gravity model of
    :mod:`repro.traffic.gravity`) carry substantial per-pair estimation
    error; the conventional model is i.i.d. lognormal noise of spread
    ``sigma``.  With ``preserve_total`` the factors are renormalised so each
    ensemble member keeps the base matrix's total volume — isolating the
    effect of *shape* uncertainty from load uncertainty.
    """
    if sigma < 0:
        raise ScenarioError(f"noise sigma must be non-negative, got {sigma}")
    pairs = demands.pairs()
    rng = np.random.default_rng(seed)
    scenarios = []
    volumes = np.array([demands[pair] for pair in pairs], dtype=float)
    for index in range(size):
        noise = np.exp(rng.normal(0.0, sigma, size=len(pairs)))
        if preserve_total and volumes.sum() > 0:
            noise *= volumes.sum() / float(np.dot(volumes, noise))
        factors: tuple[tuple[Pair, float], ...] = tuple(
            (pair, round(float(noise[i]), 12)) for i, pair in enumerate(pairs)
        )
        scenarios.append(
            Scenario(
                scenario_id=f"gravity-noise:{index:03d}@{sigma:g}",
                kind="demand",
                demand_factors=factors,
                seed=seed,
            )
        )
    return scenarios


def hotspot_surge_ensemble(
    demands: TrafficMatrix,
    size: int = 10,
    surge: float = 3.0,
    hotspots: int = 1,
    seed: int = 0,
) -> list[Scenario]:
    """Flash-crowd scenarios: all demands into sampled destinations surge.

    Each member picks ``hotspots`` destinations (deterministic in ``seed``)
    and multiplies every demand terminating there by ``surge`` — the
    worst-kind perturbation for protocols tuned to an average matrix.
    """
    if surge < 0:
        raise ScenarioError(f"surge factor must be non-negative, got {surge}")
    destinations = demands.destinations()
    if hotspots > len(destinations):
        raise ScenarioError(
            f"hotspots={hotspots} exceeds the {len(destinations)} demand destinations"
        )
    rng = np.random.default_rng(seed)
    scenarios = []
    for index in range(size):
        chosen_idx = sorted(rng.choice(len(destinations), size=hotspots, replace=False))
        chosen = {destinations[i] for i in chosen_idx}
        factors: tuple[tuple[Pair, float], ...] = tuple(
            (pair, float(surge)) for pair in demands.pairs() if pair[1] in chosen
        )
        label = ",".join(str(destinations[i]) for i in chosen_idx)
        scenarios.append(
            Scenario(
                scenario_id=f"hotspot:{index:03d}@{label}",
                kind="demand",
                demand_factors=factors,
                seed=seed,
            )
        )
    return scenarios


def standard_scenario_suite(
    network: Network,
    demands: TrafficMatrix,
    ensemble_size: int = 10,
    seed: int = 0,
) -> list[Scenario]:
    """A mixed suite: baseline + all single failures + demand ensembles.

    The convenient default for robustness reports — broad enough to exercise
    every scenario family, small enough to run interactively.
    """
    suite: list[Scenario] = [baseline_scenario()]
    suite += single_link_failures(network)
    suite += capacity_degradations(network, count=ensemble_size, seed=seed)
    suite += gravity_noise_ensemble(demands, size=ensemble_size, seed=seed + 1)
    suite += hotspot_surge_ensemble(demands, size=ensemble_size, seed=seed + 2)
    return suite
