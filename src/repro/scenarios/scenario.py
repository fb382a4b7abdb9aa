"""Declarative network/demand perturbations (the *what-if* instances).

The paper evaluates SPEF on a handful of static topologies with one traffic
matrix per figure (Section V).  Real traffic engineering has to survive link
and node failures, maintenance windows and demand uncertainty, so this module
introduces :class:`Scenario`: an immutable, picklable *description* of a
perturbation that can be applied to any ``(Network, TrafficMatrix)`` pair.

Keeping scenarios declarative (rather than storing perturbed networks) has
three payoffs:

* they are tiny, hashable and cheap to ship to worker processes;
* the same scenario set can be replayed against several base instances;
* a stable :meth:`Scenario.fingerprint` makes them usable as cell keys for
  the batch runner (:mod:`repro.scenarios.runner`).

A scenario can fail directed links, fail nodes (all incident links), scale
individual link capacities, and rescale demands globally or per pair.
Applying it yields a :class:`ScenarioInstance` wrapping the perturbed network
and traffic matrix; demands whose endpoints become disconnected are dropped
and accounted for in :attr:`ScenarioInstance.dropped_volume`, mirroring how a
real network simply loses traffic it can no longer deliver.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra

from ..network.demands import Pair, TrafficMatrix
from ..network.graph import Edge, Network, Node


class ScenarioError(ValueError):
    """Raised for malformed scenarios (unknown links, negative factors, ...)."""


@dataclass(frozen=True)
class Scenario:
    """An immutable description of one what-if perturbation.

    Attributes
    ----------
    scenario_id:
        Stable human-readable identifier, e.g. ``"link:5-6"``.  Scenario ids
        are unique within one generated set and appear in reports.
    kind:
        Scenario family (``"baseline"``, ``"link-failure"``,
        ``"node-failure"``, ``"capacity"``, ``"demand"``, ``"compound"``).
    failed_links:
        Directed links removed from the network.
    failed_nodes:
        Nodes whose incident links (both directions) are all removed.  The
        node itself stays in the graph so node indexing is preserved.
    capacity_factors:
        Per-link capacity multipliers ``((u, v), factor)``.  A factor of 0
        removes the link (equivalent to failing it).
    demand_scale:
        Uniform multiplier applied to every demand.
    demand_factors:
        Per-pair demand multipliers ``((s, t), factor)`` applied on top of
        ``demand_scale``.
    seed:
        The seed of the generator that produced this scenario (metadata used
        for provenance; it does not influence :meth:`apply`).
    """

    scenario_id: str
    kind: str = "baseline"
    failed_links: tuple[Edge, ...] = ()
    failed_nodes: tuple[Node, ...] = ()
    capacity_factors: tuple[tuple[Edge, float], ...] = ()
    demand_scale: float = 1.0
    demand_factors: tuple[tuple[Pair, float], ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.demand_scale < 0:
            raise ScenarioError(f"demand scale must be non-negative, got {self.demand_scale}")
        for _, factor in self.capacity_factors:
            if factor < 0:
                raise ScenarioError(f"capacity factor must be non-negative, got {factor}")
        for _, factor in self.demand_factors:
            if factor < 0:
                raise ScenarioError(f"demand factor must be non-negative, got {factor}")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A stable hash of everything that influences :meth:`apply`.

        The fingerprint is what the batch runner's cell keys hash in, so
        it covers the perturbation fields (and the id/kind for auditability)
        but deliberately ignores ``seed``, which is provenance metadata.
        """
        payload = {
            "id": self.scenario_id,
            "kind": self.kind,
            "failed_links": sorted(repr(edge) for edge in self.failed_links),
            "failed_nodes": sorted(repr(node) for node in self.failed_nodes),
            "capacity_factors": sorted(
                (repr(edge), round(float(f), 12)) for edge, f in self.capacity_factors
            ),
            "demand_scale": round(float(self.demand_scale), 12),
            "demand_factors": sorted(
                (repr(pair), round(float(f), 12)) for pair, f in self.demand_factors
            ),
        }
        return _sha256(payload)

    def is_baseline(self) -> bool:
        """True when the scenario leaves network and demands untouched."""
        return (
            not self.failed_links
            and not self.failed_nodes
            and not self.capacity_factors
            and not self.demand_factors
            and self.demand_scale == 1.0
        )

    def perturbs_topology(self) -> bool:
        """True when applying the scenario can change the *network*.

        Demand-only scenarios (``perturbs_topology() is False``) reproduce
        the base topology exactly, which lets the batch runner route them
        against one compiled weight setting in a single stacked operation.
        """
        return bool(self.failed_links or self.failed_nodes or self.capacity_factors)

    def merged_capacity_factors(self) -> dict[Edge, float]:
        """Per-edge capacity multipliers with duplicates merged multiplicatively.

        The single source of truth for how ``capacity_factors`` listing the
        same edge twice compose (e.g. after :func:`combine`): :meth:`apply`
        and the online controller's event converter
        (:func:`repro.online.events.scenario_events`) both use it, so a
        twice-listed edge degrades by the *product* of its factors on every
        evaluation path.
        """
        factors: dict[Edge, float] = {}
        for edge, factor in self.capacity_factors:
            factors[edge] = factors.get(edge, 1.0) * factor
        return factors

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, network: Network, demands: TrafficMatrix) -> ScenarioInstance:
        """Materialise the perturbed ``(Network, TrafficMatrix)`` pair.

        Demands between pairs that the perturbed network can no longer
        connect are dropped (their volume is reported, not routed); a
        protocol evaluated on the instance therefore always sees a routable
        workload, and robustness metrics can penalise the lost traffic
        separately.
        """
        removed: set[Edge] = set(self.failed_links)
        dead_nodes: set[Node] = set(self.failed_nodes)
        factors: dict[Edge, float] = self.merged_capacity_factors()

        # Checked in declaration order, so the first unknown edge or node
        # reported does not depend on hash order.
        for edge in [*self.failed_links, *factors]:
            if not network.has_link(*edge):
                raise ScenarioError(f"scenario {self.scenario_id!r}: unknown link {edge}")
        for node in self.failed_nodes:
            if not network.has_node(node):
                raise ScenarioError(f"scenario {self.scenario_id!r}: unknown node {node!r}")

        # A factor whose scaled capacity lands at (or below) zero is an
        # *explicit link failure*, not a silent drop: the online controller
        # applies the identical conversion (CapacityChange with capacity
        # <= 0 -> LinkFailure), so the cold and incremental paths can never
        # disagree about what a dead link means.
        for link in network.links:
            edge = link.endpoints
            if edge in factors and link.capacity * factors[edge] <= 0:
                removed.add(edge)

        perturbed = Network(name=f"{network.name}/{self.scenario_id}")
        for node in network.nodes:
            perturbed.add_node(node)
        for link in network.links:
            edge = link.endpoints
            if edge in removed or link.source in dead_nodes or link.target in dead_nodes:
                continue
            perturbed.add_link(
                link.source, link.target, link.capacity * factors.get(edge, 1.0), link.delay
            )

        factor_map: dict[Pair, float] = {}
        for pair, factor in self.demand_factors:
            factor_map[pair] = factor_map.get(pair, 1.0) * factor

        reachable = _reachability(perturbed, demands)
        kept: dict[Pair, float] = {}
        dropped_volume = 0.0
        dropped_pairs: list[Pair] = []
        for pair, volume in demands.items():
            scaled = volume * self.demand_scale * factor_map.get(pair, 1.0)
            if scaled <= 0:
                continue
            source, target = pair
            if source in dead_nodes or target in dead_nodes or not reachable(source, target):
                dropped_volume += scaled
                dropped_pairs.append(pair)
            else:
                kept[pair] = scaled

        return ScenarioInstance(
            scenario=self,
            network=perturbed,
            demands=TrafficMatrix(kept),
            dropped_volume=dropped_volume,
            dropped_pairs=tuple(dropped_pairs),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scenario({self.scenario_id}, kind={self.kind})"


@dataclass
class ScenarioInstance:
    """A scenario applied to a concrete base instance.

    Attributes
    ----------
    scenario:
        The :class:`Scenario` that produced this instance.
    network, demands:
        The perturbed network and the routable part of the perturbed demands.
    dropped_volume:
        Demand volume lost because the perturbed network disconnects its
        endpoints (0 for pure demand scenarios on connected networks).
    dropped_pairs:
        The disconnected source-destination pairs.
    """

    scenario: Scenario
    network: Network
    demands: TrafficMatrix
    dropped_volume: float = 0.0
    dropped_pairs: tuple[Pair, ...] = field(default_factory=tuple)

    @property
    def fully_connected(self) -> bool:
        """True when no demand had to be dropped."""
        return not self.dropped_pairs


def combine(first: Scenario, second: Scenario, scenario_id: str | None = None) -> Scenario:
    """Compose two scenarios (e.g. a link failure under a demand surge).

    Perturbations are merged field-wise; multiplicative factors compose, and
    the result's kind is ``"compound"`` unless the kinds already match.
    """
    return Scenario(
        scenario_id=scenario_id or f"{first.scenario_id}+{second.scenario_id}",
        kind=first.kind if first.kind == second.kind else "compound",
        failed_links=tuple(dict.fromkeys(first.failed_links + second.failed_links)),
        failed_nodes=tuple(dict.fromkeys(first.failed_nodes + second.failed_nodes)),
        capacity_factors=first.capacity_factors + second.capacity_factors,
        demand_scale=first.demand_scale * second.demand_scale,
        demand_factors=first.demand_factors + second.demand_factors,
        seed=first.seed if first.seed is not None else second.seed,
    )


# ----------------------------------------------------------------------
# fingerprints of the base instance (shared with the runner's cell keys)
# ----------------------------------------------------------------------
def network_fingerprint(network: Network) -> str:
    """A stable hash of a network's topology, capacities and delays."""
    payload = {
        "name": network.name,
        "nodes": [repr(node) for node in network.nodes],
        "links": [
            (repr(link.source), repr(link.target), round(link.capacity, 12), round(link.delay, 12))
            for link in network.links
        ],
    }
    return _sha256(payload)


def demands_fingerprint(demands: TrafficMatrix, network: Network) -> str:
    """A stable hash of a traffic matrix on ``network`` (pair order independent).

    Hashes the pair layout's node indices, sorted by (source, target), and
    the volumes rounded to 12 decimals.  Indices name nodes only together
    with ``network``'s node list, which :func:`network_fingerprint` covers.
    """
    sources, targets, volumes = demands.layout(network)
    order = np.lexsort((targets, sources))
    digest = hashlib.sha256()
    for array in (sources[order], targets[order], np.round(volumes[order], 12)):
        digest.update(array.tobytes())
    return digest.hexdigest()


def _sha256(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reachability(network: Network, demands: TrafficMatrix) -> Callable[[Node, Node], bool]:
    """``reachable(source, target)`` on ``network`` for the demand sources.

    One unweighted C Dijkstra from every source, skipped when the network
    is strongly connected.
    """
    known = network.has_node
    if network.is_strongly_connected():
        return lambda source, target: known(source) and known(target)
    sources = [source for source in demands.sources() if known(source)]
    index = [network.node_index(source) for source in sources]
    hops = dijkstra(network.adjacency_matrix(), indices=index, unweighted=True)
    reached = dict(zip(sources, np.isfinite(hops), strict=True))
    return lambda source, target: (
        source in reached and known(target) and bool(reached[source][network.node_index(target)])
    )
