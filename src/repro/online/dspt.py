"""Dynamic shortest-path trees/DAGs under single-link events.

Every cold protocol evaluation builds its per-destination shortest-path DAGs
from scratch with the library's one DAG builder
(:func:`repro.network.spt.shortest_path_mask`), even when only one link
changed.  :class:`DynamicSPT` maintains the same state — distances and
equal-cost next hops towards each destination — under a stream of
single-edge events with bounded, incremental work, in the style of
Ramalingam–Reps delta propagation:

* **weight decrease / link recovery**: if the changed edge improves its
  tail's distance, the improvement is pushed through the reverse graph with
  a Dijkstra-ordered heap; only nodes whose distance actually drops are
  touched.
* **weight increase / link failure**: if the edge was *tight* (on a
  shortest-path tree), the affected cone — every node with a chain of tight
  edges through the changed edge's tail — is collected by a reverse BFS,
  its distances are discarded, and a restricted Dijkstra re-settles the cone
  from its (still valid) boundary.  Edges that were only tolerance-equal
  ECMP members (not tight) need no distance work at all.
* next-hop sets are then refreshed *only* for nodes whose distance changed,
  their in-neighbours, and the changed edge's tail — with exactly the
  downhill test the builder uses, so the maintained DAG matches a cold
  build.

**Equivalence guarantees and the fallback.**  Distances are accumulated
destination-outward with strict relaxations exactly as the cold Dijkstra
accumulates them, so incremental distances are bit-identical to a cold
build.  Next-hop sets are recomputed with the same downhill test, so they
too match the cold DAG — *except* on zero-weight plateaus, where the cold
builder orients flat links by their hop count to the plateau's exit, which
depends on the whole plateau and which a local hop refresh does not see.
Every full rebuild below is that cold build itself, run for one destination
with failed links weighted ``inf``.  :class:`DynamicSPT` falls back to it
whenever

1. a plateau link (active weight at or below ``max(tolerance, 1e-12)``)
   is *near the update*: an endpoint sits in the hop-refresh region, or
   the plateau sits at a distance the update could have moved (at or above
   the update's minimum touched distance minus the tolerance).  Plateaus
   strictly below that bound keep their distances, links and exits in
   both cold builds, so their orientation cannot change and the update
   stays incremental,
2. the affected cone of an increase exceeds ``max_affected_fraction`` of
   the reachable nodes (a full rebuild is as cheap and simpler;
   ``None`` picks a per-topology-class default — see
   :func:`tuned_max_affected_fraction`), or
3. ``verify=True`` and the incremental result disagrees with a shadow cold
   rebuild (the *verified fallback*; counted in :attr:`DsptStats`).

The golden-equivalence suite (``tests/test_online_dspt.py``) drives random
event sequences through both paths and asserts identical DAGs and link
loads to 1e-9.
"""

from __future__ import annotations

import heapq
import logging
import warnings
from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Sequence

import numpy as np

from ..network.graph import Edge, Network, NetworkError, Node
from ..network.spt import (
    DEFAULT_TOLERANCE,
    DOWNHILL_MARGIN,
    ShortestPathDag,
    WeightsLike,
    as_weight_vector,
    dags_from_mask,
    shortest_path_mask,
    validate_weights,
)
from ..obs import telemetry

logger = logging.getLogger(__name__)

#: Active weights at or below this floor can create zero-weight plateaus,
#: where the cold DAG orients flat links by plateau hop count; incremental
#: maintenance then falls back to full rebuilds for updates near the
#: plateau (far-away updates stay incremental — see ``_plateau_safe``).
_PLATEAU_FLOOR = 1e-12

#: Shared empty refresh set for the no-op safety checks.
_NO_REFRESH: frozenset = frozenset()

#: ``max_affected_fraction`` defaults per topology class (see
#: :func:`tuned_max_affected_fraction`).
DENSE_CONE_FRACTION = 0.9
SPARSE_CONE_FRACTION = 1.0


def tuned_max_affected_fraction(network: Network) -> float:
    """Cone-threshold default tuned from the ``dspt.cone_fraction`` histogram.

    On dense random graphs (rand100/rand500 class: 64+ nodes, mean directed
    degree >= 3) the histogram is bimodal: nearly every increase touches a
    few percent of the nodes, and the rare large cones still re-settle
    faster than a cold Dijkstra because the restricted heap skips the
    untouched prefix — so the threshold only costs exactness-preserving
    work.  0.9 eliminates the cone fallbacks on rand100 with bit-identical
    loads.  Small or sparse backbones (Abilene, hier50) never fall back on
    cone size (1.0): their cones are often the whole graph, and re-settling
    a few dozen nodes costs less than the fixed overhead of one cold build's
    C Dijkstra call.
    """
    nodes = max(network.num_nodes, 1)
    mean_degree = network.num_links / nodes
    if nodes >= 64 and mean_degree >= 3.0:
        return DENSE_CONE_FRACTION
    return SPARSE_CONE_FRACTION


@dataclass
class DsptStats:
    """Counters describing how much work the engine actually did.

    ``full_rebuilds`` is the aggregate; the *why* is broken down so tuning
    decisions (raise ``max_affected_fraction``? fix a plateau?) can be made
    from the stats alone: ``full_rebuilds == fallback_cone +
    fallback_plateau + initial_builds + bulk_rebuilds`` (verified fallbacks
    restore the shadow rebuild's state without recounting it).
    """

    events: int = 0
    #: Destinations whose DAG changed structurally, summed over events.
    destinations_changed: int = 0
    incremental_updates: int = 0
    full_rebuilds: int = 0
    #: Nodes re-settled by incremental distance work (cone + decrease sets).
    nodes_recomputed: int = 0
    #: Incremental results that disagreed with the shadow rebuild (verify mode).
    verify_mismatches: int = 0
    #: Rebuilds because the affected cone exceeded ``max_affected_fraction``.
    fallback_cone: int = 0
    #: Rebuilds because an active weight sat at/below the plateau floor.
    fallback_plateau: int = 0
    #: Cold builds of newly added destinations (not event work).
    initial_builds: int = 0
    #: Rebuilds from whole-vector :meth:`DynamicSPT.set_weights` installs.
    bulk_rebuilds: int = 0
    #: Events during which at least one destination fell back (per-event
    #: numerator for :attr:`event_fallback_rate`).
    events_with_fallback: int = 0

    @property
    def event_fallbacks(self) -> int:
        """Per-destination event updates that abandoned the incremental path."""
        return self.fallback_cone + self.fallback_plateau + self.verify_mismatches

    def _per_update_fallback_rate(self) -> float:
        """The per-update rate without the deprecation warning (internal use)."""
        attempts = self.incremental_updates + self.event_fallbacks
        return self.event_fallbacks / attempts if attempts else 0.0

    @property
    def fallback_rate(self) -> float:
        """Fraction of per-destination *updates* that fell back (0.0 when idle).

        .. deprecated:: 1.7
            This is a per-update rate: both numerator and denominator count
            (event, destination) update attempts, so on a sweep with D
            destinations a single all-destination fallback event drowns in
            ``D`` incremental updates from every other event.  Kept (same
            units as always, now with a :class:`DeprecationWarning` on
            access) so ``repro results diff`` gates against stored runs
            don't silently loosen; new code should read
            :attr:`event_fallback_rate`.
        """
        warnings.warn(
            "DsptStats.fallback_rate is deprecated since 1.7 (per-update "
            "denominator understates event-level fallbacks); use "
            "DsptStats.event_fallback_rate",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._per_update_fallback_rate()

    @property
    def event_fallback_rate(self) -> float:
        """Fraction of *events* where any destination fell back (0.0 when idle)."""
        return self.events_with_fallback / self.events if self.events else 0.0

    def __repr__(self) -> str:  # noqa: D105 - breakdown-bearing repr
        return (
            f"DsptStats(events={self.events}, "
            f"destinations_changed={self.destinations_changed}, "
            f"incremental_updates={self.incremental_updates}, "
            f"full_rebuilds={self.full_rebuilds} "
            f"[cone={self.fallback_cone}, plateau={self.fallback_plateau}, "
            f"verify={self.verify_mismatches}, initial={self.initial_builds}, "
            f"bulk={self.bulk_rebuilds}], "
            f"nodes_recomputed={self.nodes_recomputed}, "
            f"fallback_rate={self._per_update_fallback_rate():.3f}, "
            f"event_fallback_rate={self.event_fallback_rate:.3f})"
        )


def publish_dspt_counters(before: DsptStats, after: DsptStats) -> None:
    """Publish the delta between two stats snapshots as telemetry counters.

    Called once per sweep/replay (never per event), so hot-loop overhead
    stays at plain integer increments; the counters land as
    ``dspt.update[path=incremental]``, ``dspt.fallback[reason=...]`` and
    ``dspt.rebuild[reason=...]``.  No-op when telemetry is disabled.
    """
    if not telemetry.enabled():
        return
    deltas = (
        ("dspt.events", {}, after.events - before.events),
        ("dspt.update", {"path": "incremental"},
         after.incremental_updates - before.incremental_updates),
        ("dspt.fallback", {"reason": "cone-threshold"},
         after.fallback_cone - before.fallback_cone),
        ("dspt.fallback", {"reason": "plateau"},
         after.fallback_plateau - before.fallback_plateau),
        ("dspt.fallback", {"reason": "verify-mismatch"},
         after.verify_mismatches - before.verify_mismatches),
        ("dspt.rebuild", {"reason": "initial"},
         after.initial_builds - before.initial_builds),
        ("dspt.rebuild", {"reason": "bulk"},
         after.bulk_rebuilds - before.bulk_rebuilds),
        ("dspt.fallback_events", {},
         after.events_with_fallback - before.events_with_fallback),
        ("dspt.nodes_recomputed", {},
         after.nodes_recomputed - before.nodes_recomputed),
    )
    for name, tags, value in deltas:
        if value:
            telemetry.count(name, value, **tags)


def snapshot_stats(stats: DsptStats) -> DsptStats:
    """A frozen copy of the counters, for before/after delta publishing."""
    return replace(stats)


@dataclass
class _DestinationState:
    """Live SPT/DAG state towards one destination (mutated in place)."""

    destination: Node
    dist: dict[Node, float] = field(default_factory=dict)
    next_hops: dict[Node, list[Node]] = field(default_factory=dict)


class DynamicSPT:
    """Maintain per-destination shortest-path DAGs under link events.

    Parameters
    ----------
    network:
        The base topology.  Failed links stay in the network but are masked
        out of every computation, so link indices (and therefore load
        vectors) keep the base indexing.
    weights:
        Initial link weights (mapping or link-indexed vector).
    destinations:
        Destinations to maintain state for; more can be added later with
        :meth:`add_destination`.
    tolerance:
        ECMP cost tolerance, as in :func:`~repro.network.spt.shortest_path_dag`.
    max_affected_fraction:
        When an increase's affected cone exceeds this fraction of the
        reachable nodes, the destination is fully rebuilt instead.
        ``None`` (the default) picks a per-topology-class value via
        :func:`tuned_max_affected_fraction`.
    verify:
        Cross-check every incremental update against a cold rebuild and fall
        back to it on any mismatch (slow; meant for debugging and tests).

    Examples
    --------
    >>> from repro.topology.backbones import abilene_network
    >>> net = abilene_network()
    >>> spt = DynamicSPT(net, [1.0] * net.num_links, destinations=net.nodes)
    >>> edge = net.links[0].endpoints
    >>> changed = spt.fail_link(*edge)
    >>> spt.recover_link(*edge) == changed  # reverting touches the same DAGs
    True
    """

    def __init__(
        self,
        network: Network,
        weights: WeightsLike,
        destinations: Iterable[Node] = (),
        tolerance: float = DEFAULT_TOLERANCE,
        max_affected_fraction: float | None = None,
        verify: bool = False,
    ) -> None:
        if max_affected_fraction is None:
            max_affected_fraction = tuned_max_affected_fraction(network)
        if not 0 < max_affected_fraction <= 1:
            raise ValueError("max_affected_fraction must be in (0, 1]")
        self.network = network
        self.tolerance = float(tolerance)
        self.max_affected_fraction = float(max_affected_fraction)
        self.verify = verify
        self._weights = as_weight_vector(network, weights)
        validate_weights(self._weights)
        self._active = np.ones(network.num_links, dtype=bool)
        # List mirrors of the weight/active vectors: the incremental loops
        # index single elements millions of times per sweep, and plain-list
        # access is several times cheaper than ndarray scalar access.  Kept
        # in sync at every mutation point.
        self._weights_list: list[float] = self._weights.tolist()
        self._active_list: list[bool] = self._active.tolist()
        self._states: dict[Node, _DestinationState] = {}
        self._plateau_links: set[int] = set()
        self._refresh_plateau_links()
        #: Per-destination changed-node regions of the last event: the nodes
        #: whose next-hop sets (or reachability) changed, or ``None`` for a
        #: full rebuild.  Consumed by the controller's delta load kernel.
        self.last_event_regions: dict[Node, set[Node] | None] = {}
        self.stats = DsptStats()
        for destination in destinations:
            self.add_destination(destination)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def destinations(self) -> list[Node]:
        return list(self._states)

    @property
    def weights(self) -> np.ndarray:
        """The current weight vector (failed links keep their last weight)."""
        return self._weights.copy()

    def is_active(self, source: Node, target: Node) -> bool:
        return bool(self._active[self.network.link_index(source, target)])

    def failed_links(self) -> list[Edge]:
        """Currently failed directed links, in link-index order."""
        return [
            link.endpoints
            for link in self.network.links
            if not self._active[link.index]
        ]

    def dag(self, destination: Node) -> ShortestPathDag:
        """A live :class:`ShortestPathDag` view of one destination's state.

        The returned object shares the engine's dictionaries: it reflects —
        and is invalidated by — subsequent events.  Compile it (e.g. with
        :meth:`CompiledDag.from_dag`) to snapshot it.
        """
        state = self._state(destination)
        return ShortestPathDag(
            destination=destination,
            distances=state.dist,
            next_hops=state.next_hops,
            tolerance=self.tolerance,
        )

    def distances(self, destination: Node) -> dict[Node, float]:
        return dict(self._state(destination).dist)

    def reachable(self, source: Node, destination: Node) -> bool:
        """True when ``source`` currently reaches ``destination``."""
        return source in self._state(destination).dist

    # ------------------------------------------------------------------
    # snapshot support (shared baselines for parallel sweep workers)
    # ------------------------------------------------------------------
    @property
    def active_mask(self) -> np.ndarray:
        """Copy of the per-link active mask (False = failed)."""
        return self._active.copy()

    def export_states(self) -> dict[Node, tuple[dict[Node, float], dict[Node, list[Node]]]]:
        """Picklable per-destination ``(dist, next_hops)`` state copies."""
        return {
            destination: (
                dict(state.dist),
                {node: list(hops) for node, hops in state.next_hops.items()},
            )
            for destination, state in self._states.items()
        }

    def install_states(
        self,
        active: np.ndarray,
        states: dict[Node, tuple[dict[Node, float], dict[Node, list[Node]]]],
    ) -> None:
        """Adopt an :meth:`export_states` snapshot without any cold builds.

        Replaces every maintained destination; the caller owns consistency
        between ``active``, the current weights and the snapshotted state
        (i.e. the snapshot must come from an engine over the same network
        with the same weights).  Stats are *not* carried over: the adopting
        engine's counters describe only its own work.
        """
        self._active = np.asarray(active, dtype=bool).copy()
        self._active_list = self._active.tolist()
        self._refresh_plateau_links()
        self._states = {
            destination: _DestinationState(
                destination=destination,
                dist=dict(dist),
                next_hops={node: list(hops) for node, hops in next_hops.items()},
            )
            for destination, (dist, next_hops) in states.items()
        }

    def ecmp_link_loads(
        self,
        destination: Node,
        entering: dict[Node, float],
        with_through: bool = False,
    ):
        """Even-ECMP link loads towards one destination, in a single pass.

        Routes ``{source: volume}`` directly over the live DAG state: one
        sweep over the nodes in decreasing-distance order, splitting each
        node's throughflow evenly over its next hops.  Equivalent (to float
        round-off) to compiling the DAG and propagating — but an
        event-dirtied DAG is typically routed exactly once before the next
        event invalidates it, and at that amortisation level the fused dict
        pass beats compile-then-propagate severalfold.  Amortised consumers
        (route many matrices against one state) should compile instead; see
        :meth:`repro.routing.SparseRouter.refresh_destination`.

        Returns ``(loads, dropped)``: base-indexed per-link loads (failed
        links carry 0) and the entering volumes whose source cannot reach
        the destination.  With ``with_through`` the per-node throughflow
        dict rides along as a third element — the seed state for the
        controller's delta load kernel.
        """
        state = self._state(destination)
        dist = state.dist
        next_hops = state.next_hops
        # Accumulate in a plain list: the += below runs once per (node, hop)
        # pair and list element access is far cheaper than ndarray scalars.
        loads = [0.0] * self.network.num_links
        through = dict.fromkeys(dist, 0.0)
        dropped: dict[Node, float] = {}
        for source, volume in entering.items():
            if source in through:
                through[source] += volume
            else:
                dropped[source] = volume
        link_index = self.network._link_index
        if self.plateau_free:
            # Plateau-free edges strictly decrease the distance, so the
            # decreasing-distance sort is a valid processing order.
            order = sorted(dist, key=dist.__getitem__, reverse=True)
        else:
            # Zero-weight plateaus need a true topological order.
            order = self.dag(destination).topological_order()
        for node in order:
            flow = through[node]
            if flow == 0.0 or node == destination:
                continue
            hops = next_hops[node]
            if not hops:
                raise NetworkError(
                    f"node {node!r} has traffic for {destination!r} but no next hop"
                )
            share = flow / len(hops)
            for hop in hops:
                through[hop] += share
                loads[link_index[(node, hop)]] += share
        vector = np.asarray(loads)
        if with_through:
            return vector, dropped, through
        return vector, dropped

    def _state(self, destination: Node) -> _DestinationState:
        try:
            return self._states[destination]
        except KeyError:
            raise NetworkError(
                f"no dynamic SPT state for destination {destination!r}"
            ) from None

    # ------------------------------------------------------------------
    # event entry points (each returns the destinations whose DAG changed)
    # ------------------------------------------------------------------
    def add_destination(self, destination: Node) -> None:
        """Start maintaining (and fully build) state for one more destination."""
        if not self.network.has_node(destination):
            raise NetworkError(f"unknown node {destination!r}")
        if destination not in self._states:
            state = _DestinationState(destination=destination)
            self._states[destination] = state
            self.stats.initial_builds += 1
            self._rebuild(state)

    def fail_link(self, source: Node, target: Node) -> set[Node]:
        """Mask one directed link out; returns the destinations affected."""
        index = self.network.link_index(source, target)
        if not self._active[index]:
            return set()
        self._active[index] = False
        self._active_list[index] = False
        # The safety check must see the link's plateau status under both the
        # old and the new classification, so pass the union of the two sets.
        plateau = self._plateau_links
        if index in plateau:
            self._plateau_links = plateau - {index}
        return self._propagate(
            index, old_eff=self._weights[index], new_eff=np.inf, plateau=plateau
        )

    def recover_link(self, source: Node, target: Node) -> set[Node]:
        """Re-activate a failed link at its configured weight."""
        index = self.network.link_index(source, target)
        if self._active[index]:
            return set()
        self._active[index] = True
        self._active_list[index] = True
        if self._weights[index] <= self._plateau_floor():
            self._plateau_links = self._plateau_links | {index}
        return self._propagate(
            index, old_eff=np.inf, new_eff=self._weights[index],
            plateau=self._plateau_links,
        )

    def set_weight(self, source: Node, target: Node, weight: float) -> set[Node]:
        """Change one link's weight (no-op for equal weight)."""
        if not np.isfinite(weight) or weight < 0:
            raise NetworkError(f"link weight must be finite and non-negative, got {weight}")
        index = self.network.link_index(source, target)
        old = float(self._weights[index])
        if old == weight:
            return set()
        self._weights[index] = float(weight)
        self._weights_list[index] = float(weight)
        if not self._active[index]:
            return set()  # takes effect on recovery
        was_plateau = index in self._plateau_links
        now_plateau = weight <= self._plateau_floor()
        plateau = self._plateau_links
        if now_plateau and not was_plateau:
            self._plateau_links = plateau = plateau | {index}
        elif was_plateau and not now_plateau:
            self._plateau_links = plateau - {index}
        return self._propagate(
            index, old_eff=old, new_eff=float(weight), plateau=plateau
        )

    def set_weights(self, weights: WeightsLike) -> set[Node]:
        """Install a whole new weight vector (full rebuild of every DAG)."""
        vector = as_weight_vector(self.network, weights)
        validate_weights(vector)
        self._weights = vector
        self._weights_list = vector.tolist()
        self._refresh_plateau_links()
        self.stats.events += 1
        changed: set[Node] = set()
        for state in self._states.values():
            self.stats.bulk_rebuilds += 1
            self._rebuild(state)
            changed.add(state.destination)
        self.stats.destinations_changed += len(changed)
        self.last_event_regions = dict.fromkeys(changed)
        return changed

    # ------------------------------------------------------------------
    # single-edge propagation
    # ------------------------------------------------------------------
    @property
    def plateau_free(self) -> bool:
        """True when every active weight is safely above the plateau floor.

        Plateau-free states have two useful properties: incremental updates
        are exact without any locality check (see the module docstring), and
        every DAG edge strictly decreases the distance, so sorting nodes by
        decreasing distance is a valid — and much cheaper — topological
        order for compilation.
        """
        return not self._plateau_links

    def _plateau_floor(self) -> float:
        return max(self.tolerance, _PLATEAU_FLOOR)

    def _refresh_plateau_links(self) -> None:
        """Recompute the set of active links at/below the plateau floor."""
        mask = self._active & (self._weights <= self._plateau_floor())
        self._plateau_links = {int(i) for i in np.nonzero(mask)[0]}

    def _plateau_safe(
        self,
        state: _DestinationState,
        moved_min: float,
        refresh: set[Node],
        plateau: set[int],
    ) -> bool:
        """Is this incremental update provably cold-exact despite plateaus?

        The cold builder orients flat plateau links by hop count to the
        plateau's exit, which incremental hop refresh does not reproduce.
        The update is still exact when every plateau stays *out of reach* of
        the change:

        * no plateau endpoint is in the hop-refresh region (refreshing a
          plateau-incident node would drop its flat links), and
        * every usable plateau sits strictly below ``moved_min`` minus the
          tolerance — distances, links and downhill exits there are the same
          before and after the event, so the orientation is stable.

        ``plateau`` is the union of the pre- and post-event plateau-link
        sets, so links entering or leaving plateau status are checked too.
        """
        if not plateau:
            return True
        dist = state.dist
        bound = moved_min - self.tolerance
        for index in plateau:
            plink = self.network.link_by_index(index)
            if dist.get(plink.target) is None:
                continue  # unusable towards this destination in either build
            if plink.source in refresh or plink.target in refresh:
                return False
            if dist[plink.target] >= bound:
                return False
            if dist.get(plink.source, np.inf) >= bound:
                return False
        return True

    def _propagate(
        self, index: int, old_eff: float, new_eff: float, plateau: set[int]
    ) -> set[Node]:
        link = self.network.link_by_index(index)
        self.stats.events += 1
        fallbacks_before = self.stats.event_fallbacks
        changed: set[Node] = set()
        regions: dict[Node, set[Node] | None] = {}
        for state in self._states.values():
            if link.source == state.destination:
                continue  # a destination's out-edges never carry its traffic
            if self.verify:
                region = self._update_verified(state, link, old_eff, new_eff, plateau)
            else:
                region = self._update_destination(state, link, old_eff, new_eff, plateau)
            if region is None or region:
                changed.add(state.destination)
                regions[state.destination] = region
        if self.stats.event_fallbacks > fallbacks_before:
            self.stats.events_with_fallback += 1
        self.stats.destinations_changed += len(changed)
        self.last_event_regions = regions
        return changed

    def _update_verified(
        self,
        state: _DestinationState,
        link,
        old_eff: float,
        new_eff: float,
        plateau: set[int],
    ) -> set[Node] | None:
        """Incremental update cross-checked against a shadow cold rebuild."""
        shadow = _DestinationState(destination=state.destination)
        before = (dict(state.dist), {n: list(h) for n, h in state.next_hops.items()})
        region = self._update_destination(state, link, old_eff, new_eff, plateau)
        self._rebuild(shadow, count=False)
        if not _states_equal(state, shadow):
            self.stats.verify_mismatches += 1
            logger.warning(
                "incremental SPT update towards %r diverged from the cold rebuild "
                "after %s -> %s on %s; falling back",
                state.destination,
                old_eff,
                new_eff,
                link.endpoints,
            )
            state.dist = shadow.dist
            state.next_hops = shadow.next_hops
            return None
        if region is None or region:
            return region
        # Equal states but report a (full) change when the cold rebuild
        # differs from the pre-event state (paranoia: should imply `region`).
        return None if before != (state.dist, state.next_hops) else set()

    def _update_destination(
        self,
        state: _DestinationState,
        link,
        old_eff: float,
        new_eff: float,
        plateau: set[int],
    ) -> set[Node] | None:
        """Apply one effective-weight change towards one destination.

        Returns the set of nodes whose next-hop sets (or reachability)
        changed — empty when the DAG is untouched — or ``None`` when the
        destination was fully rebuilt.
        """
        if new_eff < old_eff:
            return self._edge_decrease(state, link, new_eff, plateau)
        return self._edge_increase(state, link, old_eff, plateau)

    def _edge_decrease(
        self, state: _DestinationState, link, new_eff: float, plateau: set[int]
    ) -> set[Node] | None:
        dist = state.dist
        head = dist.get(link.target)
        if head is None:
            return set()  # the head cannot reach the destination; edge is inert
        candidate = new_eff + head
        tail_dist = dist.get(link.source, np.inf)
        changed: list[Node] = []
        if candidate < tail_dist:
            # Push the improvement through the reverse graph, Dijkstra-ordered.
            dist[link.source] = candidate
            active, weights = self._active_list, self._weights_list
            in_links = self.network.in_links
            counter = 0
            heap: list[tuple[float, int, Node]] = [(candidate, counter, link.source)]
            while heap:
                d, _, node = heapq.heappop(heap)
                if d > dist.get(node, np.inf):
                    continue  # stale entry
                changed.append(node)
                for in_link in in_links(node):
                    if not active[in_link.index]:
                        continue
                    tail = in_link.source
                    if tail == state.destination:
                        continue
                    relaxed = d + weights[in_link.index]
                    if relaxed < dist.get(tail, np.inf):
                        dist[tail] = relaxed
                        counter += 1
                        heapq.heappush(heap, (relaxed, counter, tail))
            self.stats.nodes_recomputed += len(changed)
        # Beyond the ECMP tolerance band the edge is not (and was not) a DAG
        # member for this destination, so no hop set can change.
        elif candidate > tail_dist + self.tolerance and self._plateau_safe(
            state, tail_dist, _NO_REFRESH, plateau
        ):
            self.stats.incremental_updates += 1
            return set()
        moved_min = min((dist[node] for node in changed), default=tail_dist)
        refresh = self._refresh_set(state, changed, extra=(link.source,))
        if not self._plateau_safe(state, moved_min, refresh, plateau):
            self.stats.fallback_plateau += 1
            self._rebuild(state)
            return None
        self.stats.incremental_updates += 1
        return self._refresh_nodes(state, refresh)

    def _edge_increase(
        self, state: _DestinationState, link, old_eff: float, plateau: set[int]
    ) -> set[Node] | None:
        dist = state.dist
        tail = dist.get(link.source)
        head = dist.get(link.target)
        if tail is None or head is None:
            return set()  # edge was not usable towards this destination
        # The margin errs towards tight, i.e. towards re-settling the cone.
        if old_eff + head > tail + DOWNHILL_MARGIN:
            # Not tight: distances cannot change; only the tail's ECMP set can
            # (the edge may have been a tolerance-equal member).
            # Not even a tolerance-equal member before the increase:
            # nothing to refresh.
            if old_eff + head > tail + self.tolerance and self._plateau_safe(
                state, tail, _NO_REFRESH, plateau
            ):
                self.stats.incremental_updates += 1
                return set()
            refresh = self._refresh_set(state, [], extra=(link.source,))
            if not self._plateau_safe(state, tail, refresh, plateau):
                self.stats.fallback_plateau += 1
                self._rebuild(state)
                return None
            self.stats.incremental_updates += 1
            return self._refresh_nodes(state, refresh)

        # The edge was on the shortest-path tree structure: collect the cone
        # of nodes whose tight chains run through the tail.
        active, weights = self._active_list, self._weights_list
        in_links, out_links = self.network.in_links, self.network.out_links
        cone: set[Node] = {link.source}
        queue: list[Node] = [link.source]
        while queue:
            node = queue.pop()
            for in_link in in_links(node):
                if not active[in_link.index]:
                    continue
                upstream = in_link.source
                if upstream in cone or upstream == state.destination:
                    continue
                d_up = dist.get(upstream)
                if d_up is None:
                    continue
                if weights[in_link.index] + dist[node] <= d_up + DOWNHILL_MARGIN:
                    cone.add(upstream)
                    queue.append(upstream)

        cone_fraction = len(cone) / max(len(dist), 1)
        telemetry.observe("dspt.cone_fraction", cone_fraction)
        if len(cone) > self.max_affected_fraction * max(len(dist), 1):
            self.stats.fallback_cone += 1
            self._rebuild(state)
            return None

        # Re-settle the cone from its boundary: distances outside the cone
        # are still valid, so a restricted Dijkstra recovers exact values.
        old_dist = {node: dist.pop(node) for node in cone}
        estimates: dict[Node, float] = {}
        counter = 0
        heap: list[tuple[float, int, Node]] = []
        for node in cone:
            best = np.inf
            for out_link in out_links(node):
                if not active[out_link.index]:
                    continue
                boundary = dist.get(out_link.target)
                if boundary is None:
                    continue
                candidate = weights[out_link.index] + boundary
                if candidate < best:
                    best = candidate
            if np.isfinite(best):
                estimates[node] = best
                counter += 1
                heapq.heappush(heap, (best, counter, node))
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in dist or d > estimates.get(node, np.inf):
                continue
            dist[node] = d
            for in_link in in_links(node):
                if not active[in_link.index]:
                    continue
                upstream = in_link.source
                if upstream not in cone or upstream in dist:
                    continue
                relaxed = d + weights[in_link.index]
                if relaxed < estimates.get(upstream, np.inf):
                    estimates[upstream] = relaxed
                    counter += 1
                    heapq.heappush(heap, (relaxed, counter, upstream))

        self.stats.nodes_recomputed += len(cone)
        changed = [
            node
            for node in cone
            if dist.get(node) != old_dist[node]
        ]
        unreachable = [node for node in cone if node not in dist]
        refresh = self._refresh_set(state, changed, extra=(link.source,), cone=cone)
        # An increase only lengthens distances, so the smallest distance the
        # event touched is the smallest *old* cone distance.
        moved_min = min(old_dist.values())
        if not self._plateau_safe(state, moved_min, refresh, plateau):
            self.stats.fallback_plateau += 1
            self._rebuild(state)
            return None
        self.stats.incremental_updates += 1
        for node in unreachable:
            state.next_hops.pop(node, None)
        region = self._refresh_nodes(state, refresh)
        region.update(unreachable)
        return region

    def _refresh_set(
        self,
        state: _DestinationState,
        changed: Sequence[Node],
        extra: tuple[Node, ...] = (),
        cone: set[Node] | None = None,
    ) -> set[Node]:
        """The nodes whose next-hop sets an update must recompute.

        A node's hop set depends on its own distance, its out-neighbours'
        distances and its out-link weights, so the refresh set is the changed
        nodes, their in-neighbours, the changed edge's tail (``extra``) and —
        for increases — the whole re-settled cone (cheap, and covers nodes
        whose distance came back identical through a different support).
        """
        refresh: set[Node] = set(changed)
        active = self._active_list
        for node in changed:
            for in_link in self.network.in_links(node):
                if active[in_link.index]:
                    refresh.add(in_link.source)
        refresh.update(extra)
        if cone:
            refresh.update(cone)
        refresh.discard(state.destination)
        return refresh

    def _refresh_nodes(self, state: _DestinationState, refresh: set[Node]) -> set[Node]:
        """Refresh hop sets; returns the nodes that structurally changed."""
        region: set[Node] = set()
        for node in refresh:
            if node in state.dist:
                if self._refresh_hops(state, node):
                    region.add(node)
            elif state.next_hops.pop(node, None) is not None:
                region.add(node)
        return region

    def _refresh_hops(self, state: _DestinationState, node: Node) -> bool:
        """Recompute one node's equal-cost next hops (cold cost test)."""
        dist = state.dist
        d_node = dist[node]
        active, weights = self._active_list, self._weights_list
        bound = d_node + self.tolerance
        floor = d_node - DOWNHILL_MARGIN
        hops: list[Node] = []
        for out_link in self.network.out_links(node):
            index = out_link.index
            if not active[index]:
                continue
            d_hop = dist.get(out_link.target)
            if d_hop is None:
                continue
            if weights[index] + d_hop <= bound and d_hop < floor:
                hops.append(out_link.target)
        if state.next_hops.get(node) != hops:
            state.next_hops[node] = hops
            return True
        return False

    # ------------------------------------------------------------------
    # full rebuild (the cold-identical fallback)
    # ------------------------------------------------------------------
    def _rebuild(self, state: _DestinationState, count: bool = True) -> None:
        """A cold build of one destination on the active subgraph.

        Runs the library's one DAG builder
        (:func:`~repro.network.spt.shortest_path_mask`) with failed links
        weighted ``inf``, so the result is the cold DAG of the pruned network.
        """
        destination = state.destination
        vector = np.where(self._active, self._weights, np.inf)
        distances, mask = shortest_path_mask(self.network, [destination], vector, self.tolerance)
        dag = dags_from_mask(self.network, [destination], distances, mask, self.tolerance)
        state.dist.clear()
        state.dist.update(dag[destination].distances)
        state.next_hops.clear()
        state.next_hops.update(dag[destination].next_hops)
        if count:
            self.stats.full_rebuilds += 1
            self.stats.nodes_recomputed += len(state.dist)


def _states_equal(a: _DestinationState, b: _DestinationState) -> bool:
    """Distances and hop *sets* agree (hop order is refresh-order dependent)."""
    if a.dist != b.dist:
        return False
    if set(a.next_hops) != set(b.next_hops):
        return False
    return all(set(hops) == set(b.next_hops[node]) for node, hops in a.next_hops.items())
