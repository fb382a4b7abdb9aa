"""Routing entry points built on the stacked kernel (:class:`CompiledDag`).

* :class:`CompiledDagSet` -- compile a ``{destination: dag}`` mapping once
  (per destination) and route arbitrarily many demand matrices,
  split-ratio settings or second-weight vectors against it.  Every
  destination a call touches rides one stacked propagation.  This is what
  the one-shot assignment routines, Algorithm 2's gradient loop and the
  SPEF pipeline use.
* :class:`SparseRouter` -- owns the whole pipeline for one weight setting
  (one DAG builder call, compilation, ratio binding) and exposes the batched entry point
  :meth:`SparseRouter.link_loads_many` that evaluates a whole demand ensemble
  in one stacked propagation.  This is what the scenario engine's failure
  sweeps amortise their DAG compilation through.

``tests/test_routing_equivalence.py`` pins every routine here to the
dict-loop reference in ``tests/routing_oracle.py`` within 1e-9.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import (
    DEFAULT_TOLERANCE,
    ShortestPathDag,
    UnreachableError,
    WeightsLike,
    as_weight_vector,
    shortest_path_mask,
    validate_weights,
)
# Re-exported by name: perfbench/layers.py wraps it here.
from ..network.spt import shortest_path_dag as shortest_path_dag
from .compiled import CompiledDag, DagPart, SplitRatios

#: Ratio modes: even ECMP split, single first-hop path, explicit split ratios.
_MODES = ("ecmp", "all_or_nothing", "split")


def _missing(mode: str) -> str:
    """Explicit splits drop unroutable sources; ECMP and all-or-nothing raise."""
    return "drop" if mode == "split" else "raise"


def _destinations(matrices: Sequence[TrafficMatrix]) -> list[Node]:
    """Every destination of an ensemble, in order of first appearance."""
    return list(dict.fromkeys(d for tm in matrices for d in tm.destinations()))


class CompiledDagSet:
    """Per-destination compiled DAGs over one network.

    Each DAG handed in (or installed later) is walked once into a
    :class:`DagPart`.  The stack of the last destination set routed is
    cached, which is what makes repeated calls with the same demands
    (Algorithm 2) cheap.
    """

    def __init__(
        self,
        network: Network,
        dags: Mapping[Node, ShortestPathDag] | None = None,
    ) -> None:
        self.network = network
        self._parts: dict[Node, DagPart] = {}
        self._stacked: tuple[tuple[Node, ...], CompiledDag] | None = None
        for destination, dag in (dags or {}).items():
            self.update(destination, dag)

    def __contains__(self, destination: Node) -> bool:
        return destination in self._parts

    @property
    def destinations(self) -> list[Node]:
        return list(self._parts)

    def update(self, destination: Node, dag: ShortestPathDag) -> None:
        """Install (or replace) one destination's DAG, walked into a :class:`DagPart`."""
        part = DagPart.from_next_hops(self.network, destination, dag.next_hops, dag.distances)
        self.install(part)

    def install(self, part: DagPart) -> None:
        """Install one destination's already-walked DAG."""
        self._parts[part.destination] = part
        self._stacked = None

    def compiled(self, destination: Node) -> CompiledDag:
        """One destination's DAG compiled on its own."""
        return self.stacked([destination])

    def stacked(self, destinations: Iterable[Node]) -> CompiledDag:
        """The destinations' DAGs compiled as one stack (cached for repeat calls)."""
        key = tuple(destinations)
        if self._stacked is None or self._stacked[0] != key:
            missing = [destination for destination in key if destination not in self._parts]
            if missing:
                raise UnreachableError(f"no shortest-path DAG for destination {missing[0]!r}")
            parts = [self._parts[destination] for destination in key]
            self._stacked = (key, CompiledDag.from_parts(self.network, parts))
        return self._stacked[1]

    # ------------------------------------------------------------------
    def _ratios(
        self, stack: CompiledDag, mode: str, split_ratios: SplitRatios | None
    ) -> tuple[np.ndarray, list[tuple[int, float]]]:
        if mode == "ecmp":
            return stack.uniform_ratios(), []
        if mode == "all_or_nothing":
            return stack.first_hop_ratios(), []
        return stack.bind_ratios(split_ratios)

    def route(
        self,
        demands: TrafficMatrix,
        mode: str = "ecmp",
        split_ratios: SplitRatios | None = None,
    ) -> FlowAssignment:
        """Route one traffic matrix, returning the per-destination decomposition.

        ``mode`` is ``"ecmp"``, ``"all_or_nothing"`` (both raise
        :class:`UnreachableError` for a source outside its DAG) or
        ``"split"`` (``split_ratios``, even where absent; unreachable
        sources are dropped).
        """
        stack = self.stacked(demands.destinations())
        ratios, degenerate = self._ratios(stack, mode, split_ratios)
        return stack.flows(demands, ratios, _missing(mode), degenerate)

    def link_loads_many(
        self,
        matrices: Sequence[TrafficMatrix],
        mode: str = "ecmp",
        split_ratios: SplitRatios | None = None,
    ) -> np.ndarray:
        """``(len(matrices), num_links)`` aggregate loads, one stacked propagation."""
        return self._loads_many(matrices, _destinations(matrices), mode, split_ratios)

    def _loads_many(
        self,
        matrices: Sequence[TrafficMatrix],
        destinations: Iterable[Node],
        mode: str,
        split_ratios: SplitRatios | None,
    ) -> np.ndarray:
        stack = self.stacked(destinations)
        ratios, degenerate = self._ratios(stack, mode, split_ratios)
        return stack.ensemble_loads(matrices, ratios, _missing(mode), degenerate)

    def traffic_distribution(
        self, demands: TrafficMatrix, second_weights: np.ndarray
    ) -> FlowAssignment:
        """Algorithm 3 (exponential splitting) against the compiled DAGs.

        Algorithm 2 re-evaluates this for a new ``v`` every gradient
        iteration; only the ratios and the propagation are recomputed.
        """
        second = np.asarray(second_weights, dtype=float)
        if second.shape != (self.network.num_links,):
            raise ValueError(
                f"second weights must have length {self.network.num_links}, got {second.shape}"
            )
        stack = self.stacked(demands.destinations())
        return stack.flows(demands, stack.exponential_ratios(second), "drop")


class SparseRouter:
    """Compile one weight setting, route many demand matrices.

    Parameters
    ----------
    network, weights:
        The topology and the link weights defining the shortest-path DAGs.
        Precomputed ``dags`` may be passed instead of (or alongside) weights;
        missing destinations are then built from ``weights`` on demand.
    mode:
        ``"ecmp"`` (even split, the OSPF behaviour), ``"all_or_nothing"``
        (single path, deterministic first-hop tie break) or ``"split"``
        (explicit per-destination ratios handed to the routing calls).
    tolerance:
        ECMP cost tolerance for DAG construction.

    Examples
    --------
    >>> from repro.topology.backbones import abilene_network
    >>> from repro.traffic.gravity import gravity_traffic_matrix
    >>> net = abilene_network()
    >>> router = SparseRouter(net, weights=[1.0] * net.num_links)
    >>> tms = [gravity_traffic_matrix(net, total_volume=v) for v in (10.0, 20.0)]
    >>> loads = router.link_loads_many(tms)
    >>> loads.shape == (2, net.num_links)
    True
    """

    def __init__(
        self,
        network: Network,
        weights: WeightsLike | None = None,
        *,
        dags: Mapping[Node, ShortestPathDag] | None = None,
        mode: str = "ecmp",
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if weights is None and dags is None:
            raise ValueError("SparseRouter needs link weights or precomputed DAGs")
        self.network = network
        self.mode = mode
        self.tolerance = tolerance
        self._weights = as_weight_vector(network, weights) if weights is not None else None
        self._set = CompiledDagSet(network, dags)

    # ------------------------------------------------------------------
    def _ensure_dags(self, destinations: Iterable[Node]) -> None:
        missing = [destination for destination in destinations if destination not in self._set]
        if not missing:
            return
        if self._weights is None:
            raise UnreachableError(f"no shortest-path DAG for destination {missing[0]!r}")
        validate_weights(self._weights)
        distances, mask = shortest_path_mask(self.network, missing, self._weights, self.tolerance)
        for destination, row, links in zip(missing, distances, mask, strict=True):
            self._set.install(DagPart(destination, links, np.isfinite(row)))

    # ------------------------------------------------------------------
    def route(
        self,
        demands: TrafficMatrix,
        split_ratios: SplitRatios | None = None,
    ) -> FlowAssignment:
        """Route one traffic matrix, returning the per-destination decomposition."""
        demands.validate(self.network)
        self._ensure_dags(demands.destinations())
        return self._set.route(demands, self.mode, split_ratios)

    def link_loads(self, demands: TrafficMatrix) -> np.ndarray:
        """Aggregate per-link loads of one traffic matrix."""
        return self.route(demands).aggregate()

    def link_loads_many(
        self,
        matrices: Sequence[TrafficMatrix],
        split_ratios: SplitRatios | None = None,
    ) -> np.ndarray:
        """Aggregate link loads of a whole demand ensemble, batched.

        The entering volumes of all ``m`` matrices form one ``(positions,
        m)`` right-hand side, propagated in a single stacked pass.  Returns
        an ``(m, num_links)`` array whose row ``i`` equals
        ``route(matrices[i]).aggregate()`` to float round-off.
        """
        matrices = list(matrices)
        for tm in matrices:
            tm.validate(self.network)
        destinations = _destinations(matrices)
        self._ensure_dags(destinations)
        return self._set._loads_many(matrices, destinations, self.mode, split_ratios)
