"""Routing over one builder call's DAGs: :class:`CompiledDagSet`.

:class:`CompiledDagSet` keeps the (destination x link) mask and the
reachable nodes of a :class:`~repro.network.spt.ShortestPathDags` and routes
arbitrarily many demand matrices, split-ratio settings or second-weight
vectors against them.  Every destination a call touches rides one stacked
propagation (:meth:`CompiledDag.from_mask` over its rows).  This is what
explicit split ratios, Algorithm 2's gradient loop and the SPEF pipeline
use; routing under link weights compiles straight from the builder with
:meth:`CompiledDag.from_weights`.

``tests/test_routing_equivalence.py`` pins every routine here to the
dict-loop reference in ``tests/routing_oracle.py`` within 1e-9.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network, Node
from ..network.spt import ShortestPathDags, UnreachableError
# Re-exported by name: perfbench/layers.py wraps it here.
from ..network.spt import shortest_path_dag as shortest_path_dag
from .compiled import CompiledDag, SplitRatios


def _missing(mode: str) -> str:
    """Explicit splits drop unroutable sources; ECMP raises."""
    return "drop" if mode == "split" else "raise"


class CompiledDagSet:
    """Per-destination DAGs over one network, stacked on demand.

    The stack of the last destination set routed is cached, which is what
    makes repeated calls with the same demands (Algorithm 2) cheap.
    """

    def __init__(self, network: Network, dags: ShortestPathDags) -> None:
        self.network = network
        self._member, self._mask = np.isfinite(dags.distances), dags.mask
        self._row = {destination: row for row, destination in enumerate(dags.destinations)}
        self._stacked: tuple[tuple[Node, ...], CompiledDag] | None = None

    def stacked(self, destinations: Iterable[Node]) -> CompiledDag:
        """The destinations' DAGs compiled as one stack (cached for repeat calls)."""
        key = tuple(destinations)
        if self._stacked is None or self._stacked[0] != key:
            missing = [destination for destination in key if destination not in self._row]
            if missing:
                raise UnreachableError(f"no shortest-path DAG for destination {missing[0]!r}")
            rows = [self._row[destination] for destination in key]
            stack = CompiledDag.from_mask(self.network, key, self._member[rows], self._mask[rows])
            self._stacked = (key, stack)
        return self._stacked[1]

    # ------------------------------------------------------------------
    def _ratios(
        self, stack: CompiledDag, mode: str, split_ratios: SplitRatios | None
    ) -> tuple[np.ndarray, list[tuple[int, float]]]:
        if mode == "ecmp":
            return stack.uniform_ratios(), []
        return stack.bind_ratios(split_ratios)

    def route(
        self,
        demands: TrafficMatrix,
        mode: str = "ecmp",
        split_ratios: SplitRatios | None = None,
    ) -> FlowAssignment:
        """Route one traffic matrix, returning the per-destination decomposition.

        ``mode`` is ``"ecmp"`` (raises :class:`UnreachableError` for a
        source outside its DAG) or ``"split"`` (``split_ratios``, even where
        absent; unreachable sources are dropped).
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
        for tm in matrices:
            tm.validate(self.network)
        stack = self.stacked(dict.fromkeys(d for tm in matrices for d in tm.destinations()))
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
