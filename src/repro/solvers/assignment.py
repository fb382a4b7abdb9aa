"""Shortest-path traffic assignment (all-or-nothing, even ECMP, explicit splits).

The routines every protocol and solver in the library builds on:

* :func:`all_or_nothing_assignment` sends every demand along one shortest
  path.  This is the ``Route_t(w; d^t)`` subproblem of Algorithm 1 (an
  uncapacitated min-cost flow is just shortest-path routing) and the
  linearised subproblem of the Frank-Wolfe solver.

* :func:`ecmp_assignment` splits traffic evenly across all equal-cost next
  hops at every router, which is exactly how OSPF's ECMP behaves and how the
  Fortz-Thorup evaluation routes traffic for a given weight setting.

* :func:`split_ratio_assignment` routes over given DAGs with explicit
  per-node split ratios (SPEF's forwarding tables).

All three route every destination in one stacked propagation on the
routing kernel (:mod:`repro.routing`), so a node's whole incoming flow (local
demand plus transit) is split at once -- the bookkeeping Algorithm 3 of the
paper uses.
For many matrices against one weight setting, compile once with
:meth:`repro.routing.CompiledDag.from_weights` and route the ensemble with
:meth:`~repro.routing.CompiledDag.ensemble_loads`.
"""

from __future__ import annotations

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from ..network.spt import DEFAULT_TOLERANCE, ShortestPathDags, WeightsLike

# Re-exported by name: perfbench/layers.py wraps it here.
from ..network.spt import shortest_path_dag as shortest_path_dag
from ..routing import CompiledDagSet
from ..routing.compiled import CompiledDag, SplitRatios


def ecmp_assignment(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FlowAssignment:
    """Route ``demands`` with even splitting over equal-cost shortest paths.

    This reproduces OSPF's ECMP behaviour for a given weight setting.
    """
    demands.validate(network)
    stack = CompiledDag.from_weights(network, demands.destinations(), weights, tolerance)
    return stack.flows(demands, stack.uniform_ratios())


def all_or_nothing_assignment(
    network: Network,
    demands: TrafficMatrix,
    weights: WeightsLike,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FlowAssignment:
    """Route every demand along a single shortest path (no splitting).

    Ties are broken deterministically: each node forwards on its DAG link
    with the lowest link index, so repeated calls with the same inputs give
    the same flows -- a property the sub-gradient iterations of Algorithm 1
    rely on for reproducibility.
    """
    demands.validate(network)
    stack = CompiledDag.from_weights(network, demands.destinations(), weights, tolerance)
    return stack.flows(demands, stack.first_hop_ratios())


def split_ratio_assignment(
    network: Network,
    demands: TrafficMatrix,
    dags: ShortestPathDags,
    split_ratios: SplitRatios,
) -> FlowAssignment:
    """Route demands over precomputed DAGs with explicit split ratios.

    ``split_ratios[destination][node][hop]`` gives the fraction of the
    traffic for ``destination`` that ``node`` forwards to ``hop``; nodes
    without ratios split evenly and sources outside their DAG are dropped.
    This is the building block SPEF uses once the second link weights have
    produced the exponential split ratios of Eq. (22).
    """
    demands.validate(network)
    return CompiledDagSet(network, dags).route(demands, "split", split_ratios)
