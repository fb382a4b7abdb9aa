"""Reference Frank-Wolfe loop: the solver as it was before its per-matrix compile.

:func:`solve_frank_wolfe` here is the library's flow-deviation loop in the
form that re-did every piece of per-iteration work from scratch:

* every all-or-nothing call re-validates the matrix with a set difference
  (:func:`validate`) and rebuilds the demand entering each (destination,
  node) position with a Python loop over the pairs (:func:`entering_loop`);
* the exact line step evaluates the full gradient oracle at every probe
  and reads the moving links out of it (:func:`line_step`);
* the gradient is ``LoadBalanceObjective.derivative`` as it read then, a
  full ``q`` vector and one ``errstate`` per call (:func:`derivative`).

The tests in ``tests/test_fw_oracle.py`` run the library's
``solve_optimal_te`` and ``SPEF.fit`` with this loop (with the pair loop
in place of ``CompiledDag.entering`` and :func:`derivative` as the gradient) and assert bitwise-equal results,
so hoisting work out of the iteration can never change a fit.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from operator import itemgetter

import numpy as np

from repro.network.demands import DemandError, TrafficMatrix
from repro.network.flows import FlowAssignment
from repro.network.graph import Network, Node
from repro.network.spt import DEFAULT_TOLERANCE, UnreachableError
from repro.routing.compiled import CompiledDag
from repro.solvers.frank_wolfe import FrankWolfeResult
from repro.solvers.mcf import SolverError, solve_min_cost_mcf, solve_min_mlu

Oracle = Callable[[np.ndarray], np.ndarray]


def derivative(q: np.ndarray, spare: np.ndarray, beta: float) -> np.ndarray:
    """``V'(s) = q / s^beta`` (``inf`` at ``s <= 0``), written out independently."""
    q = np.full_like(spare, float(q)) if np.ndim(q) == 0 else q
    with np.errstate(divide="ignore"):
        return np.where(spare > 0, q / np.power(np.maximum(spare, 1e-300), beta), np.inf)


def validate(demands: TrafficMatrix, network: Network) -> None:
    """Every demand endpoint is a network node (first unknown in pair order)."""
    unknown = set(itertools.chain.from_iterable(demands)).difference(network.nodes)
    for source, target in demands if unknown else ():
        if source in unknown:
            raise DemandError(f"demand source {source!r} is not in the network")
        if target in unknown:
            raise DemandError(f"demand target {target!r} is not in the network")


def entering_loop(
    stack: CompiledDag,
    matrices: Sequence[TrafficMatrix],
    missing: str = "raise",
    batched: bool = True,
) -> np.ndarray:
    """``CompiledDag.entering`` as a per-pair loop over node and block dicts."""
    n = stack.network.num_nodes
    index = {node: i for i, node in enumerate(stack.network.nodes)}
    base = {d: k * n for k, d in enumerate(stack.destinations)}
    positions: list[int] = []
    volumes: list[float] = []
    pairs: list[tuple[Node, Node]] = []
    block: list[int] = []
    for matrix in matrices:
        keys = list(matrix)
        if keys != pairs:
            pairs = keys
            block = [base[target] + index[source] for source, target in pairs]
        positions.extend(block)
        volumes.extend(map(itemgetter(1), matrix.items()))
    position_array = np.asarray(positions, dtype=np.int64)
    volume_array = np.asarray(volumes, dtype=float)
    column_array = np.repeat(np.arange(len(matrices)), [len(matrix) for matrix in matrices])
    routable = stack.member[position_array]
    if not np.all(routable):
        if missing == "raise":
            block_index, node_index = divmod(int(position_array[~routable][0]), n)
            raise UnreachableError(
                f"demand source {stack.network.nodes[node_index]!r} cannot reach "
                f"{stack.destinations[block_index]!r}"
            )
        position_array = position_array[routable]
        volume_array = volume_array[routable]
        column_array = column_array[routable]
    if not batched:
        return np.bincount(position_array, weights=volume_array, minlength=stack.num_nodes)
    m = len(matrices)
    return np.bincount(
        position_array * m + column_array, weights=volume_array, minlength=stack.num_nodes * m
    ).reshape(stack.num_nodes, m)


def all_or_nothing_assignment(
    network: Network, demands: TrafficMatrix, weights: np.ndarray
) -> FlowAssignment:
    """First-hop routing on the weights' DAGs, re-validated and re-laid-out per call."""
    validate(demands, network)
    stack = CompiledDag.from_weights(network, demands.destinations(), weights, DEFAULT_TOLERANCE)
    ratios = stack.first_hop_ratios()
    throughflow = stack.propagate(entering_loop(stack, [demands], batched=False), ratios)
    loads = stack.destination_loads(throughflow, ratios)
    return FlowAssignment(network, stack.destinations, loads)


def line_step(
    gradient: Oracle, aggregate: np.ndarray, direction: np.ndarray, tol: float = 1e-10
) -> float:
    """The exact step's slope root, each probe one full-vector gradient call."""
    moving = direction != 0.0
    d = direction[moving]

    def slope(alpha: float) -> float:
        with np.errstate(invalid="ignore"):
            return float(np.dot(d, gradient(aggregate + alpha * direction)[moving]))

    s_hi = slope(1.0)
    if np.isfinite(s_hi) and s_hi <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    s_lo = slope(0.0)
    side = 0
    while hi - lo > tol:
        alpha = 0.5 * (lo + hi)
        if np.isfinite(s_lo) and np.isfinite(s_hi):
            secant = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
            if lo < secant < hi:
                alpha = secant
        s = slope(alpha)
        if s == 0.0:
            return alpha
        if s < 0.0:
            lo, s_lo = alpha, s
            if side < 0:
                s_hi *= 0.5
            side = -1
        else:
            hi, s_hi = alpha, s
            if side > 0:
                s_lo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


def finite_costs(weights: np.ndarray) -> np.ndarray:
    """A saturated link's ``inf`` marginal cost made ``num_links x`` the top finite one."""
    finite = np.isfinite(weights)
    if finite.all():
        return weights
    top = float(weights[finite].max()) if finite.any() else 0.0
    return np.where(finite, weights, (top if top > 0 else 1.0) * weights.size)


def stacked(flows: FlowAssignment, rows: list[Node], num_links: int) -> np.ndarray:
    out = np.zeros((len(rows), num_links))
    for i, destination in enumerate(rows):
        vector = flows.per_destination.get(destination)
        if vector is not None:
            out[i] = vector
    return out


def solve_frank_wolfe(
    network: Network,
    demands: TrafficMatrix,
    cost: Callable[[np.ndarray], float],
    gradient: Oracle,
    barrier: bool = True,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    initial_flows: FlowAssignment | None = None,
) -> FrankWolfeResult:
    """The flow-deviation loop with every per-iteration rebuild in place."""
    validate(demands, network)
    if not len(demands):
        empty = FlowAssignment(network=network)
        return FrankWolfeResult(
            flows=empty,
            objective=float(cost(empty.aggregate())),
            link_weights=gradient(empty.aggregate()),
            iterations=0,
            relative_gap=0.0,
            converged=True,
        )
    if initial_flows is None:
        start = solve_min_mlu(network, demands, allow_overload=not barrier)
        if barrier and start.objective >= 1.0 - 1e-9:
            raise SolverError("no strictly feasible start")
        current = start.flows
    else:
        current = initial_flows
    rows = list(dict.fromkeys([*demands.destinations(), *current.per_destination]))
    flows = stacked(current, rows, network.num_links)

    history: list[float] = []
    relative_gap = np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):  # noqa: B007
        aggregate = flows.sum(axis=0)
        weights = finite_costs(np.maximum(gradient(aggregate), 0.0))
        if barrier:
            target = all_or_nothing_assignment(network, demands, weights)
        else:
            target = solve_min_cost_mcf(network, demands, weights, capacitated=True).flows
        target_flows = stacked(target, rows, network.num_links)
        current_cost = float(cost(aggregate))
        history.append(current_cost)
        direction = target_flows.sum(axis=0) - aggregate
        gap = float(-np.dot(weights, direction))
        relative_gap = gap / max(abs(current_cost), 1.0)
        if relative_gap <= tolerance:
            converged = True
            break
        alpha = line_step(gradient, aggregate, direction)
        flows = (1 - alpha) * flows + alpha * target_flows

    aggregate = flows.sum(axis=0)
    final_cost = float(cost(aggregate))
    history.append(final_cost)
    return FrankWolfeResult(
        flows=FlowAssignment(network, rows, flows),
        objective=final_cost,
        link_weights=finite_costs(np.maximum(gradient(aggregate), 0.0)),
        iterations=iteration,
        relative_gap=float(relative_gap),
        converged=converged,
        objective_history=history,
    )
