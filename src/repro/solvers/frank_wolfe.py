"""Frank-Wolfe (flow deviation) solver for concave-utility multi-commodity flow.

This is the centralized reference solver for the paper's TE problem (5):

    maximize   sum_ij V_ij(c_ij - f_ij)
    subject to multi-commodity flow constraints.

Maximising a concave utility of spare capacity is equivalent to minimising the
convex congestion cost ``Phi(f) = -sum_ij V_ij(c_ij - f_ij)``.  The classic
flow-deviation method applies directly:

1. linearise the cost at the current aggregate flow, which yields link costs
   ``w_ij = V'_ij(c_ij - f_ij)`` -- exactly the paper's first link weights;
2. solve the linearised subproblem, i.e. route all demands on shortest paths
   under ``w`` (all-or-nothing assignment);
3. move towards that extreme point by the exact line-search step: the root
   on [0, 1] of the line slope ``phi'(alpha) = sum_l d_l * V'_l(c_l - f_l -
   alpha d_l)``, read from the same gradient oracle and found by safeguarded
   regula falsi (the full step when the slope at 1 is still non-positive).

The iterate is one ``(destination x link)`` array, rows in demand-destination
order, so the result does not depend on hash order.

Per matrix, the pair layout (``TrafficMatrix.layout``) is compiled once.
Per iteration, the gradient, the cost and the all-or-nothing routing (weight
checks, shortest-path build, DAG compile, propagation) are recomputed; the
line step's probes share one ``errstate`` instead of opening one each.

For strictly concave barrier-like utilities (``beta >= 1``) the cost diverges
as any link saturates, so iterates stay strictly feasible as long as the
starting point is.  For ``beta < 1`` the optimum may saturate links, so the
linearised subproblem is solved as a *capacitated* min-cost MCF LP instead;
a saturated link's infinite marginal cost is replaced by a finite one that
prices every path through it above any path avoiding it.

The solver is deliberately independent from Algorithm 1 (the distributed dual
decomposition); the test-suite cross-checks the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Network
from .assignment import all_or_nothing_assignment
from .mcf import SolverError, solve_min_cost_mcf, solve_min_mlu

#: Signatures of the link oracles: given the aggregate flow vector, the cost
#: oracle returns the total congestion cost and the gradient oracle the
#: per-link marginal costs.
CostOracle = Callable[[np.ndarray], float]
GradientOracle = Callable[[np.ndarray], np.ndarray]


@dataclass
class FrankWolfeResult:
    """Outcome of the flow-deviation solver."""

    flows: FlowAssignment
    objective: float
    #: Marginal link costs at the optimum, i.e. V'(s*): the first link weights.
    link_weights: np.ndarray
    iterations: int
    relative_gap: float
    converged: bool
    objective_history: list[float] = field(default_factory=list)


def _line_step(
    gradient: GradientOracle,
    aggregate: np.ndarray,
    direction: np.ndarray,
    tol: float = 1e-10,
) -> float:
    """The exact step on [0, 1]: the root of the line slope ``phi'(alpha)``.

    ``phi(alpha) = Phi(f + alpha d)`` is convex, so its slope
    ``phi'(alpha) = sum_l d_l * grad(f + alpha d)_l`` is non-decreasing.  The
    sum runs over the links with ``d_l != 0`` only: a saturated link the
    direction leaves alone (possible when ``beta < 1``) has an infinite
    marginal cost, and ``inf * 0`` would turn every slope into NaN.

    The full step is taken when ``phi'(1)`` is finite and non-positive.
    Otherwise the root is bracketed by safeguarded regula falsi (the Illinois
    variant); a probe past the barrier (a non-finite slope) or a secant point
    outside the bracket falls back to bisection.  Stops once the bracket is
    narrower than ``tol``, so the step is never 0.
    """
    moving = direction != 0.0
    d = direction[moving]

    def slope(alpha: float) -> float:
        return float(np.dot(d, gradient(aggregate + alpha * direction)[moving]))

    with np.errstate(divide="ignore", invalid="ignore"):  # probes past the barrier
        s_hi = slope(1.0)
        if math.isfinite(s_hi) and s_hi <= 0.0:
            return 1.0
        lo, hi = 0.0, 1.0
        s_lo = slope(0.0)
        side = 0
        while hi - lo > tol:
            alpha = 0.5 * (lo + hi)
            if math.isfinite(s_lo) and math.isfinite(s_hi):
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
            else:  # positive, +inf or NaN: at or past the root (or the barrier)
                hi, s_hi = alpha, s
                if side > 0:
                    s_lo *= 0.5
                side = 1
        return 0.5 * (lo + hi)


def _finite_costs(weights: np.ndarray) -> np.ndarray:
    """Marginal costs with every saturated link's ``inf`` made finite.

    With ``beta < 1`` a saturated link has an infinite marginal cost, which
    the min-cost LP rejects.  Its cost becomes ``num_links`` times the
    largest finite cost (1 if none is positive), so no simple path avoiding
    it costs more than a path through it; the LP's capacity constraint
    already keeps the direction feasible.  Finite inputs are returned as
    they are.
    """
    finite = np.isfinite(weights)
    if finite.all():
        return weights
    top = float(weights[finite].max()) if finite.any() else 0.0
    return np.where(finite, weights, (top if top > 0 else 1.0) * weights.size)


def solve_frank_wolfe(
    network: Network,
    demands: TrafficMatrix,
    cost: CostOracle,
    gradient: GradientOracle,
    barrier: bool = True,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    initial_flows: FlowAssignment | None = None,
) -> FrankWolfeResult:
    """Minimise a convex separable link cost over the MCF polytope.

    Parameters
    ----------
    cost, gradient:
        Oracles mapping the aggregate flow vector to the total cost and the
        vector of marginal link costs.  For the TE problem these are
        ``-sum V(c - f)`` and ``V'(c - f)``.
    barrier:
        ``True`` when the cost diverges at saturation (``beta >= 1``): the
        linearised subproblem is then an *uncapacitated* shortest-path
        assignment and the line search keeps iterates interior.  ``False``
        solves a capacitated min-cost MCF LP per iteration instead.
    initial_flows:
        A feasible starting assignment; by default the min-MLU LP solution
        (scaled slightly towards the interior when ``barrier`` is set).

    Raises
    ------
    SolverError
        If no feasible starting point exists (demands exceed capacity when a
        barrier cost is used).
    """
    demands.validate(network)
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
            raise SolverError(
                "demands cannot be routed with every link strictly below "
                f"capacity (best MLU = {start.objective:.4f}); a barrier "
                "objective has no feasible point"
            )
        current = start.flows
    else:
        current = initial_flows

    # The iterate as one (destination x link) array: the demand destinations
    # in demand order, then any other rows of the starting point.
    rows = list(dict.fromkeys([*demands.destinations(), *current.destinations]))
    flows = current.rows(rows)

    history: list[float] = []
    relative_gap = np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):  # noqa: B007
        aggregate = flows.sum(axis=0)
        weights = _finite_costs(np.maximum(gradient(aggregate), 0.0))
        if barrier:
            target = all_or_nothing_assignment(network, demands, weights)
        else:
            target = solve_min_cost_mcf(network, demands, weights, capacitated=True).flows
        target_flows = target.rows(rows)

        current_cost = float(cost(aggregate))
        history.append(current_cost)
        direction = target_flows.sum(axis=0) - aggregate
        gap = float(-np.dot(weights, direction))
        denom = max(abs(current_cost), 1.0)
        relative_gap = gap / denom
        if relative_gap <= tolerance:
            converged = True
            break

        alpha = _line_step(gradient, aggregate, direction)
        flows = (1 - alpha) * flows + alpha * target_flows

    aggregate = flows.sum(axis=0)
    final_cost = float(cost(aggregate))
    history.append(final_cost)
    return FrankWolfeResult(
        flows=FlowAssignment(network, rows, flows),
        objective=final_cost,
        link_weights=_finite_costs(np.maximum(gradient(aggregate), 0.0)),
        iterations=iteration,
        relative_gap=float(relative_gap),
        converged=converged,
        objective_history=history,
    )
