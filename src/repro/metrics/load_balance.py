"""Load-balance criteria from Section II-B, as checkable predicates.

The paper defines a hierarchy of load-balance notions on traffic
distributions -- min-max, proportional, weighted proportional and the generic
(q, beta) criterion -- and proves (Theorem 3.3) that (q, beta) balance is
equivalent to optimality of the corresponding utility problem.  These
functions turn the definitions into executable checks used by the tests and
by the Table I benchmark: given a candidate distribution and a set of
alternative feasible distributions, they verify the defining inequalities.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..core.objectives import LoadBalanceObjective
from ..network.flows import FlowAssignment


def spare_capacity(flows: FlowAssignment) -> np.ndarray:
    """Spare capacity vector ``s = c - f`` of a traffic distribution."""
    return flows.spare_capacity()


def proportional_balance_score(
    candidate: FlowAssignment, other: FlowAssignment, q: float = 1.0, beta: float = 1.0
) -> float:
    """Left-hand side of the (q, beta) criterion (Eq. 4) for one alternative.

    Negative or zero means the alternative does not improve on the candidate
    in the (q, beta) sense.
    """
    objective = LoadBalanceObjective(beta=beta, q=q)
    return objective.verify_load_balance(
        candidate.network, candidate.spare_capacity(), other.spare_capacity()
    )


def is_qbeta_balanced(
    candidate: FlowAssignment,
    alternatives: Iterable[FlowAssignment],
    q: float = 1.0,
    beta: float = 1.0,
    tolerance: float = 1e-6,
) -> bool:
    """Check the (q, beta) proportional load-balance condition against alternatives.

    The definition quantifies over *all* feasible distributions; in practice
    we check it against a finite set of alternatives (e.g. perturbations or
    other protocols' outputs), which is what the tests and Table I use.
    """
    return all(
        proportional_balance_score(candidate, other, q=q, beta=beta) <= tolerance
        for other in alternatives
    )


def is_min_max_balanced(
    candidate: FlowAssignment,
    alternatives: Iterable[FlowAssignment],
    tolerance: float = 1e-9,
) -> bool:
    """Check the min-max load-balance definition against a set of alternatives.

    ``candidate`` is min-max balanced w.r.t. an alternative ``f`` when: for
    every link where ``f`` leaves more spare capacity than the candidate,
    there exists another link with utilization at least as high (under the
    candidate) whose spare capacity ``f`` decreases.
    """
    capacities = candidate.network.capacities
    candidate_spare = candidate.spare_capacity()
    candidate_util = 1.0 - candidate_spare / capacities
    for other in alternatives:
        other_spare = other.spare_capacity()
        improved = np.where(other_spare > candidate_spare + tolerance)[0]
        for index in improved:
            # Look for a link (u, v) with utilization >= that of `index` whose
            # spare capacity strictly decreases under the alternative.
            mask = (candidate_util >= candidate_util[index] - tolerance) & (
                other_spare < candidate_spare - tolerance
            )
            if not np.any(mask):
                return False
    return True


def minimizes_mlu(
    candidate: FlowAssignment,
    alternatives: Iterable[FlowAssignment],
    tolerance: float = 1e-9,
) -> bool:
    """True when no alternative achieves a strictly lower MLU."""
    candidate_mlu = candidate.max_link_utilization()
    return all(
        other.max_link_utilization() >= candidate_mlu - tolerance for other in alternatives
    )


def alternative_routings(network, demands, count: int = 3, seed: int = 0) -> list:
    """Feasible alternative traffic distributions for the same demands.

    The load-balance definitions quantify over *feasible* distributions, i.e.
    routings that carry the same demands.  This helper produces a handful of
    them by routing the demands with even ECMP under randomly perturbed link
    weights -- a cheap family of alternatives for exercising the criteria in
    tests.  (Note that scaling an existing distribution up or down does *not*
    yield a valid alternative: it would route different demand volumes.)
    """
    from ..solvers.assignment import ecmp_assignment

    rng = np.random.default_rng(seed)
    alternatives = []
    for _ in range(count):
        weights = 0.5 + rng.random(network.num_links)
        alternatives.append(ecmp_assignment(network, demands, weights))
    return alternatives
