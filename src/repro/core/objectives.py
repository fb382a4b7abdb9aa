"""The (q, beta) proportional load-balance objective family (paper Section II-B).

The paper's generic utility of spare capacity ``s = c - f`` on link ``(i, j)``
is (Eq. 11)

    V_ij(s) = q_ij * log(s)                     if beta == 1
    V_ij(s) = q_ij * s^(1 - beta) / (1 - beta)  if beta != 1

The parameter ``beta`` interpolates between well-known TE objectives:

* ``beta = 0`` with ``q = d`` (link delays): minimise total processing and
  propagation delay; with ``q = 1`` it is minimum-hop routing (Example 3).
* ``beta = 1``: proportional load balance, equivalently M/M/1 average-delay
  routing with weights ``w = 1 / (c - f)`` (Example 1).
* ``beta = 2`` with ``q = c``: minimise total M/M/1 queueing delay, weights
  ``w = c / (c - f)^2`` (Example 2).
* ``beta -> inf``: min-max load balance, i.e. minimum MLU.

The class exposes the three pieces every algorithm needs: the utility, its
derivative ``V'(s)`` (the *first link weight* at optimality, Theorem 3.1) and
the inverse of the derivative (the closed-form solution of the per-link
subproblem ``Link_ij(V_ij; w_ij)`` in Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.graph import Network

ArrayLike = float | np.ndarray


class ObjectiveError(ValueError):
    """Raised for invalid objective parameters."""


@dataclass(frozen=True)
class LoadBalanceObjective:
    """A ``(q, beta)`` proportional load-balance utility.

    Parameters
    ----------
    beta:
        Non-negative load-balance exponent.
    q:
        Per-link positive coefficients, either a scalar (applied to every
        link) or a link-indexed vector.  Defaults to 1.
    """

    beta: float
    q: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ObjectiveError(f"beta must be non-negative, got {self.beta}")
        q = self.q
        if np.any(np.asarray(q) <= 0):
            raise ObjectiveError("q coefficients must be positive")

    # ------------------------------------------------------------------
    # constructors for the paper's named special cases
    # ------------------------------------------------------------------
    @classmethod
    def proportional(cls, q: float | np.ndarray = 1.0) -> LoadBalanceObjective:
        """Proportional load balance (``beta = 1``), Example 1."""
        return cls(beta=1.0, q=q)

    @classmethod
    def minimum_hop(cls) -> LoadBalanceObjective:
        """``(1, 0)`` load balance: minimum-hop routing (Example 3 with d=1)."""
        return cls(beta=0.0, q=1.0)

    @classmethod
    def delay_weighted(cls, network: Network) -> LoadBalanceObjective:
        """``(d, 0)`` load balance: minimise total propagation delay (Example 3)."""
        return cls(beta=0.0, q=network.delays)

    @classmethod
    def mm1_delay(cls, network: Network) -> LoadBalanceObjective:
        """``(c, 2)`` load balance: minimise total M/M/1 queueing delay (Example 2)."""
        return cls(beta=2.0, q=network.capacities)

    # ------------------------------------------------------------------
    # utility, derivative, inverse derivative
    # ------------------------------------------------------------------
    def coefficients(self, spare: np.ndarray) -> np.ndarray:
        """``q`` as one coefficient per entry of ``spare`` (a shape mismatch raises)."""
        q = np.asarray(self.q, dtype=float)
        if q.ndim == 0:
            return np.full_like(spare, float(q))
        if q.shape != spare.shape:
            raise ObjectiveError(
                f"q has shape {q.shape} but spare capacity has shape {spare.shape}"
            )
        return q

    def utility(self, spare: ArrayLike) -> np.ndarray:
        """Aggregate per-link utility ``V_ij(s_ij)`` (vectorised).

        Returns ``-inf`` entries where a barrier objective (``beta >= 1``)
        sees non-positive spare capacity.
        """
        spare_arr = np.asarray(spare, dtype=float)
        q = self.coefficients(spare_arr)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.beta == 1.0:
                values = np.where(spare_arr > 0, q * np.log(np.maximum(spare_arr, 1e-300)), -np.inf)
            else:
                exponent = 1.0 - self.beta
                if self.beta < 1.0:
                    powered = np.where(spare_arr >= 0, np.power(np.maximum(spare_arr, 0.0), exponent), np.nan)
                    values = q * powered / exponent
                else:
                    values = np.where(
                        spare_arr > 0,
                        q * np.power(np.maximum(spare_arr, 1e-300), exponent) / exponent,
                        -np.inf,
                    )
        return values

    def total_utility(self, spare: ArrayLike) -> float:
        """Sum of per-link utilities, the objective (5a)."""
        return float(np.sum(self.utility(spare)))

    def derivative(self, spare: ArrayLike) -> np.ndarray:
        """``V'_ij(s) = q_ij / s^beta`` -- the optimal first link weight."""
        spare_arr = np.asarray(spare, dtype=float)
        q = self.coefficients(spare_arr)
        if self.beta == 0.0:
            return q.copy()
        with np.errstate(divide="ignore"):
            return marginal_utility(q, spare_arr, self.beta)

    def derivative_inverse(self, weights: ArrayLike) -> np.ndarray:
        """Solve ``V'(s) = w`` for ``s``, i.e. ``s = (q / w)^(1/beta)``.

        This is the closed-form solution of the per-link subproblem
        ``Link_ij(V_ij; w_ij)`` used at every iteration of Algorithm 1.  For
        ``beta = 0`` the utility is linear so the subproblem has no interior
        optimum; by convention we return 0 when ``w >= q`` (the link keeps no
        spare capacity valuation) and ``inf`` otherwise -- Algorithm 1 clips
        the latter to the link capacity.
        """
        w = np.asarray(weights, dtype=float)
        q = self.coefficients(np.broadcast_to(np.zeros(1), w.shape) if w.ndim else np.asarray(0.0))
        q = np.asarray(self.q, dtype=float)
        if q.ndim == 0:
            q = np.full_like(w, float(q))
        if self.beta == 0.0:
            return np.where(w >= q, 0.0, np.inf)
        with np.errstate(divide="ignore"):
            ratio = np.where(w > 0, q / np.maximum(w, 1e-300), np.inf)
            return np.power(ratio, 1.0 / self.beta)

    # ------------------------------------------------------------------
    # congestion-cost view (for the Frank-Wolfe reference solver)
    # ------------------------------------------------------------------
    def is_barrier(self) -> bool:
        """True when the utility diverges to -inf at zero spare capacity."""
        return self.beta >= 1.0

    def congestion_cost(self, network: Network, flow: np.ndarray) -> float:
        """``Phi(f) = -sum_ij V_ij(c_ij - f_ij)``, the convex cost to minimise."""
        spare = network.capacities - np.asarray(flow, dtype=float)
        utility = self.utility(spare)
        if np.any(np.isneginf(utility)):
            return np.inf
        return float(-np.sum(utility))

    def congestion_gradient(self, network: Network, flow: np.ndarray) -> np.ndarray:
        """``dPhi/df_ij = V'_ij(c_ij - f_ij)``: marginal congestion cost per link."""
        spare = network.capacities - np.asarray(flow, dtype=float)
        return self.derivative(spare)

    def optimal_weights(self, network: Network, flow: np.ndarray) -> np.ndarray:
        """First link weights implied by an optimal flow, ``w = V'(c - f)``."""
        return self.congestion_gradient(network, flow)

    def verify_load_balance(
        self,
        network: Network,
        candidate_spare: np.ndarray,
        other_spare: np.ndarray,
    ) -> float:
        """The left-hand side of the (q, beta) load-balance test (Eq. 4).

        ``candidate_spare`` plays the role of ``s*``; a non-positive return
        value for *every* feasible ``other_spare`` certifies that the
        candidate is (q, beta) proportionally load balanced (Theorem 3.3).
        """
        candidate = np.asarray(candidate_spare, dtype=float)
        other = np.asarray(other_spare, dtype=float)
        q = self.coefficients(candidate)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = q * (other - candidate) / np.power(np.maximum(candidate, 1e-300), self.beta)
        return float(np.sum(terms))

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        q = np.asarray(self.q)
        q_label = f"{float(q):g}" if q.ndim == 0 else "per-link"
        return f"(q={q_label}, beta={self.beta:g}) proportional load balance"


def marginal_utility(q: ArrayLike, spare: np.ndarray, beta: float) -> np.ndarray:
    """``V'(s) = q / s^beta`` where ``s > 0`` and ``inf`` elsewhere, for ``beta > 0``.

    The one formula behind ``LoadBalanceObjective.derivative`` and the
    Frank-Wolfe gradient oracle; it leaves divide warnings to the caller.
    """
    return np.where(spare > 0, q / np.power(np.maximum(spare, 1e-300), beta), np.inf)


def normalized_utility(utilizations: ArrayLike) -> float:
    """The evaluation section's normalised utility: ``sum log(1 - u_ij)``.

    Returns ``-inf`` when the maximum link utilization reaches or exceeds 1,
    matching how Fig. 10 treats overloaded OSPF runs.
    """
    u = np.asarray(utilizations, dtype=float)
    if (u >= 1.0).any():
        return float("-inf")
    return float(np.log(1.0 - u).sum())
