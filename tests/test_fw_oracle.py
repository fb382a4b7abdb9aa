"""Fits are bitwise equal to the reference Frank-Wolfe loop in ``fw_oracle.py``.

The reference re-validates the matrix, rebuilds the entering vector with a
pair loop and opens an ``errstate`` in every gradient call and line probe;
the library compiles each matrix's layout once and opens one ``errstate``
per line step.
Every compared field must be ``array_equal``, not merely close.
"""

from __future__ import annotations

import math

import fw_oracle
import numpy as np
import pytest

import repro.core.te_problem as te_problem
from repro.analysis.experiments import Instance
from repro.core.objectives import LoadBalanceObjective
from repro.core.spef import SPEF
from repro.core.te_problem import TEProblem, solve_optimal_te
from repro.network.demands import TrafficMatrix
from repro.network.flows import FlowAssignment
from repro.routing.compiled import CompiledDag
from repro.solvers.mcf import solve_min_mlu
from repro.topology import abilene_network, cernet2_network, fig4_demands, fig4_network
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
from repro.traffic.netflow import cernet2_traffic_matrix


def _at_075(network, base):
    return network, Instance(network=network, base_demands=base, kind="Backbone").at_fraction(0.75)


def _abilene_jittered(seed: int, k: int):
    """A spef-fit benchmark input: the Abilene TM, per-pair jitter from ``(seed, k)``, 0.75x."""
    network = abilene_network()
    base = abilene_traffic_matrix(network, total_volume=1.0, seed=1)
    rng = np.random.default_rng([seed, k])
    return _at_075(
        network,
        TrafficMatrix({pair: v * math.exp(rng.normal(0.0, 0.05)) for pair, v in base.items()}),
    )


def _abilene():
    network = abilene_network()
    return _at_075(network, abilene_traffic_matrix(network, total_volume=1.0, seed=1))


def _cernet2():
    network = cernet2_network()
    return _at_075(network, cernet2_traffic_matrix(network, mean_utilization=0.25, seed=2010))


def _fig4():
    return fig4_network(), fig4_demands()


#: id -> (instance builder, SPEF config overrides; ``objective`` may be a network -> objective).
INPUTS = {
    "fig4": (_fig4, {}),
    "abilene": (_abilene, {}),
    "cernet2": (_cernet2, {}),
    **{
        f"spef-fit-s{seed}-k{k}": (lambda seed=seed, k=k: _abilene_jittered(seed, k), {})
        for seed in (11, 21)
        for k in range(3)
    },
    "mm1-delay": (lambda: _abilene_jittered(11, 0), {"objective": LoadBalanceObjective.mm1_delay}),
    # Capacitated FW solves one LP per iteration: a capped run keeps it quick.
    "beta-0.5": (
        _fig4,
        {"objective": lambda _: LoadBalanceObjective(beta=0.5), "te_max_iterations": 60},
    ),
    "dual": (_fig4, {"te_solver": "dual"}),
}


def _config(name: str, network) -> dict:
    overrides = dict(INPUTS[name][1])
    if "objective" in overrides:
        overrides["objective"] = overrides["objective"](network)
    return overrides


@pytest.fixture
def reference_loop(monkeypatch):
    """Route every solve through the reference loop, gradient and entering vector."""

    def run(call):
        with monkeypatch.context() as patched:
            patched.setattr(te_problem, "solve_frank_wolfe", fw_oracle.solve_frank_wolfe)
            patched.setattr(te_problem, "marginal_utility", fw_oracle.derivative)
            patched.setattr(CompiledDag, "entering", fw_oracle.entering_loop)
            return call()

    return run


def assert_flows_equal(actual, expected):
    assert list(actual.per_destination) == list(expected.per_destination)
    for destination, vector in expected.per_destination.items():
        np.testing.assert_array_equal(actual.per_destination[destination], vector)


def assert_te_equal(actual, expected):
    assert_flows_equal(actual.flows, expected.flows)
    np.testing.assert_array_equal(actual.link_weights, expected.link_weights)
    np.testing.assert_array_equal(actual.objective_history, expected.objective_history)
    assert actual.iterations == expected.iterations


@pytest.mark.parametrize("name", list(INPUTS))
def test_fit_matches_reference_loop(name, reference_loop):
    network, demands = INPUTS[name][0]()
    overrides = _config(name, network)
    fit = SPEF(**overrides).fit(network, demands)
    expected = reference_loop(lambda: SPEF(**overrides).fit(network, demands))
    np.testing.assert_array_equal(fit.raw_first_weights, expected.raw_first_weights)
    np.testing.assert_array_equal(fit.second_weights, expected.second_weights)
    assert_flows_equal(fit.flows, expected.flows)
    if expected.te_solution is not None:
        assert_te_equal(fit.te_solution, expected.te_solution)
    else:
        np.testing.assert_array_equal(fit.first_result.weights, expected.first_result.weights)


@pytest.mark.parametrize("name", ["fig4", "abilene", "mm1-delay", "beta-0.5"])
def test_solve_optimal_te_matches_reference_loop(name, reference_loop):
    network, demands = INPUTS[name][0]()
    overrides = _config(name, network)
    objective = overrides.get("objective", LoadBalanceObjective.proportional())
    problem = TEProblem(network=network, demands=demands, objective=objective)
    cap = overrides.get("te_max_iterations", 400)
    solution = solve_optimal_te(problem, max_iterations=cap)
    assert_te_equal(solution, reference_loop(lambda: solve_optimal_te(problem, max_iterations=cap)))


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("per_link", [False, True])
def test_gradient_matches_reference_derivative(beta, per_link):
    """One ``V'``: the solver's gradient, ``derivative`` and the reference agree bitwise.

    The spare capacities include subnormal, zero and negative values, where a
    formula without the ``1e-300`` clamp would overflow to ``inf``.
    """
    spare = np.array([2.0, 0.5, 1e-12, 1e-160, 1e-300, 5e-324, 0.0, -0.0, -1e-9, -3.0, np.inf])
    q = np.linspace(0.5, 2.0, spare.size) if per_link else np.asarray(1.5)
    objective = LoadBalanceObjective(q=q if per_link else 1.5, beta=beta)
    with np.errstate(divide="ignore", over="ignore"):
        expected = fw_oracle.derivative(q, spare, beta)
        np.testing.assert_array_equal(te_problem.marginal_utility(q, spare, beta), expected)
        np.testing.assert_array_equal(objective.derivative(spare), expected)


def test_warm_started_fit_matches_reference_loop(reference_loop):
    """``SPEF.fit(warm_start=)``: Abilene at 0.75x, then the same matrix at 0.8x."""
    network = abilene_network()
    instance = Instance(
        network=network,
        base_demands=abilene_traffic_matrix(network, total_volume=1.0, seed=1),
        kind="Backbone",
    )
    before, after = instance.at_fraction(0.75), instance.at_fraction(0.8)
    previous = SPEF().fit(network, before)
    start = SPEF()._warm_initial_flows(network, after, previous)
    assert start is not None  # the uniform rescaling is taken as a warm start
    factor = after.total_volume() / before.total_volume()
    assert start.destinations == previous.flows.destinations
    for destination, vector in previous.flows.per_destination.items():
        np.testing.assert_array_equal(start.per_destination[destination], factor * vector)

    fit = SPEF().fit(network, after, warm_start=previous)
    expected = reference_loop(lambda: SPEF().fit(network, after, warm_start=previous))
    np.testing.assert_array_equal(fit.raw_first_weights, expected.raw_first_weights)
    np.testing.assert_array_equal(fit.second_weights, expected.second_weights)
    assert_flows_equal(fit.flows, expected.flows)
    assert_te_equal(fit.te_solution, expected.te_solution)


def test_start_with_undemanded_row_matches_reference_loop(reference_loop):
    """``initial_flows`` rows out of demand order, plus a row for a node nobody sends to."""
    network, demands = _fig4()
    lp = solve_min_mlu(network, demands).flows
    order = [7, 3, 2]
    assert 5 not in demands.destinations()
    loads = np.vstack((np.full(network.num_links, 0.1), lp.rows(order)))
    start = FlowAssignment(network, [5, *order], loads)
    problem = TEProblem(network=network, demands=demands, objective=LoadBalanceObjective.proportional())
    solution = solve_optimal_te(problem, initial_flows=start)
    expected = reference_loop(lambda: solve_optimal_te(problem, initial_flows=start))
    assert solution.flows.destinations == [*demands.destinations(), 5]
    assert_te_equal(solution, expected)
