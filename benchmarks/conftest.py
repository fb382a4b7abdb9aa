"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one table or figure of the paper: it runs
the corresponding experiment from :mod:`repro.analysis.experiments`, prints
the same rows/series the paper reports (run pytest with ``-s`` to see them)
and asserts the qualitative shape (who wins, in which regime).

Set ``REPRO_FULL_BENCH=1`` to run the full seven-topology sweeps of Fig. 10;
by default a representative subset keeps the suite to a few minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The routing bench compares the kernel against the dict-loop oracle that
# lives with the equivalence suite (tests/routing_oracle.py).
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from bench_utils import BenchRecorder, full_bench  # noqa: E402

from repro.analysis.experiments import Instance, standard_instances  # noqa: E402
from repro.scenarios import BatchRunner, single_link_failures  # noqa: E402
from repro.topology.rocketfuel import synthetic_rocketfuel  # noqa: E402
from repro.traffic.gravity import gravity_traffic_matrix  # noqa: E402


def pytest_configure(config):
    """Register the scenario-suite marker (also listed in pyproject.toml)."""
    config.addinivalue_line(
        "markers", "scenarios: scenario-engine robustness sweeps (batch runner)"
    )


@pytest.fixture(scope="session")
def figure_recorder():
    """One results-store run collecting every per-figure module's records.

    The figure modules used to print their series to stdout and lose them;
    they now :meth:`BenchRecorder.add` one record per figure, and the whole
    session lands as a single ``paper-figures`` bench run
    (``repro results query --benchmark paper-figures``).  No committed view
    file: figures are reproduced, not gated.
    """
    recorder = BenchRecorder("paper-figures", artifact=None)
    yield recorder
    recorder.finalize()


@pytest.fixture(scope="session")
def instances() -> dict:
    """The seven Table III instances, shared (and cached) across benchmarks."""
    return standard_instances()


@pytest.fixture(scope="session")
def abilene_instance(instances) -> Instance:
    return instances["Abilene"]


@pytest.fixture(scope="session")
def cernet2_instance(instances) -> Instance:
    return instances["Cernet2"]


@pytest.fixture(scope="session")
def fig10_instance_names(instances) -> list:
    """Which instances the Fig. 10 benchmark sweeps (subset unless full bench)."""
    if full_bench():
        return list(instances)
    return ["Abilene", "Cernet2", "Hier50b", "Rand50a"]


# ----------------------------------------------------------------------
# scenario-engine fixtures (shared by the robustness benchmarks)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def scenario_runner(tmp_path_factory) -> BatchRunner:
    """A serial batch runner over a per-session results store whose cells
    stay warm across benchmark modules (serial: benchmark timings stay honest)."""
    store = tmp_path_factory.mktemp("scenario-store") / "results.sqlite"
    return BatchRunner(max_workers=0, results_store=store)


@pytest.fixture(scope="session")
def abilene_link_failures(abilene_instance) -> list:
    """Every single-trunk failure of Abilene (the canonical sweep)."""
    return single_link_failures(abilene_instance.network)


@pytest.fixture(scope="session")
def rocketfuel_instance() -> Instance:
    """A Rocketfuel-profile ISP (AS6461 Abovenet) with a gravity workload."""
    network = synthetic_rocketfuel(6461, seed=0)
    demands = gravity_traffic_matrix(network, total_volume=0.1 * network.total_capacity())
    return Instance(network=network, base_demands=demands, kind="Rocketfuel")
