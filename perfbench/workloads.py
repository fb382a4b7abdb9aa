"""The in-process workloads: SPEF fits and the two failure-sweep paths.

Each workload builds its inputs from the seed in :meth:`build` (the work
``setup_s`` times), then exposes one op, its output check and the checks made
after the timed phase.  The serve workload lives in :mod:`serve_load`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.analysis.experiments import Instance
from repro.core.spef import SPEF
from repro.network.demands import TrafficMatrix
from repro.online.controller import TEController
from repro.scenarios.generators import single_link_failures
from repro.scenarios.runner import ProtocolSpec, evaluate_scenario
from repro.topology.backbones import abilene_network
from repro.topology.generators import rand100
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
from repro.traffic.gravity import gravity_traffic_matrix, node_capacity_weights

#: Cells per run whose MLU is recomputed by the other sweep path.
CROSS_CHECK_CELLS = 8
#: Two sweep paths agree on a cell's MLU to this (absolute) tolerance.
MLU_TOLERANCE = 1e-9


class InProcessWorkload:
    """One op type driven in the benchmark's own process."""

    name: str
    #: Span name of the op itself in the traced run.
    root_span: str
    setup_repeats = 5
    warmup_ops = 5

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def inputs(self) -> Iterator[Any]:
        """The endless, seed-ordered op inputs (warm-up ops take the first ones)."""
        raise NotImplementedError

    def op(self, item: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Any, result: Any) -> bool:
        raise NotImplementedError

    def cross_check(self) -> int:
        """Failures found after the timed phase (outside ``setup_s``)."""
        return 0

    def traced_ops(self, seconds: int) -> int:
        """How many ops the traced run times (fixed, so work counts repeat)."""
        raise NotImplementedError

    def dspt_stats(self) -> Any | None:
        """The incremental SPT counters, for workloads that drive them."""
        return None


class SpefFit(InProcessWorkload):
    """Cold ``SPEF().fit`` on Abilene at 0.75x saturation, a new TM every op.

    The TMs are the standard Abilene matrix with seeded per-pair log-normal
    jitter (sigma 0.05): every input is new, so no cache of repeated inputs
    can fake a gain, yet each fit does comparable solver work.  Independent
    ``abilene_traffic_matrix`` seeds swing NEM between 42 and 500 iterations,
    which made the run median measure the draw rather than the code.
    """

    name = "spef-fit"
    root_span = "core.spef"
    setup_repeats = 3
    warmup_ops = 1
    #: Distinct TMs per run; a run fits ~12 at today's speed.
    CYCLE = 32
    JITTER = 0.05
    LOAD_FRACTION = 0.75

    def build(self, seed: int) -> None:
        network = abilene_network()
        base = abilene_traffic_matrix(network, total_volume=1.0, seed=1)
        matrices = []
        for k in range(self.CYCLE):
            rng = np.random.default_rng([seed, k])
            jittered = TrafficMatrix(
                {pair: volume * math.exp(rng.normal(0.0, self.JITTER))
                 for pair, volume in base.items()}
            )
            instance = Instance(network=network, base_demands=jittered, kind="Backbone")
            matrices.append(instance.at_fraction(self.LOAD_FRACTION))
        self.network = network
        self.matrices = matrices

    def inputs(self) -> Iterator[TrafficMatrix]:
        return itertools.cycle(self.matrices)

    def op(self, item: TrafficMatrix) -> Any:
        return SPEF().fit(self.network, item)

    def check(self, item: TrafficMatrix, result: Any) -> bool:
        return (
            result.optimality_gap() <= 1e-3
            and result.max_link_utilization() < 1.0
            and bool(np.all(np.isfinite(result.first_weights)))
            and bool(np.all(np.isfinite(result.second_weights)))
        )

    def traced_ops(self, seconds: int) -> int:
        return max(3, seconds // 6)


class _Rand100Sweep(InProcessWorkload):
    """rand100's single-link failures under seed-jittered gravity demands."""

    DEMAND_SHARE = 0.1
    NODE_JITTER = 0.2

    def build(self, seed: int) -> None:
        network = rand100()
        rng = np.random.default_rng(seed)
        activity = node_capacity_weights(network)
        out_w = {n: w * math.exp(rng.normal(0.0, self.NODE_JITTER)) for n, w in activity.items()}
        in_w = {n: w * math.exp(rng.normal(0.0, self.NODE_JITTER)) for n, w in activity.items()}
        self.network = network
        self.demands = gravity_traffic_matrix(
            network, self.DEMAND_SHARE * network.total_capacity(), out_w, in_w
        )
        cells = single_link_failures(network)
        self.cells = [cells[i] for i in rng.permutation(len(cells))]
        self.seed = seed
        #: Latest ``(mlu, connected)`` per cell id from the timed ops.
        self.results: dict[str, tuple[float, bool]] = {}

    def inputs(self) -> Iterator[Any]:
        return itertools.cycle(self.cells)

    def _record(self, cell: Any, mlu: float, connected: bool) -> bool:
        self.results[cell.scenario_id] = (mlu, connected)
        return math.isfinite(mlu)

    def _sample(self) -> list[Any]:
        by_id = {cell.scenario_id: cell for cell in self.cells}
        ids = sorted(self.results)
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(len(ids), size=min(CROSS_CHECK_CELLS, len(ids)), replace=False)
        return [by_id[ids[i]] for i in sorted(picks)]

    def _mismatches(self, cells: list[Any], other: list[tuple[float, bool]]) -> int:
        bad = 0
        for cell, (mlu, connected) in zip(cells, other):
            mine, my_connected = self.results[cell.scenario_id]
            if abs(mine - mlu) > MLU_TOLERANCE or my_connected != connected:
                bad += 1
        return bad


class ColdSweep(_Rand100Sweep):
    """One cold ``evaluate_scenario`` (OSPF) per op."""

    name = "cold-sweep"
    root_span = "scenarios.cell"
    warmup_ops = 3

    def build(self, seed: int) -> None:
        super().build(seed)
        self.spec = ProtocolSpec.of("OSPF")

    def op(self, item: Any) -> Any:
        return evaluate_scenario(self.network, self.demands, item, self.spec)

    def check(self, item: Any, result: Any) -> bool:
        return result.error is None and result.feasible and self._record(
            item, result.mlu, result.connected
        )

    def cross_check(self) -> int:
        cells = self._sample()
        controller = TEController(self.network, self.demands)
        other = [(m.mlu, m.connected) for m in controller.sweep_scenarios(cells)]
        return self._mismatches(cells, other)

    def traced_ops(self, seconds: int) -> int:
        return 3 * seconds


class IncrementalSweep(_Rand100Sweep):
    """One ``TEController.sweep_scenarios([cell])`` per op; controller built in setup."""

    name = "incremental-sweep"
    root_span = "online.sweep_cell"
    warmup_ops = 20

    def build(self, seed: int) -> None:
        super().build(seed)
        self.controller = TEController(self.network, self.demands)
        self.controller.measure()

    def op(self, item: Any) -> Any:
        return self.controller.sweep_scenarios([item])

    def check(self, item: Any, result: Any) -> bool:
        return len(result) == 1 and self._record(item, result[0].mlu, result[0].connected)

    def cross_check(self) -> int:
        cells = self._sample()
        spec = ProtocolSpec.of("OSPF")
        other = []
        for cell in cells:
            cold = evaluate_scenario(self.network, self.demands, cell, spec)
            other.append((cold.mlu, cold.connected))
        return self._mismatches(cells, other)

    def traced_ops(self, seconds: int) -> int:
        return 20 * seconds

    def dspt_stats(self) -> Any:
        return self.controller.spt.stats


IN_PROCESS = {w.name: w for w in (SpefFit, ColdSweep, IncrementalSweep)}
