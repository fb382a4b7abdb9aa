"""Failure sweep: every Abilene trunk failure, SPEF vs OSPF, batch-evaluated.

The paper compares SPEF and OSPF on intact topologies (Fig. 9/10); this
example asks the operational question instead: *how do they hold up when a
fibre is cut?*  It enumerates every single-trunk failure of Abilene, routes
each perturbed instance with OSPF, SPEF and the re-optimised min-max LP
oracle through the parallel batch runner, and prints

* the per-protocol robustness summary (mean / median / worst-case / CVaR
  MLU, regret vs. re-optimising after the failure), and
* the scenarios where OSPF and SPEF leave the most performance on the table.

The sweep is run twice against one results store: the second pass is
served from the cells the first one stored and reports its speedup.

Run with:  PYTHONPATH=src python examples/failure_sweep.py
"""

from __future__ import annotations

import tempfile
import time

from repro.analysis.experiments import scenario_robustness_sweep, standard_instances
from repro.analysis.reporting import format_regret, format_robustness_summary
from repro.scenarios import BatchRunner, single_link_failures


def main() -> None:
    instance = standard_instances()["Abilene"]
    network = instance.network
    demands = instance.at_fraction(0.5)  # failures hurt but stay routable
    scenarios = single_link_failures(network)
    print(
        f"Topology: {network.name} ({network.num_nodes} nodes, {network.num_links} links)\n"
        f"Scenarios: baseline + {len(scenarios)} single-trunk failures\n"
        f"Protocols: OSPF, SPEF (+ re-optimised MinMaxMLU as the regret oracle)\n"
    )

    with tempfile.TemporaryDirectory(prefix="repro-scenarios-") as store_dir:
        runner = BatchRunner(results_store=f"{store_dir}/results.sqlite")

        start = time.perf_counter()
        sweep = scenario_robustness_sweep(
            network, demands, scenarios=scenarios, protocols=("OSPF", "SPEF"), runner=runner
        )
        cold = time.perf_counter() - start
        stats = sweep["stats"]
        print(
            f"Cold run: {stats.total} evaluations in {cold:.2f}s "
            f"({stats.workers} workers, {stats.cache_hits} cache hits)"
        )

        start = time.perf_counter()
        scenario_robustness_sweep(
            network, demands, scenarios=scenarios, protocols=("OSPF", "SPEF"), runner=runner
        )
        warm = time.perf_counter() - start
        print(
            f"Warm run: {runner.last_stats.cache_hits}/{runner.last_stats.total} from the store "
            f"in {warm:.2f}s ({cold / warm:.0f}x faster)\n"
        )

        print(format_robustness_summary(sweep["summary"]))
        print()
        print(format_regret(sweep["regret"], worst=6))
        print()

        worst = max(sweep["results"], key=lambda r: r.mlu)
        print(
            f"Worst case overall: {worst.protocol} under {worst.scenario_id} "
            f"reaches MLU {worst.mlu:.3f}"
            + (f" (dropped {worst.dropped_volume:.3g} units)" if worst.dropped_volume else "")
        )


if __name__ == "__main__":
    main()
