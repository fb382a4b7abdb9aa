"""The routing kernel: compile destination DAGs once, route with numpy.

Every routing path in the library -- ECMP / all-or-nothing assignment,
explicit split ratios, SPEF's exponential traffic distribution, PEFT's
downward graph, the scenario engine's sweeps -- runs on one kernel
(:class:`CompiledDag`): the per-destination DAGs are stacked into a single
block-diagonal edge list over (destination, node) positions and flow is
propagated level by level, one ``bincount`` per DAG depth for all
destinations and demand matrices at once.

* :meth:`CompiledDag.from_weights` compiles the shortest-path DAGs of one
  weight setting; :meth:`CompiledDag.ensemble_loads` routes a whole demand
  ensemble over them in one stacked propagation;
* :class:`CompiledDagSet` keeps one builder call's DAG rows
  (:class:`~repro.network.spt.ShortestPathDags`) and routes many demand
  matrices, ratio settings or second weights against them.

The dict-loop reference implementation lives in ``tests/routing_oracle.py``;
``tests/test_routing_equivalence.py`` checks the kernel against it to 1e-9
(see the "Routing kernel" section of the README).
"""

from __future__ import annotations

from .compiled import CompiledDag, warn_degenerate_split
from .sparse import CompiledDagSet

__all__ = [
    "CompiledDag",
    "CompiledDagSet",
    "warn_degenerate_split",
]
