"""Golden equivalence of the routing kernel against the dict-loop oracle.

The stacked kernel in :mod:`repro.routing` must be a *drop-in* for the
dict-loop reference implementations in ``routing_oracle.py``: identical link
loads (within 1e-9,
in practice float round-off), identical per-destination decompositions,
identical error behaviour on unroutable demands, identical fallbacks on
degenerate split ratios.  These properties are checked on random topologies
and demand patterns generated by Hypothesis -- including ECMP ties (duplicate
and zero weights), zero-demand nodes and disconnected graphs -- plus a few
hand-built worst cases.

Run under the ``ci`` Hypothesis profile (``HYPOTHESIS_PROFILE=ci``) the
examples are derandomised so any failure reproduces exactly.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
import routing_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import Instance
from repro.core.spef import SPEF
from repro.core.traffic_distribution import traffic_distribution
from repro.metrics.paths import path_counts
from repro.network.demands import DemandError, TrafficMatrix
from repro.network.flows import FlowAssignment
from repro.network.graph import Network
from repro.network.spt import (
    DEFAULT_TOLERANCE,
    UnreachableError,
    all_shortest_path_dags,
    shortest_path_dag,
    shortest_path_mask,
)
from repro.protocols.ospf import OSPF, invcap_weights
from repro.routing import CompiledDag, CompiledDagSet
from repro.scenarios.scenario import Scenario
from repro.solvers.assignment import (
    all_or_nothing_assignment,
    ecmp_assignment,
    split_ratio_assignment,
)
from repro.topology import abilene_network, cernet2_network, rand50a
from repro.traffic.fortz_thorup_tm import abilene_traffic_matrix
from repro.traffic.netflow import cernet2_traffic_matrix

TOLERANCE = 1e-9

#: Weight pool: zeros create zero-cost plateaus, duplicates create ECMP ties.
WEIGHT_POOL = (0.0, 1.0, 1.0, 2.0, 3.0, 5.0)

#: Zero-weight plateaus: duplex ``(u, v, weight)`` links, a destination, and
#: the exact DAG edge set the plateau rule gives.
PLATEAU_CASES = {
    # All distances tie; flat links lead towards the destination, the exit.
    "all-zero": (
        [(1, 2, 0.0), (2, 3, 0.0), (1, 3, 0.0), (3, 4, 0.0)],
        4,
        {(3, 4), (1, 3), (2, 3)},
    ),
    "all-zero-to-1": (
        [(1, 2, 0.0), (2, 3, 0.0), (1, 3, 0.0), (3, 4, 0.0)],
        1,
        {(2, 1), (3, 1), (4, 3)},
    ),
    # b sits between two exits one flat hop away and keeps both.
    "two-exits": (
        [("b", "c", 0.0), ("a", "b", 0.0), ("a", "t", 1.0), ("c", "t", 1.0)],
        "t",
        {("a", "t"), ("c", "t"), ("b", "a"), ("b", "c")},
    ),
    # c is two flat hops from either exit: both of its flat links lead closer.
    "two-hop": (
        [
            ("a", "b", 0.0),
            ("b", "c", 0.0),
            ("c", "d", 0.0),
            ("d", "e", 0.0),
            ("a", "t", 1.0),
            ("e", "t", 1.0),
        ],
        "t",
        {("a", "t"), ("e", "t"), ("b", "a"), ("d", "e"), ("c", "b"), ("c", "d")},
    ),
}


def _plateau_network(links) -> tuple[Network, np.ndarray]:
    net = Network(name="plateau")
    weights: list[float] = []
    for u, v, weight in links:
        net.add_duplex_link(u, v, 10.0)
        weights.extend([weight, weight])
    return net, np.array(weights)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def topology(draw, connected: bool = True) -> tuple[Network, np.ndarray]:
    """A small random directed network with weights drawn from WEIGHT_POOL.

    ``connected=True`` seeds a directed ring so every node reaches every
    other; ``connected=False`` omits the ring, producing graphs where some
    demands are unroutable.
    """
    n = draw(st.integers(min_value=3, max_value=7))
    edges: dict[tuple[int, int], None] = {}
    if connected:
        for i in range(n):
            edges[(i, (i + 1) % n)] = None
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    for edge in extra:
        edges[edge] = None
    net = Network(name="hypothesis")
    for node in range(n):
        net.add_node(node)
    for u, v in edges:
        net.add_link(u, v, capacity=10.0)
    weights = np.array(
        draw(
            st.lists(
                st.sampled_from(WEIGHT_POOL),
                min_size=net.num_links,
                max_size=net.num_links,
            )
        )
    )
    return net, weights


@st.composite
def demands_for(draw, net: Network) -> TrafficMatrix:
    """Random demands over a network; zero volumes leave zero-demand nodes."""
    nodes = net.nodes
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=0, max_size=len(pairs)))
    tm = TrafficMatrix()
    for pair in chosen:
        volume = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        tm.add(pair[0], pair[1], volume)
    return tm


@st.composite
def routing_instance(draw, connected: bool = True):
    net, weights = draw(topology(connected=connected))
    tm = draw(demands_for(net))
    return net, weights, tm


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def assert_flows_equal(python: FlowAssignment, sparse: FlowAssignment) -> None:
    """Aggregate and per-destination loads agree to TOLERANCE."""
    assert set(python.per_destination) == set(sparse.per_destination)
    np.testing.assert_allclose(
        python.aggregate(), sparse.aggregate(), atol=TOLERANCE, rtol=0
    )
    for destination, vector in python.per_destination.items():
        np.testing.assert_allclose(
            vector, sparse.per_destination[destination], atol=TOLERANCE, rtol=0
        )


def run_both(oracle_fn, kernel_fn, *args, **kwargs):
    """Run a routine's oracle and kernel implementations on the same input.

    Returns ``(python_result, sparse_result)``; when the oracle raises, the
    kernel must raise the same exception type and ``(exc, exc)`` is
    returned instead.
    """
    try:
        python = oracle_fn(*args, **kwargs)
    except UnreachableError as exc:
        with pytest.raises(type(exc)):
            kernel_fn(*args, **kwargs)
        return exc, exc
    sparse = kernel_fn(*args, **kwargs)
    return python, sparse


def test_oracle_shares_no_kernel_code():
    """The oracle owns its Eq. (22) and propagation: no import from ``repro.core``
    or ``repro.routing`` except the degenerate-split log helper."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    shared = {
        name
        for name in imported
        if name.startswith(("repro.core", "repro.routing"))
        and not name.endswith(".warn_degenerate_split")
    }
    assert not shared, f"routing_oracle.py imports library routing code: {sorted(shared)}"


# ----------------------------------------------------------------------
# property-based equivalence
# ----------------------------------------------------------------------
class TestEquivalenceOnRandomInstances:
    @given(
        instance=routing_instance(connected=False),
        tolerance=st.sampled_from((DEFAULT_TOLERANCE, 1.0)),
    )
    def test_dag_builder_matches_oracle(self, instance, tolerance):
        """The array builder's distances and link sets equal the dict-loop rule's."""
        net, weights, _ = instance
        built = all_shortest_path_dags(net, net.nodes, weights, tolerance)
        for destination, dag in built.items():
            reference = oracle.shortest_path_dag(net, destination, weights, tolerance)
            assert dag.distances == reference.distances
            assert dag.next_hops == reference.next_hops
            assert len(oracle.topological_order(dag)) == len(dag.distances)
            assert all(dag.next_hops[node] for node in dag.next_hops)

    @given(instance=routing_instance())
    def test_ecmp(self, instance):
        net, weights, tm = instance
        python, sparse = run_both(oracle.ecmp_assignment, ecmp_assignment, net, tm, weights)
        if isinstance(python, FlowAssignment):
            assert_flows_equal(python, sparse)

    @given(instance=routing_instance())
    def test_all_or_nothing(self, instance):
        net, weights, tm = instance
        python, sparse = run_both(oracle.all_or_nothing_assignment, all_or_nothing_assignment, net, tm, weights)
        if isinstance(python, FlowAssignment):
            assert_flows_equal(python, sparse)

    @given(instance=routing_instance(), data=st.data())
    def test_split_ratios(self, instance, data):
        """Random, degenerate (all-zero) and missing per-node ratios agree."""
        net, weights, tm = instance
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        split: dict = {}
        for destination, dag in dags.items():
            per_node: dict = {}
            for node, hops in dag.next_hops.items():
                if not hops:
                    continue
                style = data.draw(
                    st.sampled_from(["random", "zero", "missing"]), label=f"style-{node}"
                )
                if style == "missing":
                    continue
                if style == "zero":
                    per_node[node] = {hop: 0.0 for hop in hops}
                else:
                    # Negative values included: the oracle normalises by the
                    # signed total but never pushes a non-positive share.
                    values = data.draw(
                        st.lists(
                            st.floats(min_value=-0.5, max_value=1.0, allow_nan=False),
                            min_size=len(hops),
                            max_size=len(hops),
                        ),
                        label=f"ratios-{node}",
                    )
                    per_node[node] = dict(zip(hops, values, strict=True))
            split[destination] = per_node
        python, sparse = run_both(oracle.split_ratio_assignment, split_ratio_assignment, net, tm, dags, split)
        if isinstance(python, FlowAssignment):
            assert_flows_equal(python, sparse)

    @given(instance=routing_instance(), data=st.data())
    def test_traffic_distribution(self, instance, data):
        net, weights, tm = instance
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        second = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                    min_size=net.num_links,
                    max_size=net.num_links,
                )
            )
        )
        python, sparse = run_both(oracle.traffic_distribution, traffic_distribution, net, tm, dags, second)
        if isinstance(python, FlowAssignment):
            assert_flows_equal(python, sparse)

    @given(instance=routing_instance(connected=False))
    def test_unroutable_demands_raise_on_both_backends(self, instance):
        """On (possibly) disconnected graphs the backends fail identically."""
        net, weights, tm = instance
        python, sparse = run_both(oracle.ecmp_assignment, ecmp_assignment, net, tm, weights)
        if isinstance(python, FlowAssignment):
            assert_flows_equal(python, sparse)

    @given(instance=routing_instance(connected=False))
    def test_split_ratio_drops_unroutable_demands_on_both_backends(self, instance):
        """The split-ratio path silently drops unreachable sources -- identically."""
        net, weights, tm = instance
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        python, sparse = run_both(oracle.split_ratio_assignment, split_ratio_assignment, net, tm, dags, {})
        if isinstance(python, FlowAssignment):
            assert_flows_equal(python, sparse)

    @given(instance=routing_instance(), count=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25)
    def test_batched_matches_per_matrix_oracle(self, instance, count):
        """link_loads_many rows equal the oracle's aggregate, matrix by matrix."""
        net, weights, tm = instance
        matrices = [tm.scaled(0.5 * (i + 1)) for i in range(count)]
        loads = OSPF(weights=weights).batch_link_loads(net, matrices)
        assert loads.shape == (count, net.num_links)
        for row, matrix in zip(loads, matrices, strict=True):
            reference = oracle.ecmp_assignment(net, matrix, weights)
            np.testing.assert_allclose(row, reference.aggregate(), atol=TOLERANCE, rtol=0)


# ----------------------------------------------------------------------
# hand-built worst cases
# ----------------------------------------------------------------------
class TestEquivalenceCorners:
    def test_ecmp_tie_on_diamond(self, diamond_network, diamond_demands):
        """The classic two-equal-paths tie splits 50/50 on both backends."""
        weights = np.ones(diamond_network.num_links)
        python, sparse = run_both(
            oracle.ecmp_assignment, ecmp_assignment, diamond_network, diamond_demands, weights
        )
        assert_flows_equal(python, sparse)
        assert sparse.flow_on(1, 2) == pytest.approx(4.0)
        assert sparse.flow_on(1, 3) == pytest.approx(4.0)

    def test_zero_weight_plateau(self):
        """Flat links point one plateau hop closer to an exit; kernel and oracle agree."""
        for links, destination, expected in PLATEAU_CASES.values():
            net, weights = _plateau_network(links)
            dag = shortest_path_dag(net, destination, weights)
            assert set(dag.edges()) == expected
            assert len(oracle.topological_order(dag)) == net.num_nodes  # acyclic, all reachable
            assert all(dag.next_hops[node] for node in net.nodes if node != destination)
            assert dag.next_hops == oracle.shortest_path_dag(net, destination, weights).next_hops
            tm = TrafficMatrix(
                {(node, destination): 1.0 for node in net.nodes if node != destination}
            )
            python, sparse = run_both(oracle.ecmp_assignment, ecmp_assignment, net, tm, weights)
            assert_flows_equal(python, sparse)

    def test_all_or_nothing_takes_the_lowest_link_index(self):
        """AON forwards on a node's lowest-index DAG link, plateau links included."""
        links, destination, _ = PLATEAU_CASES["two-exits"]
        net, weights = _plateau_network(links)
        tm = TrafficMatrix({("b", destination): 1.0})
        flows = all_or_nothing_assignment(net, tm, weights)
        # b's DAG links are b->a and b->c; the b-c duplex was added first.
        assert net.link_index("b", "c") < net.link_index("b", "a")
        assert flows.flow_on("b", "c") == pytest.approx(1.0)
        assert flows.flow_on("b", "a") == 0.0
        python = oracle.all_or_nothing_assignment(net, tm, weights)
        assert_flows_equal(python, flows)

    def test_zero_demand_matrix(self, diamond_network):
        """An empty matrix yields zero loads (and no destinations) on both."""
        tm = TrafficMatrix()
        python, sparse = run_both(
            oracle.ecmp_assignment,
            ecmp_assignment,
            diamond_network,
            tm,
            np.ones(diamond_network.num_links),
        )
        assert python.per_destination == {} and sparse.per_destination == {}
        assert sparse.aggregate().shape == (diamond_network.num_links,)

    def test_negative_stored_ratios_match_oracle(self, diamond_network, diamond_demands):
        """Negative ratios: normalise by the signed total, emit no negative flow."""
        weights = np.ones(diamond_network.num_links)
        dags = all_shortest_path_dags(diamond_network, [4], weights)
        split = {4: {1: {2: 2.0, 3: -1.0}}}
        python, sparse = run_both(
            oracle.split_ratio_assignment,
            split_ratio_assignment,
            diamond_network,
            diamond_demands,
            dags,
            split,
        )
        assert_flows_equal(python, sparse)
        assert np.all(sparse.aggregate() >= 0.0)
        # total = 1.0, so hop 2 carries ratio 2.0 of the load; hop 3 nothing.
        assert sparse.flow_on(1, 2) == pytest.approx(16.0)
        assert sparse.flow_on(1, 3) == pytest.approx(0.0)

    def test_missing_dag_raises_on_both_backends(self, diamond_network, diamond_demands):
        no_dags = all_shortest_path_dags(diamond_network, [], np.ones(4))
        for implementation in (oracle.split_ratio_assignment, split_ratio_assignment):
            with pytest.raises(UnreachableError):
                implementation(diamond_network, diamond_demands, no_dags, {})

    def test_augmented_dag_extra_hops_agree(self, fig4, fig4_tm):
        """DAGs with extra (augmented) downhill edges route identically."""
        # Distinct weights leave downhill links off the DAG (unit weights do not).
        weights = np.linspace(1.0, 2.0, fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        # Mimic SPEF's DAG augmentation: OR every strictly-downhill link into
        # the mask, before the oracle reads the dict views.
        sources, targets = fig4.link_node_indices()
        tail, head = dags.distances[:, sources], dags.distances[:, targets]
        downhill = (head < tail) & np.isfinite(tail)
        assert np.any(downhill & ~dags.mask)
        dags.mask |= downhill
        python, sparse = run_both(oracle.split_ratio_assignment, split_ratio_assignment, fig4, fig4_tm, dags, {})
        assert_flows_equal(python, sparse)

    def test_sparse_router_single_matches_batch(self, abilene, abilene_tm):
        """route(), ecmp_assignment() and link_loads_many() are mutually consistent."""
        weights = np.ones(abilene.num_links)
        dag_set = CompiledDagSet(
            abilene, all_shortest_path_dags(abilene, abilene_tm.destinations(), weights)
        )
        flows = dag_set.route(abilene_tm)
        single = ecmp_assignment(abilene, abilene_tm, weights).aggregate()
        batch = dag_set.link_loads_many([abilene_tm, abilene_tm.scaled(2.0)])
        np.testing.assert_allclose(flows.aggregate(), single, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(batch[0], single, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(batch[1], 2.0 * single, atol=1e-8, rtol=0)

    def test_all_or_nothing_tie_break_matches_oracle(self, diamond_network, diamond_demands):
        """Deterministic first-hop tie break picks the same path on both."""
        weights = np.ones(diamond_network.num_links)
        python, sparse = run_both(
            oracle.all_or_nothing_assignment,
            all_or_nothing_assignment,
            diamond_network,
            diamond_demands,
            weights,
        )
        assert_flows_equal(python, sparse)
        used = [edge for edge, value in sparse.aggregate_dict().items() if value > 0]
        assert len(used) == 2  # one path, not a split


# ----------------------------------------------------------------------
# protocol-level equivalence (the rewired callers)
# ----------------------------------------------------------------------
class TestProtocolBackendEquivalence:
    def test_ospf_backends_agree_on_abilene(self, abilene, abilene_tm):
        python = oracle.ecmp_assignment(abilene, abilene_tm, OSPF().link_weights(abilene))
        sparse = OSPF().route(abilene, abilene_tm)
        assert_flows_equal(python, sparse)

    def test_peft_backends_agree_on_abilene(self, abilene, abilene_tm):
        from repro.protocols.peft import PEFT

        weights = np.ones(abilene.num_links)
        python = oracle.peft_route(abilene, abilene_tm, weights)
        sparse = PEFT(weights=weights).route(abilene, abilene_tm)
        assert_flows_equal(python, sparse)

    def test_peft_batch_matches_route(self, abilene, abilene_tm):
        from repro.protocols.peft import PEFT

        weights = np.ones(abilene.num_links)
        protocol = PEFT(weights=weights)
        matrices = [abilene_tm, abilene_tm.scaled(0.5)]
        loads = protocol.batch_link_loads(abilene, matrices)
        assert loads is not None
        for row, matrix in zip(loads, matrices, strict=True):
            np.testing.assert_allclose(
                row, protocol.route(abilene, matrix).aggregate(), atol=TOLERANCE, rtol=0
            )

    def test_peft_derived_weights_decline_batching(self, abilene, abilene_tm):
        from repro.protocols.peft import PEFT

        assert PEFT().batch_link_loads(abilene, [abilene_tm]) is None

    @given(data=st.data())
    @settings(max_examples=15)
    def test_peft_backends_agree_on_random_instances(self, data):
        from repro.protocols.peft import PEFT

        net, weights = data.draw(topology(connected=True))
        tm = data.draw(demands_for(net))
        # PEFT needs strictly positive weights for a well-defined downward
        # graph; shift the pool so plateaus still occur through duplicates.
        weights = weights + 0.5
        python = oracle.peft_route(net, tm, weights)
        sparse = PEFT(weights=weights).route(net, tm)
        assert_flows_equal(python, sparse)


# ----------------------------------------------------------------------
# a deep input: the kernel iterates once per DAG level
# ----------------------------------------------------------------------
def _deep_chain() -> tuple[Network, np.ndarray, TrafficMatrix]:
    """A 160-node duplex chain with an ECMP diamond every 5 hops (192 nodes).

    Each diamond's detour ``c_k -> d_k -> c_{k+1}`` ties the direct link, and
    the links between ``c80`` and ``c84`` weigh zero (a plateau whose flat
    links drain towards its exit).  DAG depth is ~160, far beyond what the
    7-node Hypothesis graphs reach.
    """
    net = Network(name="deep-chain")
    weights: list[float] = []

    def duplex(u: str, v: str, weight: float) -> None:
        net.add_duplex_link(u, v, 10.0)
        weights.extend([weight, weight])

    for k in range(159):
        duplex(f"c{k}", f"c{k + 1}", 0.0 if 80 <= k < 84 else 1.0)
        if k % 5 == 0:
            duplex(f"c{k}", f"d{k}", 0.5)
            duplex(f"d{k}", f"c{k + 1}", 0.5)
    tm = TrafficMatrix(
        {
            ("c159", "c0"): 5.0,
            ("c100", "c0"): 2.0,
            ("d50", "c0"): 1.5,
            ("c82", "c0"): 1.0,
            ("c0", "c159"): 3.0,
            ("c81", "c159"): 1.0,
            ("d120", "c40"): 0.5,
        }
    )
    return net, np.array(weights), tm


DEEP_ROUTINES = ("ecmp", "all_or_nothing", "split_ratios", "traffic_distribution")


class TestDeepChain:
    def test_input_is_deep(self):
        net, weights, _ = _deep_chain()
        assert net.num_nodes == 192
        dag = all_shortest_path_dags(net, ["c0"], weights)["c0"]
        assert len(dag.paths_from("c159", limit=1)[0]) > 150

    def test_plateau_orientation(self):
        """The c80-c84 plateau drains towards its exit on either side."""
        net, weights, tm = _deep_chain()
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        plateau = [f"c{k}" for k in range(80, 85)]
        towards_c0 = {node: dags["c0"].next_hops[node] for node in plateau}
        assert towards_c0 == {
            "c80": ["c79"], "c81": ["c80"], "c82": ["c81"], "c83": ["c82"], "c84": ["c83"]
        }
        towards_c159 = {node: dags["c159"].next_hops[node] for node in plateau}
        assert towards_c159 == {
            "c80": ["c81"], "c81": ["c82"], "c82": ["c83"], "c83": ["c84"], "c84": ["c85"]
        }
        for destination, dag in dags.items():
            assert len(oracle.topological_order(dag)) == net.num_nodes
            assert all(dag.next_hops[node] for node in net.nodes if node != destination)
            assert dag.next_hops == oracle.shortest_path_dag(net, destination, weights).next_hops

    @pytest.mark.parametrize("routine", DEEP_ROUTINES)
    def test_one_shot(self, routine):
        net, weights, tm = _deep_chain()
        dags = all_shortest_path_dags(net, tm.destinations(), weights)
        rng = np.random.default_rng(5)
        if routine == "ecmp":
            python, sparse = run_both(oracle.ecmp_assignment, ecmp_assignment, net, tm, weights)
        elif routine == "all_or_nothing":
            python, sparse = run_both(
                oracle.all_or_nothing_assignment, all_or_nothing_assignment, net, tm, weights
            )
        elif routine == "split_ratios":
            split = {
                destination: {
                    node: dict(zip(hops, rng.random(len(hops)), strict=True))
                    for node, hops in dag.next_hops.items()
                    if len(hops) > 1
                }
                for destination, dag in dags.items()
            }
            python, sparse = run_both(
                oracle.split_ratio_assignment, split_ratio_assignment, net, tm, dags, split
            )
        else:
            second = rng.random(net.num_links)
            python, sparse = run_both(
                oracle.traffic_distribution, traffic_distribution, net, tm, dags, second
            )
        assert_flows_equal(python, sparse)
        assert sparse.aggregate().max() > 0

    def test_path_counts_match_oracle(self):
        """Up to 2**31 paths per pair (one doubling per diamond), still exact."""
        net, weights, _ = _deep_chain()
        assert_counts_match_oracle(all_shortest_path_dags(net, net.nodes, weights))

    def test_batched(self):
        net, weights, tm = _deep_chain()
        matrices = [tm, tm.scaled(0.5), tm.scaled(2.0)]
        loads = OSPF(weights=weights).batch_link_loads(net, matrices)
        assert loads.shape == (3, net.num_links)
        for row, matrix in zip(loads, matrices, strict=True):
            reference = oracle.ecmp_assignment(net, matrix, weights)
            np.testing.assert_allclose(row, reference.aggregate(), atol=TOLERANCE, rtol=0)


# ----------------------------------------------------------------------
# Table V path counts: one stacked kernel DP against the dict DP
# ----------------------------------------------------------------------
def assert_counts_match_oracle(dags):
    """Kernel path counts equal the oracle's, as exact ints, for every (destination, node)."""
    nodes = dags.network.nodes
    for destination, counts in zip(dags.destinations, path_counts(dags).tolist(), strict=True):
        reference = oracle.count_paths(dags[destination])
        assert counts == [reference.get(node, 0) for node in nodes]


class TestPathCounts:
    @pytest.mark.parametrize("weighting", ["invcap", "unit"])
    @pytest.mark.parametrize("build", [abilene_network, cernet2_network, rand50a])
    def test_standard_instances(self, build, weighting):
        net = build()
        weights = invcap_weights(net) if weighting == "invcap" else np.ones(net.num_links)
        assert_counts_match_oracle(all_shortest_path_dags(net, net.nodes, weights))

    def test_spef_augmented_dags(self, fig4, fig4_tm):
        """A strict ECMP tolerance leaves optimal-flow links for the augmentation to add."""
        solution = SPEF(ecmp_tolerance=1e-9).fit(fig4, fig4_tm)
        dags = solution.dags
        _, builder_mask = shortest_path_mask(
            fig4, dags.destinations, solution.first_weights, dags.tolerance
        )
        assert np.any(dags.mask & ~builder_mask)
        assert_counts_match_oracle(dags)
        for destination, dag in dags.items():
            reference = oracle.count_paths(dag)
            for source in fig4.nodes:
                assert solution.equal_cost_paths(source, destination) == reference.get(source, 0)


class TestOneRowPathCounts:
    @pytest.mark.parametrize("instance", ["fig4", "cernet2"])
    def test_one_row_compiled_per_call(self, instance, fig4, fig4_tm, monkeypatch):
        """``equal_cost_paths`` compiles only the requested destination's row."""
        if instance == "fig4":
            network, demands = fig4, fig4_tm
        else:
            network = cernet2_network()
            base = cernet2_traffic_matrix(network, mean_utilization=0.25, seed=2010)
            demands = Instance(network, base, "Backbone").at_fraction(0.75)
        solution = SPEF().fit(network, demands)
        compiled_rows: list[int] = []
        from_mask = CompiledDag.from_mask.__func__

        def counting(cls, network, destinations, member, mask):
            compiled_rows.append(mask.shape[0])
            return from_mask(cls, network, destinations, member, mask)

        monkeypatch.setattr(CompiledDag, "from_mask", classmethod(counting))
        calls = 0
        for destination, dag in solution.dags.items():
            reference = oracle.count_paths(dag)
            for source in network.nodes:
                assert solution.equal_cost_paths(source, destination) == reference.get(source, 0)
                calls += 1
        assert compiled_rows == [1] * calls


# ----------------------------------------------------------------------
# the per-matrix demand layout (TrafficMatrix.layout) behind `entering`
# ----------------------------------------------------------------------
def _oracle_loads(network, demands, weights):
    return oracle.ecmp_assignment(network, demands, weights).aggregate()


def assert_loads_equal(actual, expected):
    np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0)


def _reordered(network: Network) -> Network:
    """``network`` with its nodes indexed in reverse order (links unchanged)."""
    copy = Network(name=f"{network.name}/reversed")
    for node in reversed(network.nodes):
        copy.add_node(node)
    for link in network.links:
        copy.add_link(link.source, link.target, link.capacity, link.delay)
    return copy


class TestDemandLayout:
    @pytest.fixture
    def abilene_case(self):
        network = abilene_network()
        demands = abilene_traffic_matrix(network, total_volume=10.0, seed=3)
        return network, demands, invcap_weights(network)

    def test_add_after_routing_changes_the_next_loads(self, abilene_case):
        network, full, weights = abilene_case
        *pairs, fresh = full.pairs()
        demands = TrafficMatrix({pair: full[pair] for pair in pairs})
        before = ecmp_assignment(network, demands, weights).aggregate()
        demands.add(*pairs[0], demands[pairs[0]])  # an existing pair grows
        grown = ecmp_assignment(network, demands, weights).aggregate()
        assert not np.array_equal(grown, before)
        assert_loads_equal(grown, _oracle_loads(network, demands, weights))
        demands.add(*fresh, 0.25)  # a new pair
        added = ecmp_assignment(network, demands, weights).aggregate()
        assert not np.array_equal(added, grown)
        assert_loads_equal(added, _oracle_loads(network, demands, weights))

    def test_one_matrix_on_several_networks(self, abilene_case):
        """Base, a failure copy, a node-reordered copy and the base again: no stale positions."""
        network, demands, _ = abilene_case
        failed = Scenario(scenario_id="cut", failed_links=(network.edges[0],))
        perturbed = failed.apply(network, demands).network
        for net in (network, perturbed, _reordered(network), network):
            weights = invcap_weights(net)
            loads = ecmp_assignment(net, demands, weights).aggregate()
            assert_loads_equal(loads, _oracle_loads(net, demands, weights))
            first_hop = all_or_nothing_assignment(net, demands, weights).aggregate()
            reference = oracle.all_or_nothing_assignment(net, demands, weights).aggregate()
            assert_loads_equal(first_hop, reference)

    def test_unknown_endpoint_after_warm_cache(self, fig1):
        demands = TrafficMatrix({(1, 3): 1.0, (2, 4): 0.5})
        demands.validate(fig1)  # warm
        smaller = Network(name="no-node-2")
        for link in fig1.links:
            if 2 not in link.endpoints:
                smaller.add_link(link.source, link.target, link.capacity)
        for _ in range(2):  # a failed layout is not kept
            with pytest.raises(DemandError, match=r"^demand source 2 is not in the network$"):
                demands.validate(smaller)
        demands.validate(fig1)

    def test_destination_outside_the_stack_raises(self, abilene_case):
        network, demands, weights = abilene_case
        first, *others = demands.destinations()
        stack = CompiledDag.from_weights(network, others, weights)
        with pytest.raises(UnreachableError, match=f"no DAG towards {first!r} in this stack"):
            stack.ensemble_loads([demands], stack.uniform_ratios())

    def test_ensemble_over_repeated_and_mixed_pair_sets(self, abilene_case):
        network, demands, weights = abilene_case
        pairs = demands.pairs()
        subset = TrafficMatrix({pair: demands[pair] for pair in pairs[::3]})
        shuffled = TrafficMatrix({pair: 2.0 * demands[pair] for pair in reversed(pairs)})
        matrices = [demands, demands.scaled(0.5), demands, subset, shuffled, subset]
        destinations = list(dict.fromkeys(d for tm in matrices for d in tm.destinations()))
        stack = CompiledDag.from_weights(network, destinations, weights)
        loads = stack.ensemble_loads(matrices, stack.uniform_ratios())
        for row, matrix in zip(loads, matrices, strict=True):
            assert_loads_equal(row, _oracle_loads(network, matrix, weights))
