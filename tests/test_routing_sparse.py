"""Unit tests for the compiled routing structures themselves.

The golden-equivalence suite (``test_routing_equivalence.py``) checks the
kernel against the dict-loop oracle end to end; these tests pin the
*internals* of :mod:`repro.routing` -- the CSR compilation, the structure of
the split matrix, the ratio kernels, the level-by-level propagation -- so a
regression points at the broken piece directly.
"""

from __future__ import annotations

import numpy as np
import pytest
import routing_oracle as oracle

import repro.core.nem as nem
from repro.core.nem import compute_second_weights
from repro.network.demands import DemandError, TrafficMatrix
from repro.network.graph import Network
from repro.network.spt import UnreachableError, all_shortest_path_dags
from repro.protocols.ospf import OSPF
from repro.routing import CompiledDagSet
from repro.routing.compiled import CompiledDag
from repro.solvers.assignment import all_or_nothing_assignment


@pytest.fixture
def diamond_compiled(diamond_network):
    return CompiledDag.from_weights(diamond_network, [4], np.ones(4))


class TestCompiledDag:
    def test_topological_structure(self, diamond_compiled, diamond_network):
        """Positions are network node indices; edges are CSR-sorted by tail."""
        compiled = diamond_compiled
        assert compiled.num_nodes == 4 and compiled.num_edges == 4
        assert np.all(np.diff(compiled.rows) >= 0)
        assert compiled.destinations == [4]
        destination = diamond_network.node_index(4)
        assert compiled.out_degree()[destination] == 0  # the destination forwards nothing
        # Acyclic: the transitive closure of P reaches no position from itself.
        reach = compiled.split_matrix().toarray() > 0
        for _ in range(compiled.num_nodes):
            reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        assert not np.any(np.diag(reach))

    def test_split_matrix_is_nilpotent(self, diamond_compiled):
        """P^depth == 0: propagating level by level terminates after depth steps."""
        matrix = diamond_compiled.split_matrix().toarray()
        assert np.any(matrix @ matrix) and not np.any(matrix @ matrix @ matrix)
        # ECMP rows sum to 1 wherever the node has next hops.
        sums = matrix.sum(axis=1)
        has_hops = diamond_compiled.out_degree() > 0
        assert sums[has_hops] == pytest.approx(1.0)
        assert np.all(sums[~has_hops] == 0.0)

    def test_uniform_and_first_hop_ratios(self, diamond_compiled):
        uniform = diamond_compiled.uniform_ratios()
        first = diamond_compiled.first_hop_ratios()
        degrees = diamond_compiled.out_degree()
        start = diamond_compiled.indptr[0]
        end = diamond_compiled.indptr[1]
        if end - start == 2:  # node 1 splits over 2 and 3
            assert uniform[start] == pytest.approx(0.5)
            assert first[start] == 1.0 and first[start + 1] == 0.0
        assert uniform.sum() == pytest.approx(int((degrees > 0).sum()))

    def test_propagate_solves_unit_triangular_system(self, diamond_compiled):
        """propagate() inverts (I - P^T) exactly (checked against dense solve)."""
        compiled = diamond_compiled
        ratios = compiled.uniform_ratios()
        entering = np.array([3.0, 1.0, 0.5, 0.0])[: compiled.num_nodes]
        x = compiled.propagate(entering, ratios)
        dense = np.eye(compiled.num_nodes) - compiled.split_matrix(ratios).toarray().T
        np.testing.assert_allclose(x, np.linalg.solve(dense, entering), atol=1e-12)

    def test_propagate_batched_equals_columnwise(self, diamond_compiled):
        compiled = diamond_compiled
        ratios = compiled.uniform_ratios()
        rng = np.random.default_rng(3)
        entering = rng.random((compiled.num_nodes, 5))
        batched = compiled.propagate(entering, ratios)
        for column in range(5):
            single = compiled.propagate(entering[:, column], ratios)
            np.testing.assert_array_equal(batched[:, column], single)

    def test_propagate_raises_at_loaded_dead_end(self):
        net = Network(name="deadend")
        net.add_link(1, 2, 10.0)
        net.add_link(2, 3, 10.0)
        # Node 2 reaches 3 but has no next hop.
        compiled = CompiledDag.from_mask(
            net, [3], np.array([[True, True, True]]), np.array([[True, False]])
        )
        with pytest.raises(UnreachableError):
            compiled.propagate(np.array([1.0, 0.0, 0.0]), compiled.uniform_ratios())
        # ... but an *unloaded* dead end is fine (matches the oracle's skip).
        x = compiled.propagate(np.array([0.0, 0.0, 0.0]), compiled.uniform_ratios())
        assert np.all(x == 0.0)

    def test_entering_vector_missing_modes(self, diamond_network):
        net = Network(name="oneway-diamond")
        for u, v in diamond_network.edges:
            net.add_link(u, v, 10.0)
        net.add_node(99)  # cannot reach 4
        compiled = CompiledDag.from_weights(net, [4], np.ones(4))
        with pytest.raises(UnreachableError):
            compiled.entering([TrafficMatrix({(99, 4): 1.0})], missing="raise")
        dropped = compiled.entering(
            [TrafficMatrix({(99, 4): 1.0, (1, 4): 2.0})], missing="drop", batched=False
        )
        assert dropped.sum() == pytest.approx(2.0)

    def test_from_next_hops_rejects_edges_leaving_the_dag(self):
        net = Network(name="bad")
        net.add_link(1, 2, 10.0)
        net.add_link(2, 3, 10.0)
        member = np.array([[True, False, True]])  # 2 is not a member
        with pytest.raises(UnreachableError):
            CompiledDag.from_mask(net, [3], member, np.array([[True, False]]))


class TestCompiledDagSet:
    def test_missing_destination_raises_oracle_error(self, diamond_network):
        no_dags = all_shortest_path_dags(diamond_network, [], np.ones(4))
        dag_set = CompiledDagSet(diamond_network, no_dags)
        with pytest.raises(UnreachableError, match="no shortest-path DAG"):
            dag_set.stacked([4])

    def test_ensemble_rejects_unknown_nodes(self, diamond_network):
        dags = all_shortest_path_dags(diamond_network, [4], np.ones(4))
        with pytest.raises(DemandError, match="99"):
            CompiledDagSet(diamond_network, dags).link_loads_many([TrafficMatrix({(99, 4): 1.0})])

    def test_amortised_traffic_distribution_matches_fresh(self, abilene, abilene_tm):
        """The compile-once path equals recompiling per call (NEM's contract)."""
        from repro.core.traffic_distribution import traffic_distribution

        weights = np.ones(abilene.num_links)
        dags = all_shortest_path_dags(abilene, abilene_tm.destinations(), weights)
        dag_set = CompiledDagSet(abilene, dags)
        rng = np.random.default_rng(11)
        for _ in range(3):
            second = rng.random(abilene.num_links)
            amortised = dag_set.traffic_distribution(abilene_tm, second)
            fresh = oracle.traffic_distribution(abilene, abilene_tm, dags, second)
            np.testing.assert_allclose(
                amortised.aggregate(), fresh.aggregate(), atol=1e-9, rtol=0
            )

    def test_nem_backends_converge_to_same_flows(self, fig4, fig4_tm, monkeypatch):
        """Algorithm 2 on the kernel and on the oracle yields matching flows and weights."""
        weights = np.ones(fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        from repro.solvers.assignment import ecmp_assignment

        target = ecmp_assignment(fig4, fig4_tm, weights).aggregate()
        sparse = compute_second_weights(fig4, fig4_tm, dags, target, max_iterations=40)
        monkeypatch.setattr(
            nem,
            "traffic_distribution",
            lambda network, demands, _compiled, second: oracle.traffic_distribution(
                network, demands, dags, second
            ),
        )
        python = compute_second_weights(fig4, fig4_tm, dags, target, max_iterations=40)
        assert sparse.iterations == python.iterations
        np.testing.assert_allclose(sparse.weights, python.weights, atol=1e-9)
        np.testing.assert_allclose(
            sparse.flows.aggregate(), python.flows.aggregate(), atol=1e-9
        )


class TestSparseRouter:
    """Routing under link weights: ``OSPF.batch_link_loads`` and all-or-nothing."""

    def test_unreachable_source_raises_in_batch(self):
        net = Network(name="oneway")
        net.add_link(1, 2, 10.0)  # 2 cannot reach 1
        ospf = OSPF(weights=np.ones(1))
        good = TrafficMatrix({(1, 2): 1.0})
        bad = TrafficMatrix({(2, 1): 1.0})
        assert ospf.batch_link_loads(net, [good]).shape == (1, 1)
        with pytest.raises(UnreachableError):
            ospf.batch_link_loads(net, [good, bad])

    def test_empty_ensemble(self, diamond_network):
        ospf = OSPF(weights=np.ones(4))
        assert ospf.batch_link_loads(diamond_network, []).shape == (0, 4)

    def test_all_or_nothing_mode(self, diamond_network, diamond_demands):
        flows = all_or_nothing_assignment(diamond_network, diamond_demands, np.ones(4))
        reference = oracle.all_or_nothing_assignment(diamond_network, diamond_demands, np.ones(4))
        np.testing.assert_allclose(flows.aggregate(), reference.aggregate(), atol=1e-9)
