"""Unit tests for the SPEF forwarding tables (Table II structure)."""

import numpy as np
import pytest
from routing_oracle import exponential_split_ratios, verify_split_consistency

from repro.core.forwarding import build_forwarding_tables, split_ratios_from_tables
from repro.network.spt import all_shortest_path_dags


@pytest.fixture
def diamond_setup(diamond_network):
    weights = np.ones(4)
    dags = all_shortest_path_dags(diamond_network, [4], weights)
    second = diamond_network.weight_vector({(1, 2): 1.0, (2, 4): 0.5, (1, 3): 0.0, (3, 4): 0.0})
    tables = build_forwarding_tables(diamond_network, dags, second)
    return dags, second, tables


class TestBuildTables:
    def test_every_node_with_next_hops_has_entries(self, diamond_setup, diamond_network):
        dags, second, tables = diamond_setup
        assert 4 in tables[1].entries
        assert set(tables[1].next_hops(4)) == {2, 3}
        # The destination itself holds no entry for itself.
        assert 4 not in tables[4].entries

    def test_path_lengths_under_second_weights(self, diamond_setup):
        dags, second, tables = diamond_setup
        rows = dict(tables[1].as_rows(4))
        assert rows[2] == (pytest.approx(1.5),)
        assert rows[3] == (pytest.approx(0.0),)

    def test_split_ratios_match_eq22(self, diamond_setup, diamond_network):
        dags, second, tables = diamond_setup
        expected = exponential_split_ratios(diamond_network, dags[4], second)
        assert tables[1].split_ratio(4, 2) == pytest.approx(expected[1][2])
        assert tables[1].split_ratio(4, 3) == pytest.approx(expected[1][3])

    def test_split_ratio_for_unknown_hop_is_zero(self, diamond_setup):
        _, _, tables = diamond_setup
        assert tables[1].split_ratio(4, 99) == 0.0
        assert tables[1].split_ratio(99, 2) == 0.0

    def test_split_ratios_sum_to_one(self, fig4, fig4_tm):
        weights = np.ones(fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        tables = build_forwarding_tables(fig4, dags, np.zeros(fig4.num_links))
        for table in tables.values():
            for destination in table.destinations():
                total = sum(table.split_ratios(destination).values())
                assert total == pytest.approx(1.0)

    def test_num_equal_cost_paths(self, diamond_setup):
        _, _, tables = diamond_setup
        assert tables[1].num_equal_cost_paths(4) == 2
        assert tables[2].num_equal_cost_paths(4) == 1

    def test_max_paths_per_entry_truncates_listing(self, fig4, fig4_tm):
        weights = np.ones(fig4.num_links)
        dags = all_shortest_path_dags(fig4, fig4_tm.destinations(), weights)
        tables = build_forwarding_tables(fig4, dags, np.zeros(fig4.num_links), max_paths_per_entry=1)
        for table in tables.values():
            for destination in table.destinations():
                for entry in table.entries[destination]:
                    assert entry.num_paths <= 1


class TestReindexAndVerify:
    def test_split_ratios_from_tables_format(self, diamond_setup):
        _, _, tables = diamond_setup
        ratios = split_ratios_from_tables(tables)
        assert 4 in ratios
        assert ratios[4][1][2] == pytest.approx(tables[1].split_ratio(4, 2))

    def test_verify_split_consistency_true(self, diamond_setup, diamond_network):
        dags, second, tables = diamond_setup
        assert verify_split_consistency(diamond_network, dags, second, tables)

    def test_verify_split_consistency_detects_tampering(self, diamond_setup, diamond_network):
        dags, second, tables = diamond_setup
        entry = tables[1].entries[4][0]
        tables[1].entries[4][0] = type(entry)(
            next_hop=entry.next_hop,
            path_lengths=entry.path_lengths,
            split_ratio=0.99,
        )
        assert not verify_split_consistency(diamond_network, dags, second, tables)

    def test_verify_split_consistency_missing_node(self, diamond_setup, diamond_network):
        dags, second, tables = diamond_setup
        del tables[1]
        assert not verify_split_consistency(diamond_network, dags, second, tables)
