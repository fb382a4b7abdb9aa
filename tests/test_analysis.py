"""Tests for the experiment harness and reporting helpers (fast paths only)."""

import pytest

from repro.analysis.experiments import (
    fig2_cost_curves,
    fig4_example_results,
    fig5_forwarding_table,
    table1_weights_and_utilizations,
    table4_demands,
)
from repro.analysis.reporting import (
    format_histogram,
    format_series,
    format_table,
)
from repro.topology.paper_examples import fig4_network


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": float("inf")}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "inf" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])
        assert "t" in format_table([], title="t")

    def test_format_table_column_subset(self):
        text = format_table([{"a": 1, "b": 2}], columns=["a"])
        assert "b" not in text.splitlines()[0]

    def test_format_series(self):
        text = format_series({"s1": [1.0, 2.0], "s2": [3.0]}, x_values=[0.1, 0.2], x_label="load")
        assert "load" in text
        assert "s1" in text and "s2" in text

    def test_format_series_empty(self):
        assert format_series({}) == "(empty)"

    def test_format_histogram(self):
        text = format_histogram({1: 10, 2: 3}, title="paths")
        assert "paths" in text
        assert "10" in text


class TestSmallExperiments:
    def test_table1_rows(self):
        rows = table1_weights_and_utilizations()
        # 4 objectives x 4 links.
        assert len(rows) == 16
        beta1 = {r["link"]: r for r in rows if r["objective"] == "beta=1"}
        assert beta1["1->3"]["weight"] == pytest.approx(3.0, rel=0.02)
        assert beta1["3->4"]["utilization"] == pytest.approx(0.9, abs=1e-3)

    def test_fig2_curves_shape(self):
        curves = fig2_cost_curves(loads=[0.0, 0.5, 0.9])
        assert set(curves) == {"load", "FT", "beta=0", "beta=1", "beta=2"}
        for name in ("FT", "beta=1", "beta=2"):
            values = curves[name]
            assert values == sorted(values)  # increasing in load
        assert curves["beta=0"][1] == pytest.approx(0.5)

    def test_fig4_example_results_keys(self):
        results = fig4_example_results(betas=(1.0,))
        assert len(results["link_labels"]) == 13
        assert len(results["OSPF_utilization"]) == 13
        assert len(results["SPEF1_utilization"]) == 13
        assert len(results["SPEF1_first_weights"]) == 13
        assert len(results["SPEF1_second_weights"]) == 13
        assert max(results["OSPF_utilization"]) > max(results["SPEF1_utilization"])

    def test_fig5_forwarding_table_rows(self):
        result = fig5_forwarding_table(beta=1.0, destination=2)
        rows = result["rows"]
        assert rows, "expected at least one forwarding entry towards node 2"
        for row in rows:
            assert row["destination"] == 2
            assert 0 <= row["split_ratio"] <= 1

    def test_table4_demands(self):
        demands = table4_demands()
        assert demands["simple"].total_volume() == pytest.approx(16.0)
        assert demands["cernet2"].total_volume() == pytest.approx(3.5)
        demands["simple"].validate(fig4_network())
