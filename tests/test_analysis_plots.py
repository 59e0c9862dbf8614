"""Tests for the terminal plot renderers."""

import numpy as np
import pytest

from repro.analysis.plots import (
    bar_chart,
    cluster_node_dashboard,
    line_chart,
    sparkline,
)
from repro.cluster.simulator import ClusterResult, NodeEpochRecord
from repro.errors import ExperimentError


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_monotone_glyphs(self):
        line = sparkline(range(8))
        assert list(line) == sorted(line, key="▁▂▃▄▅▆▇█".index)

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_nan_rendered_as_space(self):
        assert sparkline([1.0, float("nan"), 2.0])[1] == " "

    def test_custom_bounds(self):
        clipped = sparkline([5.0], lo=0.0, hi=10.0)
        assert clipped == "▄" or clipped == "▅"

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            sparkline([])


class TestBarChart:
    def test_rows_and_scaling(self):
        chart = bar_chart(["a", "bb"], [10.0, 5.0], width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_labels_aligned(self):
        chart = bar_chart(["x", "long"], [1.0, 1.0])
        lines = chart.splitlines()
        assert lines[0].index("█") == lines[1].index("█")

    def test_mismatched_lengths(self):
        with pytest.raises(ExperimentError):
            bar_chart(["a"], [1.0, 2.0])

    def test_unit_suffix(self):
        assert "%" in bar_chart(["a"], [42.0], unit="%")

    def test_max_value_caps_bars(self):
        chart = bar_chart(["a"], [200.0], width=10, max_value=100.0)
        assert chart.count("█") == 10


def _result(series, placement="round_robin", policy="SATORI", broker="none",
            slo=None):
    """A hand-built cluster result: ``series`` maps node -> per-epoch
    throughput (fairness follows throughput; occupancy is 2 jobs)."""
    records = []
    for node, values in series.items():
        for epoch, value in enumerate(values):
            records.append(NodeEpochRecord(
                epoch=epoch, node_id=node, job_ids=(1, 2), synthesized=False,
                throughput=value, fairness=value,
                slo_attained=((1, slo[node]),) if slo and node in slo else (),
            ))
    return ClusterResult(
        n_nodes=len(series), policy=policy, placement=placement,
        n_epochs=max(len(v) for v in series.values()),
        records=tuple(records), broker=broker,
    )


class TestClusterNodeDashboard:
    @staticmethod
    def result(**kwargs):
        return _result({0: (0.5, 0.7, 0.9), 1: (0.9, 0.7, 0.5)}, **kwargs)

    def test_one_block_per_cell_one_row_per_node(self):
        out = cluster_node_dashboard([self.result()])
        assert "[round_robin / SATORI]" in out and "(3 epochs)" in out
        lines = out.splitlines()
        assert sum(1 for line in lines if line.strip().startswith(("0 ", "1 "))) == 2

    def test_sparklines_share_scale_within_cell(self):
        out = cluster_node_dashboard([self.result()])
        # Opposite trends on a shared scale: node 0 rises, node 1 falls.
        node0 = next(l for l in out.splitlines() if l.strip().startswith("0"))
        node1 = next(l for l in out.splitlines() if l.strip().startswith("1"))
        assert "▁" in node0 and "█" in node0
        assert "▁" in node1 and "█" in node1

    def test_broker_joins_block_label(self):
        out = cluster_node_dashboard([self.result(broker="harvest")])
        assert "[round_robin / SATORI@harvest]" in out

    def test_blocks_ordered_by_label(self):
        out = cluster_node_dashboard([
            self.result(placement="round_robin"),
            self.result(placement="contention_aware"),
            self.result(placement="round_robin", policy="EqualPartition"),
        ])
        labels = [l for l in out.splitlines() if l.startswith("[")]
        assert [l.split("]")[0] for l in labels] == [
            "[contention_aware / SATORI",
            "[round_robin / EqualPartition",
            "[round_robin / SATORI",
        ]

    def test_runs_sharing_a_label_keep_their_own_blocks(self):
        # Two arms with the same placement and policy (a chaos pair)
        # chart as two blocks, each spanning only its own epochs.
        out = cluster_node_dashboard([self.result(), self.result()])
        blocks = out.split("\n\n")
        assert len(blocks) == 2
        assert all("(3 epochs)" in block for block in blocks)

    def test_no_cluster_series_rejected(self):
        with pytest.raises(ExperimentError, match="no cluster"):
            cluster_node_dashboard([])
        with pytest.raises(ExperimentError, match="no cluster"):
            cluster_node_dashboard([_result({0: ()})])

    def test_missing_metric_column_rendered_as_dash(self):
        # Only node 1 hosts a qos job, so only it has an SLO column.
        out = cluster_node_dashboard([self.result(slo={1: 0.8})])
        assert "slo_attainment" in out
        node0 = next(l for l in out.splitlines() if l.strip().startswith("0"))
        node1 = next(l for l in out.splitlines() if l.strip().startswith("1"))
        assert node0.endswith("-") and node1.endswith("0.80")


class TestLineChart:
    def test_dimensions(self):
        chart = line_chart({"s": np.sin(np.linspace(0, 6, 50))}, height=8, width=40)
        lines = chart.splitlines()
        assert len(lines) == 9  # height rows + legend
        assert "s" in lines[-1]

    def test_multi_series_legend(self):
        chart = line_chart({"a": [1, 2], "b": [2, 1]})
        assert "* a" in chart and "+ b" in chart

    def test_axis_labels_show_range(self):
        chart = line_chart({"a": [0.0, 10.0]})
        assert "10.000" in chart and "0.000" in chart

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            line_chart({})
        with pytest.raises(ExperimentError):
            line_chart({"a": []})
