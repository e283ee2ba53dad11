"""Tests for table formatting, table cells, and paper data integrity."""

import pytest

from repro.api import run
from repro.bench.paper_data import TABLE1, TABLE3, TABLE5, shapes_hold
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import HOLMES_BASE, HOLMES_FULL, case_scenario
from repro.bench.tables import format_table, paper_vs_measured


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["env", "TFLOPS"], [["InfiniBand", 197.0], ["RoCE", 160.0]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "197.00" in text

    def test_format_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_paper_vs_measured_delta(self):
        line = paper_vs_measured("x", 100.0, 90.0)
        assert "-10.0%" in line

    def test_paper_vs_measured_zero_paper(self):
        assert "inf" in paper_vs_measured("x", 0.0, 1.0)


class TestPaperData:
    def test_table3_has_48_cells(self):
        assert len(TABLE3) == 48

    def test_table1_matches_table3_4node_rows(self):
        for env, (tflops, thr) in TABLE1.items():
            assert TABLE3[(1, 4, env)] == (tflops, thr)

    def test_table5_ablation_ordering(self):
        """The published ablation is internally monotone."""
        assert (
            TABLE5["holmes"][0]
            > TABLE5["holmes-no-sap"][0]
            > TABLE5["holmes-no-overlap"][0]
            > TABLE5["holmes-no-sap-no-overlap"][0]
            > TABLE5["megatron-lm"][0]
        )

    def test_table5_no_both_equals_table3_hybrid(self):
        """The consistency that pins Table 3's Hybrid configuration."""
        assert TABLE5["holmes-no-sap-no-overlap"] == TABLE3[(3, 8, "Hybrid")]

    def test_shapes_hold_helper(self):
        assert all(
            shapes_hold(
                {"InfiniBand": 197, "RoCE": 160, "Ethernet": 122, "Hybrid": 149}
            ).values()
        )
        bad = shapes_hold(
            {"InfiniBand": 100, "RoCE": 160, "Ethernet": 122, "Hybrid": 90}
        )
        assert not bad["ib_fastest"]


class TestRunner:
    def test_case_result_fields(self):
        scenario = case_scenario("InfiniBand", 4, PARAM_GROUPS[1])
        assert (scenario.env, scenario.framework) == ("ib", "holmes-base")
        assert not scenario.trace_enabled
        result = run(scenario)
        assert result.scenario == "g1:ib:4x8"
        assert result.world_size == 32
        assert result.tflops > 0
        row = result.row()
        assert row["TFLOPS"] == round(result.tflops)

    def test_base_vs_full_presets(self):
        assert HOLMES_BASE.partition_strategy == "uniform"
        assert HOLMES_BASE.optimizer.name == "distributed"
        assert HOLMES_FULL.partition_strategy == "self_adapting"
        assert HOLMES_FULL.optimizer.name == "overlapped"


class TestAsciiBars:
    def test_bars_scale_to_peak(self):
        from repro.bench.tables import ascii_bars

        chart = ascii_bars(["a", "bb"], [1.0, 2.0], width=10, unit="s")
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("█") == 10  # peak fills the width
        assert lines[0].count("█") == 5
        assert "2.00s" in lines[1]

    def test_zero_values(self):
        from repro.bench.tables import ascii_bars

        chart = ascii_bars(["x"], [0.0])
        assert "0.00" in chart

    def test_empty(self):
        from repro.bench.tables import ascii_bars

        assert ascii_bars([], []) == "(no data)"

    def test_mismatched_lengths_rejected(self):
        from repro.bench.tables import ascii_bars

        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])
