"""Critical-path attribution: unit sweeps and end-to-end budgets.

The load-bearing invariant — enforced by ``validate_report`` and asserted
here across healthy and faulted scenarios — is *completeness*: the budget
categories sum to the iteration makespan (plus overhead) within 1e-6 s.
"""

import pytest

from repro.api import Scenario, simulate
from repro.obs.attribution import (
    Category,
    attribute_iteration,
    attribute_result,
)
from repro.simcore.trace import TraceRecorder

TOLERANCE = 1e-6


def _budget_sum(report):
    return sum(report.budget.values())


class TestSweep:
    def test_gap_becomes_bubble(self):
        trace = TraceRecorder()
        trace.record(0, "compute", "fwd", 0.0, 2.0)
        trace.record(0, "compute", "bwd", 5.0, 8.0)
        report = attribute_iteration(trace, makespan=10.0)
        assert report.budget[Category.COMPUTE] == pytest.approx(5.0)
        assert report.budget[Category.BUBBLE] == pytest.approx(5.0)
        assert _budget_sum(report) == pytest.approx(10.0, abs=TOLERANCE)

    def test_compute_shadows_async_send(self):
        trace = TraceRecorder()
        trace.record(0, "compute", "fwd", 0.0, 6.0)
        trace.record(0, "p2p", "send:x", 2.0, 8.0, 100, dst=1)
        report = attribute_iteration(trace, makespan=8.0)
        assert report.budget[Category.COMPUTE] == pytest.approx(6.0)
        assert report.budget[Category.P2P] == pytest.approx(2.0)

    def test_fault_outranks_compute(self):
        trace = TraceRecorder()
        trace.record(0, "compute", "fwd", 0.0, 4.0)
        trace.record(0, "fault", "comm-rebuild", 1.0, 2.0)
        report = attribute_iteration(trace, makespan=4.0)
        assert report.budget[Category.FAULT] == pytest.approx(1.0)
        assert report.budget[Category.COMPUTE] == pytest.approx(3.0)

    def test_straggler_excess_carved_from_compute(self):
        trace = TraceRecorder()
        # 3x slowdown: 6s of wall time for 2s of healthy work
        trace.record(0, "compute", "fwd", 0.0, 6.0, slow=3.0)
        report = attribute_iteration(trace, makespan=6.0)
        assert report.budget[Category.STRAGGLER] == pytest.approx(4.0)
        assert report.budget[Category.COMPUTE] == pytest.approx(2.0)
        assert _budget_sum(report) == pytest.approx(6.0, abs=TOLERANCE)

    def test_zero_duration_spans_ignored(self):
        trace = TraceRecorder()
        trace.record(0, "fault", "inject:nic-flap", 1.0, 1.0)
        trace.record(0, "compute", "fwd", 0.0, 2.0)
        report = attribute_iteration(trace, makespan=2.0)
        assert report.budget[Category.COMPUTE] == pytest.approx(2.0)
        assert Category.FAULT not in report.budget

    def test_spans_clamped_to_horizon(self):
        trace = TraceRecorder()
        trace.record(0, "compute", "fwd", 0.0, 100.0)
        report = attribute_iteration(trace, makespan=10.0)
        assert report.budget[Category.COMPUTE] == pytest.approx(10.0)
        assert _budget_sum(report) == pytest.approx(10.0, abs=TOLERANCE)

    def test_overhead_is_its_own_category(self):
        trace = TraceRecorder()
        trace.record(0, "compute", "fwd", 0.0, 2.0)
        report = attribute_iteration(trace, makespan=2.0, overhead=0.5)
        assert report.budget[Category.OVERHEAD] == pytest.approx(0.5)
        assert report.iteration_time == pytest.approx(2.5)
        assert _budget_sum(report) == pytest.approx(2.5, abs=TOLERANCE)


class TestCriticalRank:
    def test_last_finishing_rank_wins(self):
        trace = TraceRecorder()
        trace.record(0, "compute", "fwd", 0.0, 3.0)
        trace.record(1, "compute", "fwd", 0.0, 5.0)
        report = attribute_iteration(trace, makespan=5.0)
        assert report.critical_rank == 1

    def test_tie_breaks_to_lowest_rank(self):
        trace = TraceRecorder()
        trace.record(2, "compute", "fwd", 0.0, 5.0)
        trace.record(1, "compute", "fwd", 0.0, 5.0)
        report = attribute_iteration(trace, makespan=5.0)
        assert report.critical_rank == 1

    def test_synthetic_spans_excluded(self):
        trace = TraceRecorder()
        trace.record(0, "compute", "fwd", 0.0, 3.0)
        trace.record(-1, "collective", "grads-sync", 0.0, 99.0)
        report = attribute_iteration(trace, makespan=3.0)
        assert report.critical_rank == 0


class TestEdgeCosts:
    def test_edges_aggregated_and_sorted(self):
        trace = TraceRecorder()
        trace.record(0, "p2p", "send:a0", 0.0, 1.0, 100, dst=1)
        trace.record(0, "p2p", "send:a1", 1.0, 2.0, 100, dst=1)
        trace.record(2, "p2p", "send:b0", 0.0, 5.0, 300, dst=3)
        report = attribute_iteration(trace, makespan=5.0)
        assert len(report.top_edges) == 2
        top = report.top_edges[0]
        assert (top.src, top.dst) == (2, 3)
        assert top.total_time == pytest.approx(5.0)
        second = report.top_edges[1]
        assert (second.src, second.dst) == (0, 1)
        assert second.bytes == 200
        assert second.transfers == 2


class TestEndToEndBudgets:
    """Completeness: budget == iteration time within 1e-6 s, per scenario."""

    def _assert_complete(self, result):
        report = attribute_result(result)
        assert report.iteration_time == pytest.approx(
            result.iteration_time, abs=TOLERANCE
        )
        assert _budget_sum(report) == pytest.approx(
            report.iteration_time, abs=TOLERANCE
        )
        assert all(t >= 0 for t in report.budget.values())
        return report

    def test_hybrid_budget_complete(self, healthy_result):
        report = self._assert_complete(healthy_result)
        assert report.budget[Category.COMPUTE] > 0
        assert report.top_edges, "p2p edges should be named"
        assert report.top_edges[0].transport

    @pytest.mark.parametrize("env", ["ib", "ethernet", "split-roce"])
    def test_benchmark_scenarios_budget_complete(self, env):
        self._assert_complete(simulate(Scenario.from_group(env, 2, 1)))

    def test_faulted_budget_complete(self, brownout_result):
        self._assert_complete(brownout_result)

    def test_per_rank_budgets_complete(self, healthy_result):
        report = attribute_result(healthy_result)
        for rank, budget in report.per_rank.items():
            assert sum(budget.values()) == pytest.approx(
                report.makespan, abs=TOLERANCE
            ), f"rank {rank} budget incomplete"

    def test_per_stage_budgets_cover_all_stages(self, healthy_result):
        report = attribute_result(healthy_result)
        stages = set(report.per_stage)
        assert stages == {0, 1}


class TestFaultDominance:
    """A deliberately injected fault dominates its attribution category."""

    def test_straggler_dominates(self, healthy_result, straggler_result):
        healthy = attribute_result(healthy_result)
        faulted = attribute_result(straggler_result)
        assert healthy.budget.get(Category.STRAGGLER, 0.0) == pytest.approx(0.0)
        assert faulted.dominant() is Category.STRAGGLER
        # a 3x straggler turns ~2/3 of its compute wall time into loss
        assert faulted.fraction(Category.STRAGGLER) > 0.4

    def test_link_brownout_inflates_p2p(
        self, ethernet_healthy_result, brownout_result
    ):
        healthy = attribute_result(ethernet_healthy_result)
        faulted = attribute_result(brownout_result)
        assert faulted.comm_time > 1.5 * healthy.comm_time
        assert faulted.iteration_time > healthy.iteration_time

    def test_dominance_reflected_in_metrics(self, straggler_result):
        # bubble/comm fractions surface in IterationMetrics and __str__
        metrics = straggler_result.metrics
        assert 0.0 <= metrics.bubble_fraction < 1.0
        assert 0.0 <= metrics.comm_fraction < 1.0
        text = str(metrics)
        assert "bubble=" in text and "comm=" in text


class TestReportShapes:
    def test_to_dict_and_describe(self, healthy_result):
        report = attribute_result(healthy_result)
        d = report.to_dict()
        assert set(d["budget"]) == {str(c) for c in Category}
        assert d["iteration_time"] == pytest.approx(report.iteration_time)
        assert d["top_edges"][0]["seconds"] > 0
        text = report.describe()
        assert "time-loss budget" in text
        assert "compute" in text
