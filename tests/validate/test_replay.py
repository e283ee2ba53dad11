"""Seed-determinism regression: replays are byte-identical, seeds matter.

Acceptance criterion for the replay differ: at least one faulted and one
fault-free scenario must rerun byte-identically in CI, and a run under a
*different* fault seed must visibly diverge.
"""

import dataclasses

from repro.api import simulate
from repro.simcore.trace import TraceRecorder
from repro.validate.replay import (
    compare_traces,
    diff_runs,
    fingerprint,
    metrics_digest,
    span_token,
    trace_digest,
)


class TestDigests:
    def test_trace_digest_is_order_sensitive(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(0, "compute", "forward", 0.0, 1.0)
        a.record(1, "compute", "forward", 0.0, 1.0)
        b.record(1, "compute", "forward", 0.0, 1.0)
        b.record(0, "compute", "forward", 0.0, 1.0)
        assert trace_digest(a) != trace_digest(b)

    def test_span_token_is_exact_on_floats(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(0, "compute", "f", 0.1 + 0.2, 1.0)
        b.record(0, "compute", "f", 0.3, 1.0)
        # 0.1 + 0.2 != 0.3 in binary floats; the token must not blur that
        assert span_token(a.spans[0]) != span_token(b.spans[0])

    def test_meta_participates_in_token(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(0, "p2p", "send:x", 0.0, 1.0, dst=1)
        b.record(0, "p2p", "send:x", 0.0, 1.0, dst=2)
        assert span_token(a.spans[0]) != span_token(b.spans[0])

    def test_compare_traces_reports_first_divergence(self):
        a, b = TraceRecorder(), TraceRecorder()
        for t in (a, b):
            t.record(0, "compute", "forward", 0.0, 1.0)
        a.record(0, "compute", "backward", 1.0, 2.0)
        b.record(0, "compute", "backward", 1.0, 2.5)
        index, tok_a, tok_b = compare_traces(a, b)
        assert index == 1
        assert tok_a != tok_b

    def test_compare_traces_flags_truncation(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(0, "compute", "forward", 0.0, 1.0)
        a.record(0, "compute", "backward", 1.0, 2.0)
        b.record(0, "compute", "forward", 0.0, 1.0)
        index, tok_a, tok_b = compare_traces(a, b)
        assert index == 1
        assert tok_a is not None and tok_b is None


class TestSeedDeterminism:
    def test_fault_free_replay_is_byte_identical(self, tiny_scenario):
        report = diff_runs(lambda: simulate(tiny_scenario))
        assert report.identical, report.describe()
        assert report.first == report.second
        assert report.divergence_index is None

    def test_faulted_replay_is_byte_identical(self, faulted_scenario):
        """Same FaultPlan.random seed twice -> identical trace digests and
        IterationMetrics."""
        report = diff_runs(lambda: simulate(faulted_scenario))
        assert report.identical, report.describe()
        assert report.first.trace == report.second.trace
        assert report.first.metrics == report.second.metrics

    def test_metrics_are_reproducible_field_by_field(self, faulted_scenario):
        a = simulate(faulted_scenario)
        b = simulate(faulted_scenario)
        assert a.metrics == b.metrics
        assert metrics_digest(a.metrics) == metrics_digest(b.metrics)

    def test_different_fault_seed_diverges(self, faulted_scenario):
        """A third run under a different seed must not fingerprint-match."""
        other = dataclasses.replace(faulted_scenario, fault_seed=12)
        fp_a = fingerprint(simulate(faulted_scenario))
        fp_b = fingerprint(simulate(other))
        assert fp_a.trace != fp_b.trace

    def test_diff_runs_reports_divergence_of_unequal_scenarios(
        self, faulted_scenario
    ):
        """Alternate between two seeds inside the factory: the differ must
        localise the first divergent span rather than just say 'differs'."""
        other = dataclasses.replace(faulted_scenario, fault_seed=12)
        sequence = [faulted_scenario, other]

        def alternating():
            return simulate(sequence.pop(0))

        report = diff_runs(alternating)
        assert not report.identical
        assert report.divergence_index is not None
        assert "diverged" in report.describe()

    def test_fingerprint_carries_span_count_and_makespan(self, tiny_scenario):
        result = simulate(tiny_scenario)
        fp = fingerprint(result)
        assert fp.num_spans == len(result.trace.spans)
        assert fp.makespan == result.makespan
