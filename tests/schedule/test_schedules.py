"""Tests for pipeline schedules: 1F1B, GPipe, interleaved."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.schedule.pipeline import gpipe
from repro.schedule.interleaved import (
    interleaved_1f1b,
    interleaved_bubble_fraction,
)
from repro.schedule.microbatch import (
    OpKind,
    PipelineOp,
    count_kind,
    validate_schedule,
)
from repro.schedule.pipeline import bubble_fraction, one_f_one_b


class TestValidateSchedule:
    def test_valid_schedule_passes(self):
        validate_schedule(one_f_one_b(3, 5), num_microbatches=5)

    def test_missing_backward_fails(self):
        sched = [[PipelineOp(OpKind.FORWARD, 0)]]
        with pytest.raises(SchedulingError):
            validate_schedule(sched, num_microbatches=1)

    def test_backward_before_forward_fails(self):
        sched = [[PipelineOp(OpKind.BACKWARD, 0), PipelineOp(OpKind.FORWARD, 0)]]
        with pytest.raises(SchedulingError, match="precedes"):
            validate_schedule(sched, num_microbatches=1)

    def test_duplicate_op_fails(self):
        sched = [[
            PipelineOp(OpKind.FORWARD, 0),
            PipelineOp(OpKind.FORWARD, 0),
            PipelineOp(OpKind.BACKWARD, 0),
        ]]
        with pytest.raises(SchedulingError, match="duplicate"):
            validate_schedule(sched, num_microbatches=1)

    def test_wrong_coverage_fails(self):
        sched = [[PipelineOp(OpKind.FORWARD, 5), PipelineOp(OpKind.BACKWARD, 5)]]
        with pytest.raises(SchedulingError, match="cover"):
            validate_schedule(sched, num_microbatches=1)


class TestOneFOneB:
    def test_last_stage_alternates_immediately(self):
        sched = one_f_one_b(num_stages=4, num_microbatches=6)
        last = sched[3]
        # No warm-up on the last stage: F0 B0 F1 B1 ...
        assert [str(op) for op in last[:4]] == ["F0", "B0", "F1", "B1"]

    def test_first_stage_warmup_depth(self):
        sched = one_f_one_b(num_stages=4, num_microbatches=6)
        first = sched[0]
        warmup = 0
        for op in first:
            if op.kind == OpKind.BACKWARD:
                break
            warmup += 1
        assert warmup == 4  # min(m, p - 1) + 1 steady forward before B0

    def test_each_stage_runs_all_microbatches(self):
        for stage_ops in one_f_one_b(3, 7):
            assert count_kind(stage_ops, OpKind.FORWARD) == 7
            assert count_kind(stage_ops, OpKind.BACKWARD) == 7

    def test_single_stage_degenerates(self):
        [ops] = one_f_one_b(1, 3)
        assert [str(o) for o in ops] == ["F0", "B0", "F1", "B1", "F2", "B2"]

    def test_fewer_microbatches_than_stages(self):
        sched = one_f_one_b(num_stages=8, num_microbatches=2)
        validate_schedule(sched, num_microbatches=2)

    def test_invalid_args(self):
        with pytest.raises(SchedulingError):
            one_f_one_b(0, 1)
        with pytest.raises(SchedulingError):
            one_f_one_b(1, 0)

    @given(p=st.integers(1, 8), m=st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_property_always_valid(self, p, m):
        validate_schedule(one_f_one_b(p, m), num_microbatches=m)

    def test_bubble_fraction(self):
        assert bubble_fraction(2, 12) == pytest.approx(1 / 12)
        assert bubble_fraction(1, 5) == 0.0


class TestGPipe:
    def test_all_forwards_then_backwards(self):
        [ops] = gpipe(1, 3)
        kinds = [op.kind for op in ops]
        assert kinds == [OpKind.FORWARD] * 3 + [OpKind.BACKWARD] * 3

    @given(p=st.integers(1, 6), m=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_property_always_valid(self, p, m):
        validate_schedule(gpipe(p, m), num_microbatches=m)


class TestInterleaved:
    def test_chunks_one_reduces_to_1f1b_coverage(self):
        sched = interleaved_1f1b(num_stages=2, num_microbatches=4, num_chunks=1)
        validate_schedule(sched, num_microbatches=4, num_chunks=1)

    def test_multi_chunk_coverage(self):
        sched = interleaved_1f1b(num_stages=2, num_microbatches=4, num_chunks=3)
        validate_schedule(sched, num_microbatches=4, num_chunks=3)

    def test_divisibility_enforced(self):
        with pytest.raises(SchedulingError, match="divisible"):
            interleaved_1f1b(num_stages=3, num_microbatches=4, num_chunks=2)

    def test_m_equals_p_all_warmup(self):
        sched = interleaved_1f1b(num_stages=4, num_microbatches=4, num_chunks=2)
        validate_schedule(sched, num_microbatches=4, num_chunks=2)

    @given(
        p=st.integers(1, 4),
        m_mult=st.integers(1, 4),
        v=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_always_valid(self, p, m_mult, v):
        m = p * m_mult
        sched = interleaved_1f1b(p, m, v)
        validate_schedule(sched, num_microbatches=m, num_chunks=v)

    def test_bubble_shrinks_with_chunks(self):
        base = interleaved_bubble_fraction(4, 8, 1)
        chunked = interleaved_bubble_fraction(4, 8, 4)
        assert chunked == pytest.approx(base / 4)

    def test_invalid_args(self):
        with pytest.raises(SchedulingError):
            interleaved_1f1b(0, 1, 1)
        with pytest.raises(SchedulingError):
            interleaved_1f1b(1, 0, 1)
        with pytest.raises(SchedulingError):
            interleaved_1f1b(1, 1, 0)
