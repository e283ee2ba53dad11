"""Flush pipeline schedules: PipeDream-Flush (1F1B) and GPipe.

The paper's pipeline parallelism is "similar to PipeDream-Flush" (§3.1.2):
each stage runs a warm-up of forwards, a steady phase alternating one
forward with one backward, then drains the remaining backwards, and the
iteration ends with a pipeline flush that keeps optimizer steps synchronous
across stages.

For stage ``s`` of ``p`` with ``m`` microbatches the warm-up depth is
``min(m, p - s - 1)`` — the last stage starts its first backward
immediately, earlier stages hold proportionally more in-flight microbatches.

GPipe (Huang et al.) runs all forwards, then all backwards: simple but
memory-hungry (all activations held until the backward phase), with the
same ideal bubble as 1F1B.  It is the baseline for schedule ablations.
"""

from __future__ import annotations

from typing import List

from repro.errors import SchedulingError
from repro.schedule.microbatch import OpKind, PipelineOp


def one_f_one_b(num_stages: int, num_microbatches: int) -> List[List[PipelineOp]]:
    """Generate the 1F1B schedule for every stage.

    Returns ``schedule[stage]`` — the ordered op list for that stage.
    """
    if num_stages < 1:
        raise SchedulingError(f"num_stages must be >= 1: {num_stages}")
    if num_microbatches < 1:
        raise SchedulingError(f"num_microbatches must be >= 1: {num_microbatches}")

    schedule: List[List[PipelineOp]] = []
    for stage in range(num_stages):
        ops: List[PipelineOp] = []
        warmup = min(num_microbatches, num_stages - stage - 1)
        # Warm-up: forwards only.
        for mb in range(warmup):
            ops.append(PipelineOp(OpKind.FORWARD, mb))
        # Steady state: one forward, one backward.
        for i in range(num_microbatches - warmup):
            ops.append(PipelineOp(OpKind.FORWARD, warmup + i))
            ops.append(PipelineOp(OpKind.BACKWARD, i))
        # Cool-down: drain remaining backwards.
        for mb in range(num_microbatches - warmup, num_microbatches):
            ops.append(PipelineOp(OpKind.BACKWARD, mb))
        schedule.append(ops)
    return schedule


def gpipe(num_stages: int, num_microbatches: int) -> List[List[PipelineOp]]:
    """Generate the GPipe schedule for every stage."""
    if num_stages < 1:
        raise SchedulingError(f"num_stages must be >= 1: {num_stages}")
    if num_microbatches < 1:
        raise SchedulingError(f"num_microbatches must be >= 1: {num_microbatches}")
    schedule: List[List[PipelineOp]] = []
    for _stage in range(num_stages):
        ops = [PipelineOp(OpKind.FORWARD, mb) for mb in range(num_microbatches)]
        ops += [PipelineOp(OpKind.BACKWARD, mb) for mb in range(num_microbatches)]
        schedule.append(ops)
    return schedule


def bubble_fraction(num_stages: int, num_microbatches: int) -> float:
    """The ideal 1F1B bubble fraction ``(p - 1) / m`` (analytic reference;
    the simulated makespan reproduces this when stages are balanced)."""
    if num_stages < 1 or num_microbatches < 1:
        raise SchedulingError(
            f"bad bubble args: p={num_stages} m={num_microbatches}"
        )
    return (num_stages - 1) / num_microbatches
