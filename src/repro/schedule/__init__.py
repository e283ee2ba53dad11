"""Pipeline-parallel execution schedules.

A schedule is, per stage, an ordered list of :class:`PipelineOp` entries
(forward or backward of one microbatch on one model chunk).  The training
engine executes these ops as discrete-event processes; cross-stage data
dependencies are enforced at runtime by the p2p channels, so a schedule
only fixes each stage's *local* op order.

Implemented schedules:

- :func:`~repro.schedule.pipeline.one_f_one_b` — PipeDream-Flush / 1F1B,
  the paper's base schedule (§3.1.2 "similar to PipeDream-Flush");
- :func:`~repro.schedule.pipeline.gpipe` — all-forwards-then-all-backwards
  baseline;
- :func:`~repro.schedule.interleaved.interleaved_1f1b` — Megatron's
  interleaved virtual-stage schedule (the paper enables it, §4.1).
"""

from repro._lazy import lazy_exports

__all__ = [
    "PipelineOp",
    "OpKind",
    "validate_schedule",
    "one_f_one_b",
    "gpipe",
    "interleaved_1f1b",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.schedule.microbatch": ("PipelineOp", "OpKind", "validate_schedule"),
    "repro.schedule.pipeline": ("gpipe", "one_f_one_b"),
    "repro.schedule.interleaved": ("interleaved_1f1b",),
})
