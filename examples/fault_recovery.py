#!/usr/bin/env python
"""Fault handling study (the paper's second future-work item).

Simulates a node failure in a two-cluster training job: replan on the
survivors, compare degraded throughput, and price a checkpointing policy
(Young/Daly interval) so the healthy-machine TFLOPS can be converted into
sustained *effective* TFLOPS under realistic churn.

Run:  python examples/fault_recovery.py
"""

from repro.bench.scenarios import hybrid2_env
from repro.bench.tables import format_table
from repro.core.faults import CheckpointPolicy, replan_after_failure
from repro.model.config import GPTConfig

HOURS = 3600.0


def main() -> None:
    topology = hybrid2_env(4)
    model = GPTConfig(num_layers=36, hidden_size=4096, num_attention_heads=32)
    batch = 1536

    # No failed nodes: the same planner run on the whole machine.
    # The best Holmes layout is discovered[0]; `best` may be a preset.
    healthy = replan_after_failure(topology, [], model, batch).discovered[0]
    print(f"Healthy machine ({topology.world_size} GPUs):")
    print(f"  {healthy.describe()}  mem "
          f"{healthy.memory_utilization * 100:.0f}%\n")

    # Fail one node in each cluster in turn and replan.
    rows = []
    for failed, label in [
        ([0], "one RoCE node down"),
        ([2], "one IB node down"),
        ([0, 2], "one node down per cluster"),
    ]:
        best = replan_after_failure(topology, failed, model, batch).discovered[0]
        rows.append(
            [
                label,
                best.tensor * best.pipeline * best.data,
                f"t={best.tensor} p={best.pipeline} d={best.data}",
                round(best.throughput, 2),
                f"{best.memory_utilization * 100:.0f}%",
                f"{best.throughput / healthy.throughput * 100:.0f}%",
            ]
        )
    print("Degraded replans after node failures:")
    print(
        format_table(
            ["Failure", "GPUs", "New config", "samples/s", "GPU mem",
             "of healthy"],
            rows,
        )
    )

    # Checkpoint policy: how much throughput survives churn?
    print("\nCheckpointing (50 s checkpoints, 5 min restart):")
    rows = []
    for mtbf_hours in (4, 12, 24, 72):
        policy = CheckpointPolicy(
            checkpoint_time=50.0, restart_time=300.0, mtbf=mtbf_hours * HOURS
        )
        rows.append(
            [
                f"{mtbf_hours}h",
                f"{policy.optimal_interval / 60:.0f} min",
                f"{policy.goodput_fraction() * 100:.1f}%",
                round(policy.effective_tflops(healthy.tflops), 1),
            ]
        )
    print(
        format_table(
            ["MTBF", "ckpt interval", "goodput", "effective TFLOPS"], rows
        )
    )


if __name__ == "__main__":
    main()
