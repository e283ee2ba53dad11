#!/usr/bin/env python
"""Capacity planning with the auto-parallelism planner.

You are handed two clusters — 2 RoCE nodes and 2 InfiniBand nodes, Ethernet
between them — and a 7.5B-parameter GPT to train.  Which (tensor, pipeline,
data) sharding should you use?  The planner (``repro.api.plan``) enumerates
every feasible configuration, drops those that would not fit in 80 GB of
GPU memory, ranks the rest with its closed-form oracle, simulates the best
and confirms the finalists with executed runs.

This implements the paper's stated future work ("explore scheduling methods
for diverse environments").

Run:  python examples/capacity_planning.py
"""

import dataclasses

from repro import api
from repro.bench.tables import format_table


def main() -> None:
    base = api.Scenario(
        env="hybrid", nodes=4, num_layers=36, hidden_size=4096,
        num_attention_heads=32, micro_batch_size=4, global_batch_size=1536,
        framework="holmes-full", trace_enabled=False, label="capacity",
    )
    print(f"Machine:\n{base.topology().describe()}\n")
    print(f"Model: {base.model.describe()},  global batch "
          f"{base.global_batch_size}\n")

    result = api.plan(
        base, top_k=8, frameworks=("holmes-full",), schedules=("1f1b",)
    )
    print(f"{result.enumerated} feasible (t, p, d) combinations enumerated")
    print(f"{result.feasible} fit in GPU memory; the oracle's best "
          f"{result.searched} were simulated, {len(result.discovered)} "
          f"confirmed\n")

    def stage_layers(layout):
        scenario = dataclasses.replace(
            base, tensor=layout.tensor, pipeline=layout.pipeline, data=0
        )
        return api.build(scenario).plan.stage_layers

    rows = []
    for layout in result.discovered:
        rows.append(
            [
                f"t={layout.tensor} p={layout.pipeline} d={layout.data}",
                "/".join(str(n) for n in stage_layers(layout)),
                round(layout.tflops, 1),
                round(layout.throughput, 2),
                f"{layout.memory_utilization * 100:.0f}%",
            ]
        )
    print(
        format_table(
            ["Config", "Stage layers", "TFLOPS", "samples/s", "GPU mem"],
            rows,
        )
    )

    best = result.best
    print(
        f"\nPlanner's pick: t={best.tensor}, p={best.pipeline}, "
        f"d={best.data} — pipeline across the Ethernet gap, data "
        f"parallelism on RDMA, layers split {list(stage_layers(best))} "
        f"by Eq. 2."
    )


if __name__ == "__main__":
    main()
