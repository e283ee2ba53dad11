#!/usr/bin/env python
"""Anatomy of one training iteration: where does the time go?

Dissects a simulated 7.5B-GPT iteration in three environments using the
trace-analysis module: per-stage compute / communication / idle breakdown,
realised pipeline bubble vs the analytic (p-1)/m, and the collective-
algorithm crossover table the fabric would use for gradient buffers of
different sizes.

Run:  python examples/iteration_anatomy.py
"""

from repro.api import Scenario, simulate
from repro.bench.scenarios import homogeneous_env
from repro.bench.tables import format_table
from repro.collectives.selection import selection_table
from repro.core.analysis import analyze
from repro.hardware.nic import NICType
from repro.network.fabric import Fabric
from repro.schedule.pipeline import bubble_fraction


def main() -> None:
    print("Per-environment time breakdown (mean seconds per rank):\n")
    rows = []
    for label, env in (
        ("InfiniBand", "ib"),
        ("Hybrid", "hybrid"),
        ("Ethernet", "ethernet"),
    ):
        scenario = Scenario.from_group(env, 4, 3, framework="holmes-full")
        result = simulate(scenario)
        parallel = scenario.parallel
        analysis = analyze(result)
        for stage, summary in analysis.stage_summary().items():
            rows.append(
                [
                    label, stage,
                    round(summary["compute"], 2),
                    round(summary["p2p"], 3),
                    round(summary["collective"], 2),
                    round(summary["idle"], 2),
                    f"{summary['utilization'] * 100:.0f}%",
                ]
            )
        analytic = bubble_fraction(parallel.pipeline, parallel.num_microbatches)
        print(
            f"  {label:11s} iter={result.iteration_time:6.2f}s  "
            f"bubble={analysis.bubble_fraction * 100:4.1f}% "
            f"(analytic {(analytic) * 100:.1f}%)  "
            f"comm exposure={analysis.comm_exposure * 100:4.1f}%"
        )
    print()
    print(
        format_table(
            ["Env", "Stage", "compute", "p2p", "collective", "idle", "util"],
            rows,
        )
    )

    print("\nAll-reduce algorithm crossover (32 IB ranks, what the fabric")
    print("would pick per gradient-buffer size):")
    fabric = Fabric(homogeneous_env(4, NICType.INFINIBAND))
    rows = []
    for choice in selection_table(fabric, list(range(32))):
        rows.append(
            [
                ", ".join(f"{k}={v * 1000:.2f}ms" for k, v in
                          sorted(choice.costs.items())),
                choice.algorithm,
            ]
        )
    for size, row in zip(("1KiB", "64KiB", "4MiB", "256MiB", "4GiB"), rows):
        print(f"  {size:>7}: winner={row[1]:<13} ({row[0]})")


if __name__ == "__main__":
    main()
