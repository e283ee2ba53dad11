#!/usr/bin/env python
"""Node-scaling study: how far does each environment scale?

Sweeps the 7.5B GPT from 4 to 12 nodes in four NIC environments, reporting
per-GPU TFLOPS, aggregate throughput, and scaling efficiency (1.0 = perfect
linear).  The paper's Table 3 shape — communication's share grows with
scale, so per-GPU TFLOPS falls while throughput rises — plus the punchline:
the hybrid environment scales almost as well as homogeneous RDMA, far
better than Ethernet.

The sixteen cells are :class:`repro.api.Scenario` values run through the
batch executor; pass ``jobs=4`` (or a :class:`repro.exec.ResultCache`) to
:func:`repro.api.sweep` and the numbers do not change.

Run:  python examples/scaling_study.py
"""

from repro.api import sweep
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.sweep import node_scaling_scenarios, scaling_efficiency
from repro.bench.tables import format_table

NODE_COUNTS = (4, 6, 8, 12)
ENVIRONMENTS = ("InfiniBand", "RoCE", "Hybrid", "Ethernet")


def main() -> None:
    group = PARAM_GROUPS[3]
    print(f"Scaling {group.model.describe()}, global batch "
          f"{group.global_batch_size}\n")

    rows = []
    efficiency_at_12 = {}
    for env_name in ENVIRONMENTS:
        scenarios = node_scaling_scenarios(
            env_name, NODE_COUNTS, group, full=True
        )
        results = sweep(scenarios)
        efficiencies = scaling_efficiency(results)
        efficiency_at_12[env_name] = efficiencies[-1]
        for result, eff in zip(results, efficiencies):
            rows.append(
                [
                    env_name,
                    result.world_size,
                    round(result.tflops),
                    round(result.throughput, 2),
                    f"{eff * 100:.0f}%",
                ]
            )

    print(
        format_table(
            ["Env", "GPUs", "TFLOPS/GPU", "samples/s", "scaling eff"], rows
        )
    )
    print(
        "\nScaling efficiency at 12 nodes (vs 4): "
        + ", ".join(f"{k} {v * 100:.0f}%" for k, v in efficiency_at_12.items())
    )
    print(
        "\nThe hybrid machine keeps most of the RDMA environments'"
        "\nscaling efficiency — the pure-Ethernet cluster pays the full"
        "\ngradient-sync cost at every scale."
    )


if __name__ == "__main__":
    main()
