"""Figure 7 — speedup of Holmes over the baselines at growing scale.

Parameter groups 7 (t=8, p=2) and 8 (t=8, p=3) — the 39.1B models — in the
hybrid environment at the scales each group supports.  Holmes's speedup over
every baseline must exceed 1x everywhere and sit in a plausible band.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import Scenario, sweep
from repro.bench.paper_data import FIGURE7_SPEEDUP_BAND
from repro.bench.scenarios import hybrid3_env
from repro.bench.tables import format_table
from repro.frameworks import FRAMEWORKS
from repro.hardware.config_io import topology_to_dict
from repro.hardware.nic import NICType

#: (group id, node counts) — PG7 needs nodes divisible by 2 (t*p = 16),
#: PG8 by 3 (t*p = 24); hybrid2 also needs even node counts.
SCALES = {7: (4, 8), 8: (6, 12)}


def cell(gid, nodes, framework):
    if gid == 7:
        return Scenario.from_group("hybrid", nodes, gid, framework=framework,
                                   trace_enabled=False)
    # PG8 (p=3): three clusters, RoCE + IB + IB, equal sizes.
    machine = topology_to_dict(hybrid3_env(
        [NICType.ROCE, NICType.INFINIBAND, NICType.INFINIBAND], nodes // 3
    ))
    return Scenario.from_group("hybrid3", nodes, gid, framework=framework,
                               trace_enabled=False, machine=machine)


def build_fig7():
    keys = [
        (gid, nodes, name)
        for gid, node_counts in SCALES.items()
        for nodes in node_counts
        for name in FRAMEWORKS
    ]
    return dict(zip(keys, sweep([cell(*key) for key in keys])))


@pytest.mark.benchmark(group="fig7")
def test_fig7_speedup(benchmark, emit):
    cells = run_once(benchmark, build_fig7)

    baselines = ["megatron-lm", "megatron-deepspeed", "megatron-llama"]
    rows = []
    speedups = {}
    for gid, node_counts in SCALES.items():
        for nodes in node_counts:
            holmes = cells[(gid, nodes, "holmes")]
            row = [gid, nodes, round(holmes.tflops)]
            for name in baselines:
                ratio = holmes.throughput / cells[(gid, nodes, name)].throughput
                speedups[(gid, nodes, name)] = ratio
                row.append(round(ratio, 2))
            rows.append(row)
    emit(
        "fig7_speedup",
        [
            "Holmes speedup over baselines (throughput ratio), PG7/PG8",
            format_table(
                ["Group", "Nodes", "Holmes TFLOPS",
                 "vs LM", "vs DeepSpeed", "vs LLaMA"],
                rows,
            ),
        ],
    )

    low, high = FIGURE7_SPEEDUP_BAND
    for key, ratio in speedups.items():
        assert ratio > 1.0, (key, ratio)
        assert low <= ratio <= high, (key, ratio)
    # Speedup over the non-overlapping baselines exceeds the speedup over
    # Megatron-LLaMA (which already hides some communication).
    for gid, node_counts in SCALES.items():
        for nodes in node_counts:
            assert (
                speedups[(gid, nodes, "megatron-lm")]
                >= speedups[(gid, nodes, "megatron-llama")]
            )
    # The figure's scalability claim: Holmes's advantage grows with node
    # count (communication's share of the iteration rises).
    for gid, node_counts in SCALES.items():
        small, large = node_counts
        for name in baselines:
            assert (
                speedups[(gid, large, name)] > speedups[(gid, small, name)]
            ), (gid, name)
