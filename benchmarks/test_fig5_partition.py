"""Figure 5 — Self-Adapting vs Uniform pipeline partition.

Parameter groups 1-4 in the Hybrid environment (the setting where stage
speeds differ): the Eq. 2 partition (alpha = 1.05) must beat the uniform
split, and must make no difference in a homogeneous environment.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import Scenario, sweep
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.tables import format_table

GROUPS = (1, 2, 3, 4)

#: Both variants keep the overlapped optimizer (the paper's Figure 5 runs
#: full Holmes and toggles only the partition strategy).
PARTITIONS = {"self-adapting": "holmes-full", "uniform": "holmes-no-sap"}


def cells(env, gids):
    """Both partition variants of each group on 8 nodes of ``env``."""
    keys = [(gid, partition) for gid in gids for partition in PARTITIONS]
    results = sweep([
        Scenario.from_group(env, 8, PARAM_GROUPS[gid],
                            framework=PARTITIONS[partition], trace_enabled=False)
        for gid, partition in keys
    ])
    return dict(zip(keys, results))


def build_fig5():
    return cells("hybrid", GROUPS)


@pytest.mark.benchmark(group="fig5")
def test_fig5_partition(benchmark, emit):
    series = run_once(benchmark, build_fig5)

    rows = []
    for gid in GROUPS:
        sap = series[(gid, "self-adapting")]
        uni = series[(gid, "uniform")]
        rows.append(
            [gid, round(sap.tflops), round(uni.tflops),
             round(sap.throughput, 2), round(uni.throughput, 2)]
        )
    emit(
        "fig5_partition",
        [
            "Self-Adapting vs Uniform pipeline partition, hybrid 8 nodes",
            format_table(
                ["Group", "SAP TFLOPS", "Uniform TFLOPS",
                 "SAP Thr", "Uniform Thr"],
                rows,
            ),
        ],
    )

    for gid in GROUPS:
        sap = series[(gid, "self-adapting")].tflops
        uni = series[(gid, "uniform")].tflops
        # Eq. 2 wins in the heterogeneous environment...
        assert sap > uni, (gid, sap, uni)
        # ...by a modest margin (the paper's Figure 5 shows a few percent).
        assert sap < uni * 1.15, (gid, sap, uni)


@pytest.mark.benchmark(group="fig5")
def test_fig5_partition_homogeneous_control(benchmark, emit):
    """In a homogeneous environment stage speeds are equal, Eq. 2 reduces to
    (nearly) uniform, and the two strategies tie."""

    series = run_once(benchmark, lambda: cells("ib", [3]))
    sap, uni = series[(3, "self-adapting")], series[(3, "uniform")]
    emit(
        "fig5_partition_control",
        [f"homogeneous IB control: SAP {sap.tflops:.1f} "
         f"vs uniform {uni.tflops:.1f} TFLOPS"],
    )
    assert sap.tflops == pytest.approx(uni.tflops, rel=0.02)
