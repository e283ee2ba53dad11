"""Table 4 — three clusters with pipeline degree 3.

Layouts: 2RoCE & 2RoCE & 2IB and 2RoCE & 2IB & 2IB (6 nodes / 48 GPUs),
4RoCE & 4IB & 4IB (12 nodes / 96 GPUs); models are the p=3 parameter groups
(PG5 carries PG3's architecture, PG6 its large-batch variant — the paper's
row labels "3" and "6").  Ethernet rows are the same machine scale with
Ethernet-only nodes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import sweep
from repro.bench.paper_data import TABLE4
from repro.bench.runner import case_scenario
from repro.bench.scenarios import hybrid3_env
from repro.bench.tables import format_table
from repro.hardware.config_io import topology_to_dict
from repro.hardware.nic import NICType

R, IB = NICType.ROCE, NICType.INFINIBAND

LAYOUTS = {
    "2R2R2IB": ([R, R, IB], 2),
    "2R2IB2IB": ([R, IB, IB], 2),
    "4R4IB4IB": ([R, IB, IB], 4),
}

#: paper row label -> parameter group (p=3 variants).
ROW_GROUPS = {3: 5, 6: 6}


def build_table4():
    keys, scenarios = [], []
    for row_label, gid in ROW_GROUPS.items():
        for layout_name, (families, nodes_per_cluster) in LAYOUTS.items():
            total_nodes = 3 * nodes_per_cluster
            machine = topology_to_dict(hybrid3_env(families, nodes_per_cluster))
            keys += [(row_label, layout_name, env) for env in ("Hybrid", "Ethernet")]
            scenarios += [
                case_scenario(f"hybrid3-{layout_name}", total_nodes, gid,
                              machine=machine),
                case_scenario("ethernet", total_nodes, gid),
            ]
    return dict(zip(keys, sweep(scenarios)))


@pytest.mark.benchmark(group="table4")
def test_table4_three_clusters(benchmark, emit):
    cells = run_once(benchmark, build_table4)

    rows = []
    for (row_label, layout, env), result in sorted(cells.items()):
        paper = TABLE4.get((row_label, layout, env), (None, None))
        paper_txt = (
            f"{paper[0]} / {paper[1]}" if paper[0] is not None
            else "n/a (unreadable in paper)"
        )
        rows.append(
            [row_label, layout, env, round(result.tflops),
             round(result.throughput, 2), paper_txt]
        )
    emit(
        "table4_three_clusters",
        [format_table(
            ["Group", "Layout", "Env", "TFLOPS", "Thr", "paper (TFLOPS/Thr)"],
            rows,
        )],
    )

    for row_label in ROW_GROUPS:
        for layout in LAYOUTS:
            hybrid = cells[(row_label, layout, "Hybrid")]
            eth = cells[(row_label, layout, "Ethernet")]
            # The paper's point: three-cluster Holmes beats pure Ethernet.
            assert hybrid.tflops > eth.tflops, (row_label, layout)
            # Holmes keeps all DP groups on RDMA in every layout.
            assert hybrid.dp_rdma_fraction == 1.0

    # More RDMA-capable clusters (2 IB vs 1 IB at equal size) never hurts.
    for row_label in ROW_GROUPS:
        assert (
            cells[(row_label, "2R2IB2IB", "Hybrid")].tflops
            >= cells[(row_label, "2R2R2IB", "Hybrid")].tflops * 0.98
        )

    # Scale-up: 12-node hybrid throughput exceeds 6-node hybrid throughput.
    for row_label in ROW_GROUPS:
        assert (
            cells[(row_label, "4R4IB4IB", "Hybrid")].throughput
            > cells[(row_label, "2R2IB2IB", "Hybrid")].throughput
        )
