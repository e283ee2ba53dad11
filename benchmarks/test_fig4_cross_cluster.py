"""Figure 4 — throughput on 4 nodes across homogeneous, cross-cluster
(Case 2), and Ethernet environments.

Scenarios per the paper: *InfiniBand* and *RoCE* (single cluster with
high-speed interconnect — upper bounds), *InfiniBand & Ethernet* and
*RoCE & Ethernet* (two same-family clusters joined only by Ethernet —
Holmes pipelines across the gap), *Hybrid* (IB + RoCE clusters), and
*Ethernet* (lower bound).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import sweep
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.bench.tables import format_table

GROUPS = (1, 2, 3, 4)
#: display name -> environment
SCENARIOS = {
    "InfiniBand": "ib",
    "RoCE": "roce",
    "IB & Ethernet": "split-ib",
    "RoCE & Ethernet": "split-roce",
    "Hybrid": "hybrid",
    "Ethernet": "ethernet",
}


def build_fig4():
    keys = [(gid, scenario) for gid in GROUPS for scenario in SCENARIOS]
    results = sweep([
        case_scenario(SCENARIOS[scenario], 4, PARAM_GROUPS[gid])
        for gid, scenario in keys
    ])
    return dict(zip(keys, results))


@pytest.mark.benchmark(group="fig4")
def test_fig4_cross_cluster(benchmark, emit):
    series = run_once(benchmark, build_fig4)

    rows = [
        [gid] + [round(series[(gid, s)].throughput, 2) for s in SCENARIOS]
        for gid in GROUPS
    ]
    emit(
        "fig4_cross_cluster",
        [
            "Throughput (samples/s), 4 nodes, Case 2 scenarios",
            format_table(["Group"] + list(SCENARIOS), rows),
        ],
    )

    for gid in GROUPS:
        thr = {s: series[(gid, s)].throughput for s in SCENARIOS}
        # Homogeneous interconnected clusters are the upper bounds.
        assert thr["IB & Ethernet"] <= thr["InfiniBand"] * 1.02
        assert thr["RoCE & Ethernet"] <= thr["RoCE"] * 1.02
        # Every cross-cluster scenario clears the Ethernet lower bound.
        for scenario in ("IB & Ethernet", "RoCE & Ethernet", "Hybrid"):
            assert thr[scenario] > thr["Ethernet"], (gid, scenario, thr)
        # "Competitive performance regardless of heterogeneity": the split
        # scenarios stay within 20% of their homogeneous upper bounds.
        assert thr["IB & Ethernet"] >= 0.8 * thr["InfiniBand"]
        assert thr["RoCE & Ethernet"] >= 0.8 * thr["RoCE"]
        # DP keeps RDMA in split scenarios (the Holmes mechanism).
        assert series[(gid, "IB & Ethernet")].dp_rdma_fraction == 1.0
        assert series[(gid, "RoCE & Ethernet")].dp_rdma_fraction == 1.0
