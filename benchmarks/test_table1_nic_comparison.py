"""Table 1 — TFLOPS / throughput of the 3.6B GPT on 4 nodes under
InfiniBand, RoCE, and Ethernet.

These three rows are the calibration anchors, so agreement here is tight by
construction; the bench still asserts the *orderings* independently.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import sweep
from repro.bench.paper_data import TABLE1
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.bench.tables import format_table, paper_vs_measured

ENVIRONMENTS = ("InfiniBand", "RoCE", "Ethernet")


def build_table1():
    group = PARAM_GROUPS[1]
    results = sweep([case_scenario(env, 4, group) for env in ENVIRONMENTS])
    return dict(zip(ENVIRONMENTS, results))


@pytest.mark.benchmark(group="table1")
def test_table1_nic_comparison(benchmark, emit):
    results = run_once(benchmark, build_table1)

    rows = []
    lines = []
    for env, result in results.items():
        paper_tflops, paper_thr = TABLE1[env]
        rows.append(
            [env, round(result.tflops), round(result.throughput, 2),
             paper_tflops, paper_thr]
        )
        lines.append(paper_vs_measured(f"{env} TFLOPS", paper_tflops, result.tflops))
        lines.append(
            paper_vs_measured(f"{env} throughput", paper_thr, result.throughput)
        )
    lines.insert(
        0,
        format_table(
            ["NIC Env", "TFLOPS", "Throughput", "paper TFLOPS", "paper Thr"], rows
        ),
    )
    emit("table1_nic_comparison", lines)

    tflops = {env: r.tflops for env, r in results.items()}
    assert tflops["InfiniBand"] > tflops["RoCE"] > tflops["Ethernet"]
    # Anchor agreement: within 5% on every cell.
    for env, result in results.items():
        assert result.tflops == pytest.approx(TABLE1[env][0], rel=0.05)
        assert result.throughput == pytest.approx(TABLE1[env][1], rel=0.05)
