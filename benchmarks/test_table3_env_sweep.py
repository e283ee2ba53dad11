"""Table 3 — parameter groups 1-4 x four NIC environments x 4/6/8 nodes.

The paper's main result table (48 cells).  The bench regenerates every cell,
prints paper-vs-measured, asserts the qualitative shapes hold per row block,
and pins the aggregate residual.

Cells run through the batch executor (:func:`repro.api.sweep` over
:class:`repro.api.Scenario` values), so ``REPRO_BENCH_JOBS=8`` fans
the grid out over worker processes and ``REPRO_BENCH_CACHE=<dir>`` serves
unchanged cells from the content-addressed result cache — with results
identical to a serial, uncached run in every case.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import run_once
from repro.api import sweep
from repro.bench.paper_data import TABLE3, shapes_hold
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.bench.tables import format_table

GROUPS = (1, 2, 3, 4)
NODE_COUNTS = (4, 6, 8)
ENVIRONMENTS = ("InfiniBand", "RoCE", "Ethernet", "Hybrid")


def build_table3():
    keys = [
        (gid, nodes, env)
        for gid in GROUPS
        for nodes in NODE_COUNTS
        for env in ENVIRONMENTS
    ]
    scenarios = [
        case_scenario(env, nodes, PARAM_GROUPS[gid]) for gid, nodes, env in keys
    ]
    results = sweep(
        scenarios,
        jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
        cache=os.environ.get("REPRO_BENCH_CACHE") or None,
    )
    return dict(zip(keys, results))


@pytest.mark.benchmark(group="table3")
def test_table3_env_sweep(benchmark, emit):
    cells = run_once(benchmark, build_table3)

    rows = []
    errors = []
    for (gid, nodes, env), result in sorted(
        cells.items(), key=lambda kv: (kv[0][0], kv[0][1], ENVIRONMENTS.index(kv[0][2]))
    ):
        paper_tflops, paper_thr = TABLE3[(gid, nodes, env)]
        errors.append(abs(result.tflops - paper_tflops) / paper_tflops)
        rows.append(
            [gid, nodes, env, round(result.tflops), paper_tflops,
             round(result.throughput, 2), paper_thr]
        )
    mean_err = sum(errors) / len(errors)
    emit(
        "table3_env_sweep",
        [
            format_table(
                ["Group", "Nodes", "Env", "TFLOPS", "paper", "Thr", "paper"],
                rows,
            ),
            f"mean |relative TFLOPS error| over 48 cells: {mean_err * 100:.1f}%",
        ],
    )

    # Qualitative shapes per (group, nodes) block.
    for gid in GROUPS:
        for nodes in NODE_COUNTS:
            measured = {
                env: cells[(gid, nodes, env)].tflops for env in ENVIRONMENTS
            }
            claims = shapes_hold(measured)
            assert claims["ib_fastest"], (gid, nodes, measured)
            assert claims["rdma_beats_ethernet"], (gid, nodes, measured)
            assert claims["hybrid_between"], (gid, nodes, measured)
            assert claims["hybrid_close_to_rdma"], (gid, nodes, measured)

    # Aggregate residual: the calibration quality bar.
    assert mean_err < 0.08

    # Hybrid DP always rides RDMA under Holmes.
    for gid in GROUPS:
        for nodes in NODE_COUNTS:
            assert cells[(gid, nodes, "Hybrid")].dp_rdma_fraction == 1.0
