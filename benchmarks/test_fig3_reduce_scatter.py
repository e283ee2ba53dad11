"""Figure 3 — time cost of the grads-reduce-scatter operation across NIC
environments for parameter groups 1-4 (4 nodes).

The figure's claims: reduce-scatter is fastest on InfiniBand, slowest on
Ethernet, and the Hybrid environment lands between RoCE and Ethernet bounds
because Holmes keeps each stage's reduce-scatter on that stage's RDMA NIC.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import sweep
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.bench.tables import ascii_bars, format_table

GROUPS = (1, 2, 3, 4)
ENVIRONMENTS = ("InfiniBand", "RoCE", "Ethernet", "Hybrid")


def build_fig3():
    keys = [(gid, env) for gid in GROUPS for env in ENVIRONMENTS]
    results = sweep([
        case_scenario(env, 4, PARAM_GROUPS[gid], trace_enabled=True)
        for gid, env in keys
    ])
    return {key: result.reduce_scatter_time for key, result in zip(keys, results)}


@pytest.mark.benchmark(group="fig3")
def test_fig3_reduce_scatter(benchmark, emit):
    series = run_once(benchmark, build_fig3)

    rows = [
        [gid] + [round(series[(gid, env)], 3) for env in ENVIRONMENTS]
        for gid in GROUPS
    ]
    emit(
        "fig3_reduce_scatter",
        [
            "grads-reduce-scatter time (seconds), 4 nodes",
            format_table(["Group"] + list(ENVIRONMENTS), rows),
            "",
            "Parameter group 3:",
            ascii_bars(
                list(ENVIRONMENTS),
                [series[(3, env)] for env in ENVIRONMENTS],
                unit="s",
            ),
        ],
    )

    for gid in GROUPS:
        ib = series[(gid, "InfiniBand")]
        roce = series[(gid, "RoCE")]
        eth = series[(gid, "Ethernet")]
        hybrid = series[(gid, "Hybrid")]
        # Orderings from the figure.
        assert ib < roce < eth, (gid, ib, roce, eth)
        # Hybrid averages IB and RoCE stages: between the two, far from
        # Ethernet.
        assert ib <= hybrid <= roce * 1.05, (gid, hybrid)
        assert hybrid < 0.6 * eth, (gid, hybrid, eth)

    # Larger models reduce-scatter more bytes: PG3 (7.5B) > PG1 (3.6B).
    for env in ENVIRONMENTS:
        assert series[(3, env)] > series[(1, env)]
