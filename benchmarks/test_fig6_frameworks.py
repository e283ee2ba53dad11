"""Figure 6 — Holmes vs Megatron-LM / Megatron-DeepSpeed / Megatron-LLaMA.

Parameter group 3 on 8 nodes (4 RoCE + 4 IB, no inter-cluster interconnect).
Expected ordering: Holmes first; Megatron-LLaMA ahead of Megatron-LM and
Megatron-DeepSpeed thanks to its Overlapped Distributed Optimizer; the
NIC-oblivious baselines cluster near the pure-Ethernet performance level.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import Scenario, sweep
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.bench.tables import ascii_bars, format_table
from repro.frameworks import FRAMEWORKS


def build_fig6():
    group = PARAM_GROUPS[3]
    names = list(FRAMEWORKS) + ["_pure_ethernet_reference"]
    results = sweep([
        Scenario.from_group("hybrid", 8, group, framework=name, trace_enabled=False)
        for name in FRAMEWORKS
    ] + [case_scenario("ethernet", 8, group)])
    return dict(zip(names, results))


@pytest.mark.benchmark(group="fig6")
def test_fig6_frameworks(benchmark, emit):
    results = run_once(benchmark, build_fig6)

    rows = [
        [name, round(r.tflops), round(r.throughput, 2)]
        for name, r in sorted(
            results.items(), key=lambda kv: -kv[1].tflops
        )
    ]
    ordered = [r for r in rows if not r[0].startswith("_")]
    emit(
        "fig6_frameworks",
        [
            "Framework comparison, PG3, 8 nodes (4 RoCE + 4 IB)",
            format_table(["Framework", "TFLOPS", "Throughput"], rows),
            "",
            ascii_bars(
                [r[0] for r in ordered], [r[1] for r in ordered],
                unit=" TFLOPS",
            ),
        ],
    )

    tflops = {name: r.tflops for name, r in results.items()}
    # The paper's ordering.
    assert tflops["holmes"] > tflops["megatron-llama"]
    assert tflops["megatron-llama"] > tflops["megatron-lm"]
    assert tflops["megatron-lm"] > tflops["megatron-deepspeed"]
    # Holmes is the only NIC-aware framework: a decisive margin.
    assert tflops["holmes"] > 1.25 * tflops["megatron-lm"]
    # The NIC-oblivious baselines perform like pure-Ethernet training
    # (Table 5's Megatron-LM row equals Table 3's Ethernet row).
    assert tflops["megatron-lm"] == pytest.approx(
        tflops["_pure_ethernet_reference"], rel=0.10
    )
