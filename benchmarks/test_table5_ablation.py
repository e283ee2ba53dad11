"""Table 5 — component ablation on PG3, 8 nodes (4 RoCE + 4 IB).

Removes Self-Adapting Pipeline Partition and the Overlapped Distributed
Optimizer individually and together, and compares against Megatron-LM in the
same environment.  Cross-Cluster Pipeline Parallelism and Automatic NIC
Selection remain in every Holmes variant (their effect is Table 3's
Hybrid-vs-Ethernet gap).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import Scenario, sweep
from repro.bench.paper_data import TABLE5
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.tables import format_table, paper_vs_measured

#: Table 5 row -> framework preset
VARIANTS = {
    "megatron-lm": "megatron-lm",
    "holmes": "holmes",
    "holmes-no-sap": "holmes-no-sap",
    "holmes-no-overlap": "holmes-no-overlap",
    "holmes-no-sap-no-overlap": "holmes-base",
}


def build_table5():
    results = sweep([
        Scenario.from_group("hybrid", 8, PARAM_GROUPS[3], framework=framework,
                            trace_enabled=False)
        for framework in VARIANTS.values()
    ])
    return dict(zip(VARIANTS, results))


@pytest.mark.benchmark(group="table5")
def test_table5_ablation(benchmark, emit):
    results = run_once(benchmark, build_table5)

    rows = []
    lines = []
    for name, result in results.items():
        paper_tflops, paper_thr = TABLE5[name]
        rows.append(
            [name, round(result.tflops), paper_tflops,
             round(result.throughput, 2), paper_thr]
        )
        lines.append(paper_vs_measured(name, paper_tflops, result.tflops))
    lines.insert(
        0, format_table(["Variant", "TFLOPS", "paper", "Thr", "paper"], rows)
    )
    emit("table5_ablation", lines)

    tflops = {name: r.tflops for name, r in results.items()}
    # The paper's ablation ordering, exactly.
    assert (
        tflops["holmes"]
        > tflops["holmes-no-sap"]
        > tflops["holmes-no-overlap"]
        > tflops["holmes-no-sap-no-overlap"]
        > tflops["megatron-lm"]
    )
    # Overlap contributes more than SAP (paper's observation).
    sap_gain = tflops["holmes"] - tflops["holmes-no-sap"]
    overlap_gain = tflops["holmes"] - tflops["holmes-no-overlap"]
    assert overlap_gain > sap_gain
    # Effects are roughly additive ("nearly orthogonal", S4.3).
    combined = tflops["holmes"] - tflops["holmes-no-sap-no-overlap"]
    assert combined == pytest.approx(sap_gain + overlap_gain, rel=0.5)
    # NIC selection alone already beats Megatron-LM "by a significant
    # margin" (S4.3).
    assert tflops["holmes-no-sap-no-overlap"] > 1.2 * tflops["megatron-lm"]
