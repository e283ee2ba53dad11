"""The benchmark's own tests: every workload at smoke size.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q

Checks that each workload prints every metric ``BENCHMARK.json`` names,
with its unit, in both modes; that a tampered cached or served result
document drives ``ok_rate`` below 1 and fails the command; and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = {"sim-grid": "1", "plan-hybrid": "1", "serve-mixed": "5"}


def bench(workload: str, trace: int = 0, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SMOKE_SECONDS[workload], "--trace", str(trace),
         "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, result, stderr = bench(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert result["metrics"]["ok_rate"]["value"] == 1.0
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload, tamper", [
    ("sim-grid", "cache"),
    ("plan-hybrid", "cache"),
    ("serve-mixed", "served"),
])
def test_a_tampered_document_trips_the_gates(workload, tamper):
    code, result, _ = bench(workload, 0, "--tamper", tamper)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_rate"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("sim-grid", 0, cwd=tmp_path)
    assert code != 0 and result is None


def test_trace_counts_repeat_and_the_ring_grows_superlinearly():
    _, first, _ = bench("sim-grid", 1)
    _, second, _ = bench("sim-grid", 1)
    for name in ("simcore.events", "collectives.p2p_sends",
                 "hardware.device_lookups", "collectives.ops"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    # smoke curve: 16 -> 32 GPUs; doubling the world more than doubles them
    assert first["metrics"]["collectives.p2p_sends_growth"]["value"] > 2.0
    assert first["metrics"]["hardware.device_lookups_growth"]["value"] > 2.0
