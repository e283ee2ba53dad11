#!/usr/bin/env python
"""Emit a machine-readable benchmark snapshot: ``BENCH_<date>.json``.

Runs the calibrated Table 1 scenarios (homogeneous InfiniBand / RoCE /
Ethernet, 4 nodes, parameter group 1) through the full telemetry pipeline
— each case produces a schema-validated :mod:`repro.obs` profile report —
and writes one JSON document CI can archive and diff across commits.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py --out-dir results
    PYTHONPATH=src python benchmarks/emit_bench.py \
        --check benchmarks/bench_reference.json       # drift gate (CI)
    PYTHONPATH=src python benchmarks/emit_bench.py --write-reference

``--check`` exits non-zero when any scenario's headline TFLOPS drifts more
than ``--tolerance`` (default 2%) from the committed reference — the guard
CI uses to catch accidental performance-model changes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from typing import Dict

from repro.bench.paramgroups import PARAM_GROUPS
from repro.obs.report import build_report, validate_report
from repro.validate.metamorphic import FIDELITY_RTOL

BENCH_SCHEMA = "repro.obs.bench/v1"
REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "bench_reference.json")

#: The calibrated Table 1 scenarios (paper §4.2): one NIC family per run.
SCENARIOS = ("ib", "roce", "ethernet")


def run_fidelity_bench(group_id: int = 1) -> Dict[str, object]:
    """Run a contention-free Table-3-style grid (t=1, p=1, so no pipeline
    p2p shares a NIC with the data-parallel rings) at the ``executed``,
    ``auto`` and ``analytic`` fidelity tiers.

    The drift gate checks that the analytic fast path engages, directly:
    the grid must run at ``fidelity="analytic"`` without a
    :class:`~repro.errors.FidelityError` (every span provably
    contention-free), and its iteration times must equal the ``auto``
    tier's bit for bit (``auto`` prices exactly those spans in closed
    form).  ``worst_rel_deviation`` checks ``auto`` against ``executed``.
    ``speedup`` (executed over auto wall time) is recorded for information
    only: it moves with the executed tier's own speed, so it cannot tell
    whether the fast path engaged.
    """
    import time

    from repro.api import Scenario, simulate
    from repro.errors import FidelityError

    group = PARAM_GROUPS[group_id]

    def grid(fidelity: str):
        return [
            Scenario.from_group(
                env, nodes, group, tensor=1, pipeline=1, data=0,
                global_batch_size=0, num_microbatches=2,
                trace_enabled=False, fidelity=fidelity,
            )
            for env in ("ib", "roce", "ethernet")
            for nodes in (4, 8)
        ]

    t0 = time.perf_counter()
    executed = [simulate(s) for s in grid("executed")]
    executed_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    auto = [simulate(s) for s in grid("auto")]
    auto_s = time.perf_counter() - t0
    analytic_error = ""
    try:
        analytic = [simulate(s) for s in grid("analytic")]
    except FidelityError as exc:
        analytic, analytic_error = [], str(exc)
    worst_rel = max(
        abs(a.iteration_time - e.iteration_time) / e.iteration_time
        for a, e in zip(auto, executed)
    )
    return {
        "grid": "contention-free table3-style (t=1 p=1; "
                "ib/roce/ethernet x 4,8 nodes)",
        "cells": len(executed),
        "executed_seconds": executed_s,
        "auto_seconds": auto_s,
        "speedup": executed_s / auto_s if auto_s > 0 else 0.0,
        "worst_rel_deviation": worst_rel,
        "analytic_engaged": not analytic_error,
        "analytic_error": analytic_error,
        "analytic_equals_auto": bool(analytic) and all(
            a.iteration_time == b.iteration_time for a, b in zip(analytic, auto)
        ),
    }


def run_plan_bench() -> Dict[str, object]:
    """Wall-time one small heterogeneous auto-planner run and record the
    committed planner point: ``discovered_vs_preset`` — discovered-layout
    TFLOPS over the best framework-preset TFLOPS.

    The drift gate holds this at ``plan.min_discovered_vs_preset`` (1.0):
    by construction the planner confirms every preset baseline alongside
    the searched layouts, so a ratio below 1.0 means the ranking itself
    broke, not that the machine got slower.
    """
    import time

    from repro.api import Scenario, plan

    base = Scenario(
        env="hybrid", nodes=2, gpus_per_node=4, num_layers=8,
        hidden_size=512, num_attention_heads=8, seq_length=1024,
        micro_batch_size=2, global_batch_size=64,
        framework="holmes-base", trace_enabled=False, label="bench-plan",
    )
    t0 = time.perf_counter()
    result = plan(base, budget=8, top_k=2)
    wall = time.perf_counter() - t0
    best_preset = max(r.tflops for r in result.baselines)
    return {
        "base": "hybrid 2x4, gpt(8L,512h), batch 64",
        "enumerated": result.enumerated,
        "searched": result.searched,
        "confirmed": result.confirmed,
        "seconds": wall,
        "discovered_tflops": result.best.tflops,
        "best_preset_tflops": best_preset,
        "discovered_vs_preset": (
            result.best.tflops / best_preset if best_preset > 0 else 0.0
        ),
        "max_deviation": result.max_deviation,
    }


def run_serve_bench() -> Dict[str, object]:
    """Wall-time the serving overhead: a warm-cache ``/v1/run`` request
    against an in-process daemon vs the same warm lookup through the
    cache directly.

    The committed point is ``overhead_ms`` — median served latency minus
    median in-process latency, i.e. what the HTTP framing, the queue, and
    the runner dispatch cost per request.  The drift gate holds it under
    ``serve.max_overhead_ms``: the ceiling is generous (wire latency is
    runner-noisy) and exists to catch a serving path that starts
    re-executing instead of hitting the shared cache, or an event-loop
    regression that turns milliseconds into seconds.
    """
    import statistics
    import tempfile
    import time

    from repro.api import Scenario
    from repro.client import ServeClient
    from repro.serve import ServeConfig, start_in_process

    scenario = Scenario.from_group(
        "ib", 2, 1, tensor=1, pipeline=1, data=0,
        global_batch_size=0, num_microbatches=2, trace_enabled=False,
        fidelity="auto",
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    repeats = 15
    with start_in_process(
        ServeConfig(port=0, cache_dir=cache_dir, workers=1)
    ) as daemon:
        client = ServeClient(daemon.url, tenant="bench")
        client.run(scenario)  # cold: execute once, warm the shared cache
        served = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            client.run_document(scenario)
            served.append(time.perf_counter() - t0)
        cache = daemon.service.cache
        inproc = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            cache.get(scenario)
            inproc.append(time.perf_counter() - t0)
    served_ms = statistics.median(served) * 1000.0
    inproc_ms = statistics.median(inproc) * 1000.0
    return {
        "scenario": "warm-cache /v1/run, in-process daemon, 1 runner",
        "repeats": repeats,
        "served_ms": served_ms,
        "inproc_ms": inproc_ms,
        "overhead_ms": served_ms - inproc_ms,
    }


def run_bench(nodes: int, group_id: int) -> Dict[str, object]:
    """Run every scenario and assemble the BENCH document."""
    from repro.api import Scenario, simulate

    cases: Dict[str, object] = {}
    for name in SCENARIOS:
        cell = Scenario.from_group(name, nodes, PARAM_GROUPS[group_id])
        result = simulate(cell)
        scenario = {
            "env": name,
            "nodes": nodes,
            "group": group_id,
            "world_size": cell.world_size,
        }
        report = build_report(result, scenario=scenario)
        validate_report(report)
        cases[name] = {
            "tflops_per_gpu": result.tflops,
            "throughput_samples_per_s": result.throughput,
            "iteration_seconds": result.iteration_time,
            "report": report,
        }
    return {
        "schema": BENCH_SCHEMA,
        "date": datetime.date.today().isoformat(),
        "nodes": nodes,
        "group": group_id,
        "cases": cases,
        "fidelity": run_fidelity_bench(group_id),
        "plan": run_plan_bench(),
        "serve": run_serve_bench(),
    }


def check_drift(bench: Dict, reference: Dict, tolerance: float) -> int:
    """Compare headline TFLOPS against the reference; return exit code."""
    failures = []
    ref_cases = reference.get("cases", {})
    for name, case in bench["cases"].items():
        ref = ref_cases.get(name)
        if ref is None:
            failures.append(f"{name}: missing from reference")
            continue
        expected = ref["tflops_per_gpu"]
        actual = case["tflops_per_gpu"]
        drift = abs(actual - expected) / expected if expected else float("inf")
        status = "FAIL" if drift > tolerance else "ok"
        print(
            f"  {name:10s} {actual:8.2f} TFLOPS "
            f"(reference {expected:8.2f}, drift {drift * 100:5.2f}%) {status}"
        )
        if drift > tolerance:
            failures.append(
                f"{name}: {actual:.2f} vs reference {expected:.2f} "
                f"({drift * 100:.2f}% > {tolerance * 100:.1f}%)"
            )
    ref_fidelity = reference.get("fidelity")
    if isinstance(ref_fidelity, dict):
        fidelity = bench.get("fidelity", {})
        worst = float(fidelity.get("worst_rel_deviation", float("inf")))
        bound = float(ref_fidelity.get("max_rel_deviation", FIDELITY_RTOL))
        engaged = bool(fidelity.get("analytic_engaged"))
        equal = bool(fidelity.get("analytic_equals_auto"))
        ok = engaged and equal and worst <= bound
        print(
            f"  {'fidelity':10s} analytic tier "
            f"{'engaged' if engaged else 'REFUSED'}, "
            f"{'equal to' if equal else 'DIFFERENT from'} auto; auto within "
            f"{worst * 100:.3f}% of executed (bound {bound * 100:.1f}%; "
            f"{float(fidelity.get('speedup', 0.0)):.1f}x faster) "
            f"{'ok' if ok else 'FAIL'}"
        )
        if not engaged:
            failures.append(
                "fidelity: the contention-free grid no longer runs at the "
                f"analytic tier ({fidelity.get('analytic_error', '')}) — "
                "the analytic fast path stopped engaging"
            )
        elif not equal:
            failures.append(
                "fidelity: analytic and auto iteration times differ on the "
                "contention-free grid — auto stopped pricing its spans in "
                "closed form"
            )
        if worst > bound:
            failures.append(
                f"fidelity: auto deviates {worst * 100:.3f}% from executed, "
                f"beyond the {bound * 100:.1f}% bound"
            )
    ref_plan = reference.get("plan")
    if isinstance(ref_plan, dict):
        plan_doc = bench.get("plan", {})
        ratio = float(plan_doc.get("discovered_vs_preset", 0.0))
        floor = float(ref_plan.get("min_discovered_vs_preset", 1.0))
        status = "FAIL" if ratio < floor else "ok"
        print(
            f"  {'plan':10s} {ratio:8.3f}x discovered-vs-preset "
            f"(floor {floor:.3f}x, "
            f"{plan_doc.get('searched', 0)} searched in "
            f"{float(plan_doc.get('seconds', 0.0)):.1f}s) {status}"
        )
        if ratio < floor:
            failures.append(
                f"plan: discovered layout at {ratio:.3f}x of the best "
                f"framework preset fell below the {floor:.3f}x floor — "
                f"the planner stopped finding (or confirming) the best layout"
            )
    ref_serve = reference.get("serve")
    if isinstance(ref_serve, dict):
        serve_doc = bench.get("serve", {})
        overhead = float(serve_doc.get("overhead_ms", float("inf")))
        ceiling = float(ref_serve.get("max_overhead_ms", 250.0))
        status = "FAIL" if overhead > ceiling else "ok"
        print(
            f"  {'serve':10s} {overhead:8.1f}ms served-vs-inproc overhead "
            f"(ceiling {ceiling:.0f}ms, served "
            f"{float(serve_doc.get('served_ms', 0.0)):.1f}ms) {status}"
        )
        if overhead > ceiling:
            failures.append(
                f"serve: warm-cache request overhead {overhead:.1f}ms "
                f"exceeded the {ceiling:.0f}ms ceiling — the serving path "
                f"stopped answering from the shared cache (or the event "
                f"loop regressed)"
            )
    if failures:
        print("\nbenchmark drift detected:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno drift beyond tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=4,
                        help="nodes per scenario (default 4, the Table 1 "
                             "calibration point)")
    parser.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS),
                        default=1, help="parameter group (default 1)")
    parser.add_argument("--out-dir", default="results",
                        help="directory for BENCH_<date>.json (default results)")
    parser.add_argument("--check", metavar="REF", nargs="?",
                        const=REFERENCE_PATH, default=None,
                        help="compare TFLOPS against a reference JSON and "
                             "exit 1 on drift (default reference: "
                             "benchmarks/bench_reference.json)")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed relative TFLOPS drift (default 0.02)")
    parser.add_argument("--write-reference", action="store_true",
                        help="update benchmarks/bench_reference.json with "
                             "this run's headline numbers")
    args = parser.parse_args(argv)

    bench = run_bench(args.nodes, args.group)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"BENCH_{bench['date']}.json")
    with open(out_path, "w") as fh:
        json.dump(bench, fh, indent=2)
    print(f"wrote {out_path}")
    for name, case in bench["cases"].items():
        print(f"  {name:10s} {case['tflops_per_gpu']:8.2f} TFLOPS  "
              f"{case['iteration_seconds']:7.3f}s/iter")

    fidelity = bench.get("fidelity", {})
    if fidelity:
        print(
            f"  {'fidelity':10s} {fidelity['speedup']:8.1f}x auto-tier "
            f"speedup on {fidelity['cells']} contention-free cells, analytic "
            f"tier {'engaged' if fidelity['analytic_engaged'] else 'refused'}"
        )
    plan_doc = bench.get("plan", {})
    if plan_doc:
        print(
            f"  {'plan':10s} {plan_doc['discovered_vs_preset']:8.3f}x "
            f"discovered-vs-preset ({plan_doc['searched']} searched, "
            f"{plan_doc['seconds']:.1f}s)"
        )
    serve_doc = bench.get("serve", {})
    if serve_doc:
        print(
            f"  {'serve':10s} {serve_doc['overhead_ms']:8.1f}ms "
            f"served-vs-inproc overhead (warm cache, "
            f"{serve_doc['repeats']} repeats)"
        )

    if args.write_reference:
        reference = {
            "schema": BENCH_SCHEMA,
            "nodes": bench["nodes"],
            "group": bench["group"],
            "cases": {
                name: {"tflops_per_gpu": case["tflops_per_gpu"]}
                for name, case in bench["cases"].items()
            },
            # the analytic tier must engage on the contention-free grid and
            # equal auto exactly; auto stays within the conformance bound
            "fidelity": {"max_rel_deviation": FIDELITY_RTOL},
            # the planner confirms every preset baseline alongside the
            # searched layouts, so >= 1.0 is structural, not a perf band
            "plan": {"min_discovered_vs_preset": 1.0},
            # a ceiling, not a band: warm-cache serving overhead is wire
            # + queue + dispatch, typically single-digit milliseconds —
            # the generous ceiling catches a cache bypass or an event-loop
            # regression, not runner jitter
            "serve": {"max_overhead_ms": 250.0},
        }
        with open(REFERENCE_PATH, "w") as fh:
            json.dump(reference, fh, indent=2)
            fh.write("\n")
        print(f"updated {REFERENCE_PATH}")

    if args.check:
        with open(args.check) as fh:
            reference = json.load(fh)
        print(f"\nchecking against {args.check} "
              f"(tolerance {args.tolerance * 100:.1f}%):")
        return check_drift(bench, reference, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
