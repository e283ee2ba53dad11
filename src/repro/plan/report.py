"""The ``repro.plan.report/v1`` document: build, validate, render.

The report is a pure-data snapshot of a :class:`~repro.plan.search.PlanResult`
— ranking, baselines, discovered-vs-preset deltas, and the fidelity gate.
It deliberately contains **no wall-clock timings and no cache statistics**:
every field is a deterministic function of the search inputs, so a warm
(fully cached) re-plan over the same space serialises byte-identically to
the cold run that populated the cache.  Wall-clock phase timings live on
``PlanResult.timings`` and are printed separately by the CLI.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.plan.search import PlanResult, RankedLayout

PLAN_SCHEMA = "repro.plan.report/v1"

_LAYOUT_KEYS = (
    "label", "digest", "tensor", "pipeline", "data", "micro_batch_size",
    "num_microbatches", "schedule", "num_chunks", "framework", "placement",
    "partition", "optimizer", "oracle_tflops", "search_tflops", "tflops",
    "iteration_time", "throughput", "bubble_fraction", "comm_fraction",
    "deviation", "memory_utilization", "straddling_stages", "preset",
)


def _layout_entry(layout: RankedLayout, rank: int) -> Dict[str, object]:
    entry: Dict[str, object] = {"rank": rank}
    for key in _LAYOUT_KEYS:
        entry[key] = getattr(layout, key)
    return entry


def build_plan_report(result: PlanResult) -> Dict[str, object]:
    """The plan result as a JSON-safe ``repro.plan.report/v1`` document."""
    return {
        "schema": PLAN_SCHEMA,
        "base": result.base.canonical(),
        "space": {
            "enumerated": result.enumerated,
            "feasible": result.feasible,
            "pruned_memory": result.pruned_memory,
            "pruned_infeasible": result.pruned_infeasible,
            "searched": result.searched,
            "confirmed": result.confirmed,
            "budget": result.budget,
            "top_k": result.top_k,
            "search_fidelity": result.search_fidelity,
            "confirm_fidelity": result.confirm_fidelity,
        },
        "ranking": [
            _layout_entry(layout, rank)
            for rank, layout in enumerate(result.ranking, 1)
        ],
        "best": _layout_entry(result.best, 1),
        "presets": result.preset_deltas(),
        "gate": {
            "tolerance": result.tolerance,
            "max_deviation": result.max_deviation,
            "within_tolerance": result.within_tolerance,
            "beats_presets": result.beats_presets,
        },
    }


def validate_plan_report(report: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``report`` is a well-formed plan report."""
    if not isinstance(report, dict):
        raise ValueError(f"report must be a dict, got {type(report).__name__}")
    if report.get("schema") != PLAN_SCHEMA:
        raise ValueError(
            f"unknown report schema: {report.get('schema')!r} "
            f"(expected {PLAN_SCHEMA})"
        )
    for section in ("base", "space", "gate"):
        if not isinstance(report.get(section), dict):
            raise ValueError(f"report is missing the {section!r} section")
    ranking = report.get("ranking")
    if not isinstance(ranking, list) or not ranking:
        raise ValueError("report.ranking must be a non-empty list")
    for entry in ranking:
        if not isinstance(entry, dict):
            raise ValueError("ranking entries must be dicts")
        missing = [k for k in _LAYOUT_KEYS if k not in entry]
        if missing:
            raise ValueError(f"ranking entry missing keys: {missing}")
        world = entry["tensor"] * entry["pipeline"] * entry["data"]
        if world < 1:
            raise ValueError(f"bad layout degrees in {entry['label']!r}")
        if not isinstance(entry["tflops"], (int, float)) or entry["tflops"] <= 0:
            raise ValueError(f"{entry['label']!r}: tflops must be positive")
    tflops = [e["tflops"] for e in ranking]
    if tflops != sorted(tflops, reverse=True):
        raise ValueError("ranking is not sorted by TFLOPS descending")
    presets = report.get("presets")
    # empty when no framework preset fits in memory at the base layout
    if not isinstance(presets, list):
        raise ValueError("report.presets must be a list")
    best = report.get("best")
    if not isinstance(best, dict) or best.get("label") != ranking[0]["label"]:
        raise ValueError("report.best must mirror the top ranking entry")
    gate = report["gate"]
    for key in ("tolerance", "max_deviation"):
        if not isinstance(gate.get(key), (int, float)):
            raise ValueError(f"gate.{key} must be numeric")
    for key in ("within_tolerance", "beats_presets"):
        if not isinstance(gate.get(key), bool):
            raise ValueError(f"gate.{key} must be boolean")
    # Re-serialisability: the document must be canonical JSON end to end.
    json.dumps(report)


def render_plan_report(report: Dict[str, object]) -> str:
    """Human-readable view: the ranked table plus the preset-delta table."""
    from repro.bench.tables import format_table

    lines: List[str] = []
    base = report["base"]
    space = report["space"]
    lines.append(
        f"plan: {base['env']} {base['nodes']}x{base['gpus_per_node']}, "
        f"gpt({base['num_layers']}L,{base['hidden_size']}h), "
        f"batch {base['global_batch_size']} (mb {base['micro_batch_size']})"
    )
    lines.append(
        f"space: {space['enumerated']} enumerated -> {space['feasible']} "
        f"feasible -> {space['searched']} searched "
        f"<{space['search_fidelity']}> -> {space['confirmed']} confirmed "
        f"<{space['confirm_fidelity']}>"
    )
    rows = []
    for entry in report["ranking"]:
        deviation = entry["deviation"]
        rows.append([
            str(entry["rank"]),
            f"t{entry['tensor']} p{entry['pipeline']} d{entry['data']}",
            entry["schedule"],
            entry["framework"] + (" *" if entry["preset"] else ""),
            f"{entry['tflops']:.1f}",
            f"{entry['bubble_fraction'] * 100:.0f}%",
            f"{entry['comm_fraction'] * 100:.0f}%",
            "-" if deviation is None else f"{deviation * 100:.2f}%",
        ])
    lines.append("")
    lines.append(format_table(
        ["#", "layout", "schedule", "framework", "TFLOPS", "bubble",
         "comm", "dev"],
        rows,
    ))
    if any(entry["preset"] for entry in report["ranking"]):
        lines.append("(* = framework preset baseline at the base layout)")
    lines.append("")
    preset_rows = [
        [
            row["framework"],
            f"{row['preset_tflops']:.1f}",
            f"{row['discovered_tflops']:.1f}",
            f"{row['delta_fraction'] * 100:+.1f}%",
        ]
        for row in report["presets"]
    ]
    if preset_rows:
        lines.append(format_table(
            ["preset", "TFLOPS", "discovered", "delta"], preset_rows
        ))
    else:
        lines.append("no framework preset fits in memory at the base layout")
    gate = report["gate"]
    lines.append("")
    lines.append(
        f"fidelity gate: max search-vs-confirm deviation "
        f"{gate['max_deviation'] * 100:.2f}% "
        f"(tolerance {gate['tolerance'] * 100:.1f}%) -> "
        + ("ok" if gate["within_tolerance"] else "EXCEEDED")
    )
    if preset_rows:
        lines.append(
            "discovered layout "
            + ("matches or beats" if gate["beats_presets"] else "LOSES TO")
            + " every framework preset"
        )
    return "\n".join(lines)
