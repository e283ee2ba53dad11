#!/usr/bin/env python3
"""The repository's benchmark: end-to-end and per-layer host-time figures.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once untraced and once with layer wrappers
installed (see ``perfbench/tracer.py``), checks that both produce identical
results, and reports the per-layer metrics.  ``--smoke`` shrinks every
workload to a few seconds; ``--tamper cache|served`` corrupts one cached or
served result document so the correctness gates can be seen to trip.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness gate held.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sim-grid", "plan-hybrid", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--tamper", choices=("cache", "served"), default=None,
                        help="corrupt one result document (gate self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import common

    state = common.RunState(args.workload, args.seed, args.seconds,
                            bool(args.trace), smoke=args.smoke,
                            tamper=args.tamper)
    try:
        if args.workload == "sim-grid":
            import sim_grid as workload
        elif args.workload == "plan-hybrid":
            import plan_hybrid as workload
        else:
            import serve_mixed as workload
        values = workload.run(state)
    finally:
        state.close()

    # Every workload prints every metric BENCHMARK.json declares; each
    # workload fills the shared end-to-end roles with its own quantities
    # (perfbench/NOTES.md).
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        values["ok_rate"] = state.ok_rate
        values["peak_rss_mb"] = common.peak_rss_mb()
    # a layer the workload never reached reads 0; an end-to-end figure
    # must always be measured
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0) if args.trace
                                          else values[m["name"]]),
                           "unit": m["unit"]}
               for m in declared}
    for failure in state.failures:
        print(f"perfbench: gate failed: {failure}", file=sys.stderr)
    correct = state.failed == 0
    print(json.dumps({"correct": correct, "attempted": state.attempted,
                      "failed": state.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
