#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's median and spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 --out runs.jsonl

For every seed it runs each workload once, rotating the workload order
from seed to seed, appends every result line to ``--out`` and then prints,
per (workload, metric), the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  ``--report FILE``
re-prints the table from an earlier ``--out`` file without running.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sim-grid", "plan-hybrid", "serve-mixed")


def seeds(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def table(path: Path) -> None:
    by_key = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        for name, metric in record["result"]["metrics"].items():
            by_key.setdefault((record["workload"], name), []).append(metric["value"])
    walls = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if "wall_s" in record:
            walls.setdefault(record["workload"], []).append(record["wall_s"])
    for workload, values in sorted(walls.items()):
        print(f"{workload}: {len(values)} runs, wall median {statistics.median(values):.1f} s, "
              f"max {max(values):.1f} s")
    print(f"{'workload':12s} {'metric':28s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for (workload, name), values in sorted(by_key.items()):
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:12s} {name:28s} {len(values):3d} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {spread:8.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--report", type=Path)
    args = parser.parse_args(argv)
    if args.report:
        table(args.report)
        return 0
    workloads = args.workloads.split(",")
    failed = 0
    with open(args.out, "a") as out:
        for turn, seed in enumerate(seeds(args.seeds)):
            order = workloads[turn % len(workloads):] + workloads[:turn % len(workloads)]
            for workload in order:
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", args.seconds,
                     "--trace", args.trace],
                    capture_output=True, text=True, timeout=900,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    failed += 1
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    continue
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "wall_s": time.monotonic() - start,
                                      "report": lines[-2] if len(lines) > 1 else "",
                                      "result": json.loads(lines[-1])}) + "\n")
                out.flush()
    table(args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
