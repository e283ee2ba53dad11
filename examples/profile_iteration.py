#!/usr/bin/env python
"""Full-stack telemetry for one iteration: healthy, then under faults.

Walks the `repro.obs` pipeline end to end on the hybrid two-cluster
machine: simulate a traced iteration, print the critical-path time-loss
budget (where every second of the makespan went, summing exactly to the
iteration time), name the slowest p2p edges and busiest NICs, dump a few
Prometheus-format metric lines — then inject a 3x straggler plus a link
brownout and show the budget shift to point straight at the culprits.

Writes profile_report.json (schema-validated) and profile_trace.json
(open in https://ui.perfetto.dev: rank rows, p2p flow arrows, fault
markers, utilization counter tracks) to a fresh temporary directory and
prints their paths.

Run:  python examples/profile_iteration.py
"""

import dataclasses
import json
import os
import tempfile

from repro.api import Scenario, simulate
from repro.faults import FaultEvent, FaultKind
from repro.obs.attribution import Category
from repro.obs.report import build_report, render_report, validate_report
from repro.obs.timeline import nic_utilization, utilization_counter_events
from repro.simcore.chrome_trace import default_rank_names, export_chrome_trace


HEALTHY = Scenario.from_group("hybrid", 2, 1, framework="holmes-no-overlap")


def main() -> None:
    print("=" * 72)
    print("1. Healthy iteration: the time-loss budget")
    print("=" * 72)
    healthy = simulate(HEALTHY)
    report = build_report(
        healthy, scenario={"env": "hybrid", "nodes": 2, "group": 1}
    )
    validate_report(report)
    print(render_report(report))

    budget = healthy.attribution.budget
    total = sum(budget.values())
    print(f"\ncompleteness check: budget sums to {total:.9f}s "
          f"vs iteration {healthy.iteration_time:.9f}s "
          f"(diff {abs(total - healthy.iteration_time):.2e}s)")

    print("\na few Prometheus-format series from the registry:")
    for line in healthy.registry.to_prometheus().splitlines():
        if line.startswith(("sim_", "attribution_seconds")):
            print(f"  {line}")

    print()
    print("=" * 72)
    print("2. The same machine with a 3x straggler and a link brownout")
    print("=" * 72)
    faulted = simulate(dataclasses.replace(HEALTHY, fault_events=(
        FaultEvent(time=0.0, kind=FaultKind.STRAGGLER, rank=0, factor=3.0),
        FaultEvent(time=1.0, kind=FaultKind.LINK_DEGRADE, node=0,
                   factor=0.25, duration=5.0),
    )))
    faulted_report = build_report(
        faulted, scenario={"env": "hybrid", "nodes": 2, "faulted": True}
    )
    validate_report(faulted_report)
    print(render_report(faulted_report))

    print("\nbudget shift (healthy -> faulted):")
    for category in Category:
        before = healthy.attribution.budget.get(category, 0.0)
        after = faulted.attribution.budget.get(category, 0.0)
        if before or after:
            print(f"  {str(category):16s} {before:8.3f}s -> {after:8.3f}s")
    print(f"\nthe straggler owns "
          f"{faulted.attribution.fraction(Category.STRAGGLER):.0%} of the "
          f"iteration; metrics now read: {faulted.metrics}")

    print()
    print("=" * 72)
    print("3. Artifacts")
    print("=" * 72)
    out_dir = tempfile.mkdtemp(prefix="repro-profile-")
    report_path = os.path.join(out_dir, "profile_report.json")
    trace_path = os.path.join(out_dir, "profile_trace.json")
    with open(report_path, "w") as fh:
        json.dump(faulted_report, fh, indent=2)
    counters = utilization_counter_events(
        nic_utilization(faulted.trace, faulted.makespan), prefix="nic"
    )
    with open(trace_path, "w") as fh:
        export_chrome_trace(
            faulted.trace, fh,
            rank_names=default_rank_names(faulted.plan),
            extra_events=counters,
        )
    print(f"wrote {report_path} (validated, schema "
          f"{faulted_report['schema']})")
    print(f"wrote {trace_path} — open in https://ui.perfetto.dev and "
          "look for the fault markers and the NIC utilization dip")


if __name__ == "__main__":
    main()
