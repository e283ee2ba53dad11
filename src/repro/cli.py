"""Command-line interface: ``python -m repro <command>``.

Every run constructs a :class:`repro.api.Scenario` and goes through the
unified run surface (:func:`repro.api.run` / :func:`repro.api.sweep` /
:func:`repro.api.simulate`): ``--env``/``--nodes`` name a paper machine,
``--machine FILE`` carries a JSON machine inline (``Scenario.machine``).
The full command list with one-line descriptions is in :data:`COMMANDS`
(and in ``python -m repro --help``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.bench.paramgroups import PARAM_GROUPS
from repro.errors import ConfigurationError, FidelityError

ENV_CHOICES = ("ib", "roce", "ethernet", "hybrid", "split-ib", "split-roce")

#: every subcommand with its one-line description — the single source for
#: ``--help`` and for the unknown-command hint
COMMANDS: Dict[str, str] = {
    "simulate": "simulate one training iteration of a Table 2 group",
    "compare": "compare frameworks on one machine",
    "plan": "NIC-aware layout search: discover (t,p,d), schedule, policy",
    "topology": "describe a machine (or save it as JSON)",
    "reproduce": "regenerate the paper's tables and figures",
    "check": "preflight a configuration (memory, NIC audit)",
    "trace": "export a simulated iteration as a Chrome trace",
    "faults": "inject NIC/link/node faults, report the degraded iteration",
    "profile": "full telemetry report for one simulated iteration",
    "validate": "metamorphic conformance sweep over seeded scenarios",
    "bench": "executor benchmarks: sweep timings, microbench, CI gate",
    "tail": "progress of a running or finished sweep (journal/event log)",
    "runs": "list recorded sweep/bench/validate runs from the run ledger",
    "report": "cross-run BENCH trend table with a regression soft gate",
    "cache": "result-cache stats and pruning (entries, journal debris)",
    "serve": "run the simulation service daemon (versioned HTTP wire API)",
    "submit": "send one scenario to a serve daemon, print the served result",
    "status": "daemon health, a job's status document, or its event stream",
}


def _parse_fidelity(value: str) -> str:
    """Validate a ``--fidelity`` value, exiting 2 with a close-match hint
    on anything that is not a known tier."""
    from repro.network.contention import FIDELITY_MODES

    if value in FIDELITY_MODES:
        return value
    import difflib

    close = difflib.get_close_matches(value, FIDELITY_MODES, n=1)
    hint = f" — did you mean {close[0]!r}?" if close else ""
    print(
        f"repro: unknown fidelity {value!r}{hint} "
        f"(one of: {', '.join(FIDELITY_MODES)})",
        file=sys.stderr,
    )
    raise SystemExit(2)


def _add_fidelity_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--fidelity", default="executed", metavar="TIER",
        help=f"simulation fidelity tier for {what}: 'executed' prices "
             "every collective step and p2p transfer through the DES "
             "(default); 'auto' prices uncontended, fault-free spans "
             "analytically in one aggregate event (~10-35x faster, within "
             "the documented 2%% tolerance) and drops contended spans "
             "down to executed; 'analytic' refuses scenarios it cannot "
             "price in closed form",
    )


def _machine_file(path: str) -> dict:
    """``--machine FILE``: the file's machine as a canonical dict."""
    import json

    from repro.hardware.config_io import canonical_machine

    try:
        with open(path) as fh:
            return canonical_machine(json.load(fh))
    except (OSError, ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(f"cannot load machine file {path}: {exc}")


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=4,
                        help="total node count (default 4)")
    parser.add_argument("--env", choices=ENV_CHOICES, default="hybrid",
                        help="NIC environment (default hybrid)")
    parser.add_argument("--machine", metavar="FILE", type=_machine_file,
                        dest="inline_machine", default=None,
                        help="JSON machine file (overrides --nodes/--env)")


def _machine_scenario(args: argparse.Namespace, group=None, **overrides):
    """The scenario a machine-taking command runs: the named ``--env`` /
    ``--nodes`` machine, or the ``--machine FILE`` machine inline under env
    ``custom``.  ``group`` (a Table 2 parameter group) fills the model and
    layout; without one the scenario only describes the machine."""
    from repro.api import Scenario

    machine = args.inline_machine
    env, nodes, gpus_per_node = args.env, args.nodes, 8
    if machine is not None:
        from repro.hardware.config_io import machine_shape

        env = "custom"
        nodes, gpus_per_node = machine_shape(machine)
    try:
        if group is None:
            return Scenario(env=env, nodes=nodes, gpus_per_node=gpus_per_node,
                            machine=machine, **overrides)
        return Scenario.from_group(env, nodes, group, gpus_per_node=gpus_per_node,
                                   machine=machine, **overrides)
    except ConfigurationError as exc:
        raise SystemExit(f"repro: {exc}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.api import run

    group = PARAM_GROUPS[args.group]
    scenario = _machine_scenario(
        args, group, framework="holmes-base" if args.base else "holmes-full",
        trace_enabled=False, fidelity=_parse_fidelity(args.fidelity),
    )
    result = run(scenario)
    if args.json:
        import json

        print(json.dumps(result.to_document(), indent=2, sort_keys=True))
        return 0
    print(scenario.topology().describe())
    print(f"model: {group.model.describe()}")
    print(f"TFLOPS/GPU:  {result.tflops:.1f}")
    print(f"throughput:  {result.throughput:.2f} samples/s")
    print(f"iteration:   {result.iteration_time:.3f} s")
    print(f"DP on RDMA:  {result.dp_rdma_fraction * 100:.0f}%")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.api import sweep
    from repro.bench.tables import format_table
    from repro.frameworks import FRAMEWORKS

    group = PARAM_GROUPS[args.group]
    names = sorted(FRAMEWORKS)
    scenarios = [
        _machine_scenario(args, group, framework=name, trace_enabled=False)
        for name in names
    ]
    rows = [
        [name, round(result.tflops), round(result.throughput, 2)]
        for name, result in zip(names, sweep(scenarios, jobs=args.jobs))
    ]
    rows.sort(key=lambda r: -r[1])
    print(format_table(["Framework", "TFLOPS", "samples/s"], rows))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """NIC-aware auto-planner: two-phase search over (t, p, d) x schedule
    x policy preset, pruned by the closed-form oracle, searched at the
    chosen fidelity tier, confirmed (with every framework preset baseline)
    at the executed tier.  Emits a ``repro.plan.report/v1`` document."""
    import json
    import time as _time

    from repro import api
    from repro.obs.ledger import now_iso, record_run
    from repro.plan import (
        build_plan_report,
        render_plan_report,
        validate_plan_report,
    )

    fidelity = _parse_fidelity(args.fidelity)
    try:
        if args.group is not None:
            base = api.Scenario.from_group(
                args.env, args.nodes, PARAM_GROUPS[args.group],
                gpus_per_node=args.gpus_per_node, framework="holmes-base",
                trace_enabled=False,
            )
        else:
            base = api.Scenario(
                env=args.env,
                nodes=args.nodes,
                gpus_per_node=args.gpus_per_node,
                num_layers=args.layers,
                hidden_size=args.hidden,
                num_attention_heads=args.heads,
                seq_length=args.seq_length,
                micro_batch_size=args.micro_batch,
                global_batch_size=args.batch,
                framework="holmes-base",
                trace_enabled=False,
                label=f"plan-base:{args.env}:{args.nodes}x{args.gpus_per_node}",
            )
    except ConfigurationError as exc:
        raise SystemExit(f"repro: invalid base configuration: {exc}")

    print(f"planning {base.describe()}")
    started_iso = now_iso()
    started_clock = _time.monotonic()
    try:
        result = api.plan(
            base,
            budget=args.budget,
            top_k=args.top_k,
            fidelity=fidelity,
            jobs=args.jobs,
            cache=args.cache,
            resume=args.resume,
            progress=args.progress,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"repro: {exc}")
    wall = _time.monotonic() - started_clock

    report = build_plan_report(result)
    validate_plan_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    print()
    print(render_plan_report(report))
    timings = result.timings
    print(
        f"\nphases: oracle {timings.get('oracle_seconds', 0.0):.2f}s, "
        f"search {timings.get('search_seconds', 0.0):.2f}s, "
        f"confirm {timings.get('confirm_seconds', 0.0):.2f}s "
        f"(total {wall:.2f}s)"
    )
    if args.out:
        print(f"wrote report to {args.out}")

    record_run(
        "plan",
        started=started_iso,
        wall_seconds=wall,
        outcome="ok" if result.within_tolerance else "partial",
        counts={"executed": result.searched + result.confirmed},
        summary={
            "env": base.env,
            "best": result.best.label,
            "tflops": round(result.best.tflops, 2),
            "fidelity": fidelity,
        },
    )
    return 0 if result.within_tolerance else 1


def cmd_topology(args: argparse.Namespace) -> int:
    topology = _machine_scenario(args).topology()
    print(topology.describe())
    if args.save:
        from repro.hardware.config_io import dump_topology

        dump_topology(topology, args.save)
        print(f"wrote machine file to {args.save}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import simulate
    from repro.simcore.chrome_trace import default_rank_names, export_chrome_trace

    result = simulate(_machine_scenario(
        args, PARAM_GROUPS[args.group], framework="holmes-full"
    ))
    with open(args.output, "w") as fh:
        export_chrome_trace(
            result.trace, fh, rank_names=default_rank_names(result.plan)
        )
    print(f"wrote {len(result.trace.spans)} spans to {args.output}")
    print("open chrome://tracing or https://ui.perfetto.dev to view")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the paper's tables and figures (wraps the pytest
    benchmark harness; reports land in results/)."""
    import pytest as _pytest

    targets = ["benchmarks", "--benchmark-only", "-q"]
    if args.only:
        name = args.only
        if not name.endswith(".py"):
            name += ".py"
        if not name.startswith("test_"):
            name = "test_" + name
        targets[0] = f"benchmarks/{name}"
    code = _pytest.main(targets)
    if code == 0 and not args.only:
        from repro.bench.report import write_report

        print(f"aggregated report: {write_report('results')}")
    return code


def cmd_check(args: argparse.Namespace) -> int:
    """Preflight a configuration: memory fit, NIC audit, partition."""
    from repro.core.memory_model import estimate_memory
    from repro.core.nic_selection import audit_parallel_groups
    from repro.core.scheduler import HolmesScheduler
    from repro.network.fabric import Fabric
    from repro.units import GB

    group = PARAM_GROUPS[args.group]
    scenario = _machine_scenario(args, group)
    topology, parallel = scenario.topology(), scenario.parallel
    plan = HolmesScheduler().plan(topology, parallel, group.model)
    print(plan.describe())

    gpu = topology.node_of(0).gpu
    estimate = estimate_memory(group.model, parallel, list(plan.stage_layers))
    verdict = "OK" if estimate.fits(gpu) else "WILL NOT FIT"
    print(
        f"\nmemory (most loaded rank): {estimate.total / GB:.1f} GB of "
        f"{gpu.memory_bytes / GB:.0f} GB ({estimate.utilization(gpu) * 100:.0f}%) "
        f"-> {verdict}"
    )
    print(f"  weights+grads: {estimate.weights_and_grads / GB:6.1f} GB")
    print(f"  optimizer:     {estimate.optimizer_state / GB:6.1f} GB")
    print(f"  activations:   {estimate.activations / GB:6.1f} GB")

    audit = audit_parallel_groups(Fabric(topology), plan.physical_groups)
    print(
        f"\nNIC audit: {audit.dp_groups_rdma}/{audit.dp_groups_total} "
        f"data-parallel groups on RDMA-or-better, "
        f"{audit.dp_groups_degraded} degraded by heterogeneity"
    )
    # Pipeline groups crossing clusters over Ethernet are Holmes's design,
    # not a pathology; only flag *data* groups that lost RDMA.
    for report in audit.degraded():
        if report.name.startswith("data["):
            print(f"  DEGRADED {report.name}: families {report.nic_families}")
    ok = estimate.fits(gpu) and audit.fully_selected
    print(f"\npreflight: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _parse_fault_event(spec: str):
    """Parse ``KIND:key=value,...`` into a :class:`FaultEvent`.

    Example: ``nic-flap:node=0,time=0.005,duration=0.5``.
    """
    from repro.faults import FaultEvent, FaultKind

    kind_name, _, rest = spec.partition(":")
    try:
        kind = FaultKind(kind_name)
    except ValueError:
        choices = ", ".join(k.value for k in FaultKind)
        raise SystemExit(f"unknown fault kind {kind_name!r} (one of: {choices})")
    fields = {}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            if not value:
                raise SystemExit(f"bad fault field {part!r} in {spec!r}")
            fields[key.strip()] = value.strip()
    try:
        kwargs = {"time": float(fields.pop("time", 0.0)), "kind": kind}
        if "node" in fields:
            kwargs["node"] = int(fields.pop("node"))
        if "rank" in fields:
            kwargs["rank"] = int(fields.pop("rank"))
        if "duration" in fields:
            kwargs["duration"] = float(fields.pop("duration"))
        if "factor" in fields:
            kwargs["factor"] = float(fields.pop("factor"))
        if "loss" in fields:
            kwargs["loss_rate"] = float(fields.pop("loss"))
        if fields:
            raise SystemExit(
                f"unknown fault fields {sorted(fields)} in {spec!r}"
            )
        return FaultEvent(**kwargs)
    except (ConfigurationError, ValueError) as exc:
        raise SystemExit(f"bad fault event {spec!r}: {exc}")


def cmd_faults(args: argparse.Namespace) -> int:
    """Simulate one iteration healthy, then again under a fault plan."""
    import dataclasses

    from repro import api

    group = PARAM_GROUPS[args.group]
    events = tuple(_parse_fault_event(s) for s in args.event or ())
    if not events and not args.random_events:
        raise SystemExit("no faults given: use --event and/or --random N")

    base = _machine_scenario(args, group, framework="holmes-no-overlap")
    topology = base.topology()
    healthy = api.simulate(base)
    faulted = dataclasses.replace(
        base,
        fault_events=events,
        fault_seed=args.seed if args.random_events else None,
        fault_count=args.random_events,
        fault_horizon=args.horizon if args.horizon else healthy.iteration_time,
    )
    try:
        fault_plan = faulted.fault_plan(topology)
        fault_plan.validate_against(topology)
    except ConfigurationError as exc:
        raise SystemExit(f"fault plan does not fit this machine: {exc}")
    print(topology.describe())
    print(f"model: {group.model.describe()}\n")
    print(fault_plan.describe())
    result = api.simulate(faulted)
    print(f"\nhealthy: {healthy.metrics}")
    print(f"faulted: {result.metrics}")
    slowdown = result.iteration_time / healthy.iteration_time
    print(f"slowdown: {slowdown:.2f}x"
          + ("  [ABORTED: node crash detected]" if result.aborted else ""))
    if result.faults is not None:
        print(f"\n{result.faults.describe()}")

    if args.campaign:
        from repro.core.faults import CheckpointPolicy
        from repro.core.longrun import (
            ElasticPolicy,
            elastic_goodput_analytic,
            simulate_elastic_campaign,
        )

        policy = ElasticPolicy(
            num_nodes=topology.num_nodes,
            node_mtbf=args.node_mtbf,
            repair_time=args.repair_time,
            reconfig_time=args.reconfig_time,
            correlated_outage_prob=args.outage_prob,
            cluster_size=min(args.outage_size, topology.num_nodes),
        )
        ckpt = CheckpointPolicy(
            checkpoint_time=args.checkpoint_time,
            restart_time=args.reconfig_time + args.repair_time,
            mtbf=args.node_mtbf / topology.num_nodes,
        )
        campaign = simulate_elastic_campaign(
            policy, ckpt, healthy.iteration_time, args.campaign, seed=args.seed
        )
        analytic = elastic_goodput_analytic(policy, ckpt)
        print(f"\nelastic campaign over {args.campaign:.0f}s "
              f"(seed {args.seed}):")
        print(f"  goodput:    {campaign.goodput:.1%} "
              f"(analytic first-order: {analytic:.1%})")
        print(f"  iterations: {campaign.iterations_completed}")
        print(f"  failures:   {campaign.num_failures} "
              f"(min alive: {campaign.min_alive}/{topology.num_nodes})")
        print(f"  time lost:  checkpoints {campaign.checkpoint_time:.0f}s, "
              f"rollback {campaign.lost_time:.0f}s, "
              f"reconfig {campaign.reconfig_time:.0f}s, "
              f"degraded-running {campaign.degraded_time:.0f}s")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Simulate one traced iteration and emit the full telemetry report:
    critical-path time-loss budget, per-NIC/link utilization, metrics
    registry snapshot, and (optionally) a Chrome trace with utilization
    counter tracks and fault markers."""
    import json

    from repro import api
    from repro.obs.report import build_report, render_report, validate_report
    from repro.obs.timeline import utilization_counter_events

    group = PARAM_GROUPS[args.group]
    events = tuple(_parse_fault_event(s) for s in args.event or ())

    scenario = _machine_scenario(
        args, group, framework="holmes-no-overlap", fault_events=events
    )
    topology = scenario.topology()
    if events:
        try:
            scenario.fault_plan(topology).validate_against(topology)
        except ConfigurationError as exc:
            raise SystemExit(f"fault plan does not fit this machine: {exc}")
    result = api.simulate(scenario)
    plan = result.plan

    trace_path = args.trace
    if trace_path:
        from repro.obs.timeline import link_utilization, nic_utilization
        from repro.simcore.chrome_trace import (
            default_rank_names,
            export_chrome_trace,
        )

        horizon = result.makespan or result.iteration_time
        counters = utilization_counter_events(
            nic_utilization(result.trace, horizon), prefix="nic"
        ) + utilization_counter_events(
            link_utilization(result.trace, horizon), prefix="link"
        )
        with open(trace_path, "w") as fh:
            export_chrome_trace(
                result.trace, fh,
                rank_names=default_rank_names(plan),
                extra_events=counters,
            )

    summary = {
        "env": scenario.env,
        "nodes": topology.num_nodes,
        "group": args.group,
        "world_size": topology.world_size,
        "faulted": bool(events),
    }
    report = build_report(result, scenario=summary, trace_path=trace_path)
    validate_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    print(render_report(report))
    if args.out:
        print(f"\nwrote report to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Metamorphic conformance sweep: sample N seeded scenarios, check every
    selected relation (with the invariant sanitizer armed inside each run),
    and emit a ``repro.validate.report/v1`` document.  Exit 0 iff every
    relation held on every scenario."""
    import json

    from repro.validate import ValidationHooks, run_validation
    from repro.validate.metamorphic import RELATIONS
    from repro.validate.report import (
        build_validation_report,
        render_validation_report,
        validate_validation_report,
    )
    from repro.validate.scenarios import sample_scenarios

    relations = args.relation or None
    if relations:
        unknown = sorted(set(relations) - set(RELATIONS))
        if unknown:
            raise SystemExit(
                f"unknown relations: {', '.join(unknown)}; "
                f"have {', '.join(sorted(RELATIONS))}"
            )
    import time as _time

    from repro.obs.ledger import now_iso, record_run

    fidelity = _parse_fidelity(args.fidelity)
    started_iso = now_iso()
    started_clock = _time.monotonic()
    results = run_validation(
        args.scenarios, seed=args.seed, relations=relations, jobs=args.jobs,
        timeout=args.timeout, progress=args.progress,
        fidelity=None if fidelity == "executed" else fidelity,
    )

    # One sanitizer-armed pass over the raw scenarios so the report carries
    # the invariant tallies of this exact sweep (the relation runs arm their
    # own private hooks).
    sanitizer = ValidationHooks()
    for spec in sample_scenarios(args.scenarios, args.seed):
        spec.run(validation=sanitizer, fidelity=fidelity)

    report = build_validation_report(
        results,
        num_scenarios=args.scenarios,
        seed=args.seed,
        relations=relations or sorted(RELATIONS),
        sanitizer=sanitizer.summary(),
    )
    validate_validation_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    print(render_validation_report(report))
    if args.jobs != 1:
        from repro.exec import format_resilience_summary

        print(format_resilience_summary())
    if args.out:
        print(f"\nwrote report to {args.out}")
    failed = report["summary"]["failed"]
    record_run(
        "validate",
        started=started_iso,
        wall_seconds=_time.monotonic() - started_clock,
        outcome="ok" if not failed else "partial",
        counts={
            "executed": report["summary"]["checks"],
            "quarantined": failed,
        },
        summary={
            "scenarios": args.scenarios,
            "seed": args.seed,
            "fidelity": fidelity,
        },
    )
    return 0 if not failed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Measure the batch executor (serial / parallel / cached sweep and the
    DES microbenchmarks), optionally writing a ``BENCH_<date>.json``
    document and gating against a committed reference."""
    import json
    import time as _time

    from repro.bench.benchfile import check_bench, collect_bench, write_bench
    from repro.bench.tables import format_table
    from repro.obs.ledger import now_iso, record_run

    fidelity = _parse_fidelity(args.fidelity)
    started_iso = now_iso()
    started_clock = _time.monotonic()
    doc = collect_bench(
        jobs=args.jobs,
        repeats=args.repeats,
        fast=args.fast,
        micro_only=args.micro_only,
        timeout=args.timeout,
        resume=args.resume,
        progress=args.progress,
        textfile=args.textfile,
        fidelity=None if fidelity == "executed" else fidelity,
    )

    micro = doc["microbench"]["benchmarks"]
    rows = [
        [name, f"{b['ns_per_op']:.0f}", f"{b['normalized']:.2f}"]
        for name, b in sorted(micro.items())
    ]
    print(format_table(["microbench", "ns/op", "normalized"], rows))
    sweep_doc = doc.get("sweep")
    if sweep_doc:
        tier = sweep_doc.get("fidelity", "executed")
        tier_note = f" <{tier}>" if tier != "executed" else ""
        print(
            f"\nsweep {sweep_doc['name']}{tier_note} "
            f"({sweep_doc['cells']} cells): "
            f"serial {sweep_doc['serial_seconds']:.2f}s, "
            f"-j{sweep_doc['parallel_jobs']} {sweep_doc['parallel_seconds']:.2f}s "
            f"({sweep_doc['parallel_speedup']:.2f}x), "
            f"warm cache {sweep_doc['cached_seconds']:.3f}s "
            f"({sweep_doc['cache_speedup']:.1f}x)"
        )
        print(
            "results identical across serial/parallel/cached: "
            + ("yes" if sweep_doc["digests_identical"] else "NO")
        )
        from repro.exec import format_resilience_summary

        print(format_resilience_summary())

    out = args.out
    if out is None and not args.check:
        out = f"BENCH_{doc['date']}.json"
    if out:
        write_bench(doc, out)
        print(f"\nwrote benchmark document to {out}")

    identical = bool(sweep_doc["digests_identical"]) if sweep_doc else True
    summary = {"fidelity": fidelity}
    if sweep_doc:
        summary["normalized_cell_cost"] = sweep_doc["normalized_cell_cost"]
    record_run(
        "bench",
        started=started_iso,
        wall_seconds=_time.monotonic() - started_clock,
        outcome="ok" if identical else "failed",
        counts={"executed": sweep_doc["cells"] if sweep_doc else 0},
        summary=summary,
    )

    if args.check:
        with open(args.check) as fh:
            reference = json.load(fh)
        failures = check_bench(doc, reference, tolerance=args.tolerance)
        if failures:
            print(f"\nregression gate vs {args.check}: FAIL", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nregression gate vs {args.check}: pass")
    if not identical:
        return 1
    return 0


def _sniff_tail_kind(path) -> str:
    """``"events"`` or ``"journal"``, by schema sniff of the first
    parseable line (falling back to the filename convention)."""
    import json

    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                schema = record.get("schema", "") if isinstance(record, dict) else ""
                if str(schema).startswith("repro.obs.flight/"):
                    return "events"
                if str(schema).startswith("repro.exec.journal/"):
                    return "journal"
                break
    except OSError:
        pass
    return "events" if str(path).endswith(".events.jsonl") else "journal"


def cmd_tail(args: argparse.Namespace) -> int:
    """Render sweep progress from a journal or flight-recorder event log —
    a snapshot by default, a live ``tail -f`` view with ``--follow``.
    Given a directory, picks the most recently touched log under it."""
    import time
    from pathlib import Path

    path = Path(args.path)
    if path.is_dir():
        candidates = sorted(
            list(path.glob("*.jsonl")) + list(path.glob("journal/*.jsonl")),
            key=lambda p: p.stat().st_mtime,
        )
        if not candidates:
            raise SystemExit(f"no .jsonl logs under {path}")
        events = [p for p in candidates if p.name.endswith(".events.jsonl")]
        path = (events or candidates)[-1]
    if not path.exists():
        raise SystemExit(f"no such journal or event log: {path}")

    if _sniff_tail_kind(path) == "events":
        return _tail_events(path, args)
    return _tail_journal(path, args)


def _tail_events(path, args: argparse.Namespace) -> int:
    import time

    from repro.obs.flight import CampaignState, follow, read_events

    state = CampaignState()
    for record in read_events(path):
        state.feed(record)
    print(f"event log {path}")
    print(state.render_line())
    if state.finished or state.interrupted or not args.follow:
        for line in state.render_workers(now=time.time()):
            print(line)
        return 0
    last_render = time.monotonic()
    try:
        for record in follow(
            path, poll=args.interval, max_seconds=args.max_seconds
        ):
            state.feed(record)
            now = time.monotonic()
            final = state.finished or state.interrupted
            if final or now - last_render >= args.interval:
                last_render = now
                print(state.render_line())
            if final:
                break
    except KeyboardInterrupt:
        pass
    for line in state.render_workers(now=time.time()):
        print(line)
    return 0


def _tail_journal(path, args: argparse.Namespace) -> int:
    import time

    from repro.exec.journal import SweepJournal

    jrnl = SweepJournal(path)

    def render(counts) -> str:
        parts = [
            f"{counts['ok']} ok ({counts['distinct_ok']} distinct scenarios)"
        ]
        if counts["failed"]:
            parts.append(f"{counts['failed']} failed records")
        if counts["corrupt"]:
            parts.append(f"{counts['corrupt']} corrupt/partial lines")
        return "journal: " + ", ".join(parts)

    counts = jrnl.progress()
    print(f"journal {path}")
    print(render(counts))
    if not args.follow:
        return 0
    deadline = (
        time.monotonic() + args.max_seconds
        if args.max_seconds is not None
        else None
    )
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(args.interval)
            latest = jrnl.progress()
            if latest != counts:
                counts = latest
                print(render(counts))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """List the run ledger: one line per recorded sweep/bench/validate
    run, oldest first."""
    import json

    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    records = ledger.tail(args.last)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2,
                         sort_keys=True))
        return 0
    if not records:
        print(f"no recorded runs in {ledger.path}")
        return 0
    for record in records:
        print(record.describe())
    if ledger.corrupt_lines:
        print(f"({ledger.corrupt_lines} corrupt ledger lines skipped)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Cross-run BENCH trend: every committed ``BENCH_*.json`` under
    ``--results``, one row per headline series, latest-vs-previous soft
    gate (``--strict`` turns a regression into exit 1)."""
    from repro.obs.ledger import (
        bench_trend,
        load_bench_history,
        render_trend,
        trend_regressions,
    )

    docs = load_bench_history(args.results)
    trend = bench_trend(docs)
    print(render_trend(trend))
    if not trend:
        return 0
    regressions = trend_regressions(trend, tolerance=args.tolerance)
    if regressions:
        print(
            f"\ntrend gate: latest point regressed (tolerance "
            f"{args.tolerance:.0%})",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1 if args.strict else 0
    print(f"\ntrend gate: pass (tolerance {args.tolerance:.0%})")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Result-cache maintenance: entry/journal statistics (the default)
    and explicit pruning.  ``--prune`` removes stale writer temp files;
    adding ``--journals`` also reclaims aged sweep journals and event logs
    — never done implicitly, since journals are what make an interrupted
    sweep resumable."""
    import json

    from repro.exec.cache import ResultCache

    cache = ResultCache(args.dir)
    removed = None
    if args.prune:
        removed = cache.prune(ttl=args.ttl, journals=args.journals)
    elif args.journals:
        raise SystemExit("--journals only makes sense with --prune")
    stats = cache.stats()
    if args.json:
        if removed is not None:
            stats = dict(stats, pruned=removed)
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache {cache.root}")
    print(f"  entries:       {stats['entries']}")
    print(f"  hits/misses:   {stats['hits']}/{stats['misses']} "
          f"(this process)")
    print(f"  corrupt:       {stats['corrupt']}")
    print(f"  journal files: {stats['journal_files']} "
          f"({stats['journal_bytes']} bytes)")
    if removed is not None:
        scope = "temp files + journals" if args.journals else "temp files"
        print(f"  pruned:        {removed} stale file(s) ({scope})")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service daemon: the versioned HTTP wire API
    (``repro.api.request/v1`` in, ``repro.api.result/v1`` out) over the
    multi-tenant job queue and one shared warm result cache.  SIGTERM or
    Ctrl-C drains in-flight jobs, records a ``serve`` ledger line, and
    exits cleanly.  See ``docs/serving.md``."""
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        sweep_jobs=args.jobs,
        cache_dir=args.cache,
        max_backlog=args.max_backlog,
        tenant_quota=args.tenant_quota,
        port_file=args.port_file,
        drain_timeout=args.drain_timeout,
    )
    return run_server(config)


def _submit_scenario(args: argparse.Namespace):
    """The scenario a ``submit`` invocation describes: ``--file`` holds a
    canonical ``Scenario`` mapping (exactly what ``Scenario.canonical()``
    emits); otherwise the standard ``--env/--nodes/--group`` flags name a
    Table 2 cell, same as ``repro simulate``."""
    from repro.api import Scenario

    if args.file:
        import json

        with open(args.file, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            return Scenario.from_canonical(payload)
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"repro: invalid scenario file {args.file}: {exc}")
    from repro.bench.runner import case_scenario

    return case_scenario(
        args.env, args.nodes, PARAM_GROUPS[args.group], full=not args.base,
        fidelity=_parse_fidelity(args.fidelity),
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Send one scenario to a serve daemon over the wire API and print
    the served result — byte-identical to a local ``repro simulate``
    of the same scenario (that identity is the service's contract)."""
    import json

    from repro.client import ServeClient, ServeClientError

    scenario = _submit_scenario(args)
    client = ServeClient(args.url, tenant=args.tenant, timeout=args.timeout)
    try:
        document = client.run_document(scenario, priority=args.priority)
    except ServeClientError as exc:
        print(f"repro: submit failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"repro: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    from repro.api.schema import result_from_document

    result = result_from_document(document)
    print(f"served by {args.url} (tenant {args.tenant!r})")
    print(f"scenario:    {scenario.describe()}")
    print(f"TFLOPS/GPU:  {result.tflops:.1f}")
    print(f"throughput:  {result.throughput:.2f} samples/s")
    print(f"iteration:   {result.iteration_time:.3f} s")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Daemon health (no job id), one job's status document (job id), or
    its live flight-recorder event stream (``--follow``)."""
    import json

    from repro.client import ServeClient, ServeClientError

    client = ServeClient(args.url, tenant=args.tenant)
    try:
        if args.job is None:
            health = client.healthz()
            if args.json:
                print(json.dumps(health, indent=2, sort_keys=True))
                return 0
            state = "draining" if health.get("draining") else "serving"
            print(f"{args.url}: {state}")
            print(f"  queued jobs:  {health.get('queue_depth', 0)}")
            print(f"  active jobs:  {health.get('active_jobs', 0)}")
            print(f"  total jobs:   {health.get('jobs', 0)}")
            print(f"  started:      {health.get('started', '')}")
            return 0
        if args.follow:
            for event in client.events(args.job):
                print(json.dumps(event, sort_keys=True))
            return 0
        doc = client.job(args.job)
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        print(f"job {doc.get('id')} ({doc.get('kind')}, "
              f"tenant {doc.get('tenant')!r}): {doc.get('state')}")
        for key in ("submitted", "started", "finished"):
            if doc.get(key):
                print(f"  {key + ':':<11}{doc[key]}")
        stats = doc.get("stats") or {}
        if stats:
            print("  stats:     " + ", ".join(
                f"{k}={v}" for k, v in sorted(stats.items())))
        if doc.get("error"):
            print(f"  error:     {doc['error']}")
        return 0
    except ServeClientError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"repro: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Holmes: heterogeneous-NIC distributed training simulator",
        epilog="run 'python -m repro COMMAND --help' for per-command options",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help=COMMANDS["simulate"])
    _add_machine_args(p)
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS), default=1,
                   help="Table 2 parameter group (default 1)")
    p.add_argument("--base", action="store_true",
                   help="disable Eq. 2 partition and overlapped optimizer")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.api.result/v1 wire document instead "
                        "of the human summary (identical to what the serve "
                        "daemon returns for this scenario)")
    _add_fidelity_arg(p, "the iteration")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help=COMMANDS["compare"])
    _add_machine_args(p)
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS), default=3)
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="parallel worker processes (0 = one per CPU)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("plan", help=COMMANDS["plan"])
    p.add_argument("--env", choices=ENV_CHOICES, default="hybrid",
                   help="NIC environment (default hybrid)")
    p.add_argument("--nodes", type=int, default=4,
                   help="total node count (default 4)")
    p.add_argument("--gpus-per-node", type=int, default=8,
                   help="GPUs per node (default 8)")
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS),
                   default=None,
                   help="plan a Table 2 parameter group (model + workload; "
                        "overrides the custom-model flags)")
    p.add_argument("--layers", type=int, default=36,
                   help="custom model: transformer layers (default 36)")
    p.add_argument("--hidden", type=int, default=4096,
                   help="custom model: hidden size (default 4096)")
    p.add_argument("--heads", type=int, default=32,
                   help="custom model: attention heads (default 32)")
    p.add_argument("--seq-length", type=int, default=2048,
                   help="custom model: sequence length (default 2048)")
    p.add_argument("--batch", type=int, default=1536,
                   help="global batch size (default 1536)")
    p.add_argument("--micro-batch", type=int, default=4,
                   help="microbatch size (default 4)")
    p.add_argument("--budget", type=int, default=32,
                   help="candidates simulated in the search phase after "
                        "the closed-form oracle prune (default 32)")
    p.add_argument("--top-k", type=int, default=4,
                   help="search survivors confirmed at the executed tier "
                        "(default 4)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="parallel worker processes for both sweep phases "
                        "(0 = one per CPU)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="result-cache directory; a warm re-plan over the "
                        "same space is near-free")
    p.add_argument("--resume", action="store_true",
                   help="journal sweep progress durably; an interrupted "
                        "plan re-executes only unfinished candidates")
    p.add_argument("--progress", action="store_true",
                   help="render live sweep progress on stderr")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON repro.plan.report/v1 here")
    _add_fidelity_arg(p, "the search phase (the confirm phase always "
                         "re-runs the top-k at 'executed'; plan defaults "
                         "to 'auto')")
    p.set_defaults(fn=cmd_plan, fidelity="auto")

    p = sub.add_parser("topology", help=COMMANDS["topology"])
    _add_machine_args(p)
    p.add_argument("--save", metavar="FILE", default=None,
                   help="also write the machine as a JSON file")
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser("reproduce", help=COMMANDS["reproduce"])
    p.add_argument("--only", default=None, metavar="NAME",
                   help="one experiment, e.g. table3_env_sweep or fig6_frameworks")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("check", help=COMMANDS["check"])
    _add_machine_args(p)
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS), default=1)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("trace", help=COMMANDS["trace"])
    _add_machine_args(p)
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS), default=1)
    p.add_argument("-o", "--output", default="holmes_trace.json")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("faults", help=COMMANDS["faults"])
    _add_machine_args(p)
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS), default=1)
    p.add_argument("--event", action="append", metavar="KIND:k=v,...",
                   help="explicit fault, e.g. nic-flap:node=0,time=0.005 "
                        "(repeatable; kinds: nic-flap, link-degrade, "
                        "packet-loss, node-crash, straggler)")
    p.add_argument("--random", dest="random_events", type=int, default=0,
                   metavar="N", help="add N seeded random faults")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --random and --campaign (default 0)")
    p.add_argument("--horizon", type=float, default=None,
                   help="random-fault window in seconds "
                        "(default: the healthy iteration time)")
    p.add_argument("--campaign", type=float, default=None, metavar="SECONDS",
                   help="also simulate an elastic campaign of this length")
    p.add_argument("--node-mtbf", type=float, default=200_000.0,
                   help="per-node MTBF in seconds (default 200000)")
    p.add_argument("--repair-time", type=float, default=600.0,
                   help="node repair time in seconds (default 600)")
    p.add_argument("--reconfig-time", type=float, default=60.0,
                   help="elastic reconfiguration cost in seconds (default 60)")
    p.add_argument("--checkpoint-time", type=float, default=30.0,
                   help="checkpoint write cost in seconds (default 30)")
    p.add_argument("--outage-prob", type=float, default=0.0,
                   help="probability a failure is a correlated cluster outage")
    p.add_argument("--outage-size", type=int, default=2,
                   help="nodes lost in a correlated outage (default 2)")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("profile", help=COMMANDS["profile"])
    _add_machine_args(p)
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS), default=1)
    p.add_argument("--event", action="append", metavar="KIND:k=v,...",
                   help="profile under faults, e.g. straggler:rank=0,factor=3 "
                        "(repeatable; same syntax as the faults command)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON profile report here")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="also export a Chrome trace with utilization "
                        "counter tracks and fault markers")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("validate", help=COMMANDS["validate"])
    p.add_argument("--scenarios", type=int, default=25, metavar="N",
                   help="number of seeded random scenarios (default 25)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario-sampling seed (default 0)")
    p.add_argument("--relation", action="append", metavar="NAME",
                   help="check only this relation (repeatable; default all); "
                        "e.g. bandwidth_monotonic, seed_replay")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="parallel worker processes for the relation sweep "
                        "(0 = one per CPU; results identical to serial)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-check wall-clock timeout for the parallel "
                        "relation sweep (hung workers are killed and the "
                        "check retried once)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON conformance report here")
    p.add_argument("--progress", action="store_true",
                   help="render live relation-sweep progress on stderr")
    _add_fidelity_arg(p, "every sampled scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("bench", help=COMMANDS["bench"])
    p.add_argument("-j", "--jobs", type=int, default=8,
                   help="worker processes for the parallel sweep leg "
                        "(default 8; 0 = one per CPU)")
    p.add_argument("--repeats", type=int, default=3,
                   help="microbenchmark repeats, best-of (default 3)")
    p.add_argument("--fast", action="store_true",
                   help="4-cell sweep instead of the 48-cell Table 3 grid "
                        "(the CI bench-fast configuration)")
    p.add_argument("--micro-only", action="store_true",
                   help="run only the microbenchmark suite")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-cell wall-clock timeout: a hung cell is "
                        "killed, retried, and at worst quarantined instead "
                        "of stalling the bench")
    p.add_argument("--resume", action="store_true",
                   help="journal sweep progress durably and, after a crash "
                        "or Ctrl-C, re-execute only unfinished cells")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON document here "
                        "(default BENCH_<date>.json unless --check)")
    p.add_argument("--check", metavar="REF", default=None,
                   help="gate against a reference document; exit 1 on "
                        "regression beyond --tolerance")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="allowed normalized slowdown vs reference "
                        "(default 0.10)")
    p.add_argument("--progress", action="store_true",
                   help="render live sweep progress (completed/failed/ETA) "
                        "on stderr")
    p.add_argument("--textfile", metavar="FILE", default=None,
                   help="refresh a Prometheus textfile-collector file from "
                        "the executor metrics during the sweep legs")
    _add_fidelity_arg(p, "every sweep cell")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("tail", help=COMMANDS["tail"])
    p.add_argument("path", metavar="JOURNAL|EVENTLOG|DIR",
                   help="a sweep journal (.jsonl), a flight-recorder event "
                        "log (.events.jsonl), or a directory holding them "
                        "(newest log wins)")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep polling for new records (tail -f)")
    p.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                   help="poll/render interval with --follow (default 0.5)")
    p.add_argument("--max-seconds", type=float, default=None,
                   metavar="SECONDS",
                   help="stop following after this much wall clock "
                        "(default: until sweep end or Ctrl-C)")
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser("runs", help=COMMANDS["runs"])
    p.add_argument("--ledger", metavar="FILE", default=None,
                   help="ledger file (default <cache-dir>/ledger.jsonl)")
    p.add_argument("-n", "--last", type=int, default=20, metavar="N",
                   help="show the last N runs (default 20)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw ledger records as JSON")
    p.set_defaults(fn=cmd_runs)

    p = sub.add_parser("report", help=COMMANDS["report"])
    p.add_argument("--trend", action="store_true",
                   help="render the cross-run BENCH trend (the default and "
                        "currently only view)")
    p.add_argument("--results", metavar="DIR", default="results",
                   help="directory of committed BENCH_*.json documents "
                        "(default results)")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="allowed latest-vs-previous move in the regressing "
                        "direction (default 0.10)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on a trend regression (default: report "
                        "only — the CI soft gate)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("cache", help=COMMANDS["cache"])
    p.add_argument("--dir", metavar="DIR", default=None,
                   help="cache root (default .repro-cache or "
                        "$REPRO_CACHE_DIR)")
    p.add_argument("--stats", action="store_true",
                   help="print entry and journal-debris statistics "
                        "(the default action)")
    p.add_argument("--prune", action="store_true",
                   help="remove stale writer temp files older than --ttl")
    p.add_argument("--journals", action="store_true",
                   help="with --prune, also remove sweep journals and "
                        "event logs older than --ttl (they hold resumable "
                        "sweep state, so this is never implicit)")
    p.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                   help="age floor for pruning (default 3600; 0 removes "
                        "all)")
    p.add_argument("--json", action="store_true",
                   help="emit the statistics as JSON")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("serve", help=COMMANDS["serve"])
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="bind port (default 8321; 0 picks an ephemeral "
                        "port — use --port-file to discover it)")
    p.add_argument("--port-file", metavar="FILE", default=None,
                   help="write the bound port here once listening (the "
                        "handshake for scripts that start the daemon "
                        "with --port 0)")
    p.add_argument("--workers", type=int, default=2,
                   help="runner threads draining the job queue (default 2)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes per sweep job (default 1; "
                        "0 = one per CPU)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="shared result-cache directory (default "
                        ".repro-cache or $REPRO_CACHE_DIR) — every tenant "
                        "hits this one warm cache")
    p.add_argument("--max-backlog", type=int, default=64,
                   help="service-wide queued-job ceiling; beyond it "
                        "submissions are shed with 429 (default 64)")
    p.add_argument("--tenant-quota", type=int, default=16,
                   help="per-tenant queued-job ceiling, enforced before "
                        "the backlog check (default 16)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for in-flight jobs on SIGTERM "
                        "before exiting anyway (default 30)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help=COMMANDS["submit"])
    p.add_argument("--url", default="http://127.0.0.1:8321",
                   help="serve daemon base URL "
                        "(default http://127.0.0.1:8321)")
    p.add_argument("--tenant", default="cli",
                   help="tenant name for quotas and accounting "
                        "(default 'cli')")
    p.add_argument("--file", metavar="FILE", default=None,
                   help="canonical Scenario JSON (as Scenario.canonical() "
                        "emits); overrides --env/--nodes/--group")
    p.add_argument("--nodes", type=int, default=4,
                   help="total node count (default 4)")
    p.add_argument("--env", choices=ENV_CHOICES, default="hybrid",
                   help="NIC environment (default hybrid)")
    p.add_argument("--group", type=int, choices=sorted(PARAM_GROUPS),
                   default=1, help="Table 2 parameter group (default 1)")
    p.add_argument("--base", action="store_true",
                   help="disable Eq. 2 partition and overlapped optimizer")
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority, lower runs first (default 0)")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="wall-clock budget for the served run (default 600)")
    p.add_argument("--json", action="store_true",
                   help="print the raw repro.api.result/v1 document")
    _add_fidelity_arg(p, "the served iteration")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help=COMMANDS["status"])
    p.add_argument("job", nargs="?", default=None, metavar="JOB_ID",
                   help="job to inspect (omit for daemon health)")
    p.add_argument("--url", default="http://127.0.0.1:8321",
                   help="serve daemon base URL "
                        "(default http://127.0.0.1:8321)")
    p.add_argument("--tenant", default="cli",
                   help="tenant name sent with the request (default 'cli')")
    p.add_argument("-f", "--follow", action="store_true",
                   help="stream the job's flight-recorder events as NDJSON "
                        "until it finishes")
    p.add_argument("--json", action="store_true",
                   help="emit the raw wire document")
    p.set_defaults(fn=cmd_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    first = next((a for a in argv if not a.startswith("-")), None)
    if first is not None and first not in COMMANDS:
        # a friendlier exit-2 than argparse's: name the close matches
        import difflib

        close = difflib.get_close_matches(first, sorted(COMMANDS), n=3)
        hint = f" — did you mean: {', '.join(close)}?" if close else ""
        print(f"repro: unknown command {first!r}{hint}", file=sys.stderr)
        print("run 'python -m repro --help' for the command list",
              file=sys.stderr)
        return 2
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FidelityError as exc:
        # a scenario the analytic tier cannot price is a usage error,
        # not a crash: surface the full reason list on one line
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
