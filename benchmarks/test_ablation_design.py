"""Ablation benches for the simulator's own design choices.

DESIGN.md commits to several modelling decisions (blocking p2p semantics,
a shared inter-cluster uplink, ring slowest-link collectives, the alpha
hyper-parameter, schedule selection).  Each bench here isolates one choice
and records its effect, so the mechanism behind every headline number is
auditable.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.api import Scenario, run
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.scenarios import ethernet_env, homogeneous_env, hybrid2_env
from repro.bench.tables import format_table
from repro.core.engine import TrainingSimulation
from repro.core.optimizer import STRATEGIES
from repro.core.scheduler import HolmesScheduler
from repro.hardware.nic import NICType
from repro.network.costmodel import CostModelConfig
from repro.network.fabric import Fabric


def _simulate(topology, group, **engine_kwargs):
    parallel = group.parallel_for(topology.world_size)
    plan = HolmesScheduler().plan(
        topology, parallel, group.model, partition_strategy="uniform"
    )
    return TrainingSimulation(
        plan, group.model, trace_enabled=False, **engine_kwargs
    ).run()


@pytest.mark.benchmark(group="ablation")
def test_blocking_p2p_ablation(benchmark, emit):
    """Synchronous vs asynchronous pipeline sends: on Ethernet the NIC
    queue wait lands on the critical path once per microbatch; on
    InfiniBand the transfer is too fast to matter."""

    def build():
        group = PARAM_GROUPS[1]
        out = {}
        for env_name, topo in (
            ("Ethernet", ethernet_env(4)),
            ("InfiniBand", homogeneous_env(4, NICType.INFINIBAND)),
        ):
            for mode in (True, False):
                result = _simulate(topo, group, blocking_p2p=mode)
                out[(env_name, mode)] = result.iteration_time
        return out

    times = run_once(benchmark, build)
    rows = [
        [env, round(times[(env, True)], 3), round(times[(env, False)], 3),
         f"{(times[(env, True)] / times[(env, False)] - 1) * 100:+.1f}%"]
        for env in ("Ethernet", "InfiniBand")
    ]
    emit(
        "ablation_blocking_p2p",
        [format_table(["Env", "blocking iter(s)", "async iter(s)", "delta"], rows)],
    )
    # Blocking must cost something on Ethernet, and nearly nothing on IB.
    assert times[("Ethernet", True)] > times[("Ethernet", False)]
    eth_penalty = times[("Ethernet", True)] / times[("Ethernet", False)] - 1
    ib_penalty = times[("InfiniBand", True)] / times[("InfiniBand", False)] - 1
    assert eth_penalty > 3 * max(ib_penalty, 1e-9)


@pytest.mark.benchmark(group="ablation")
def test_uplink_bandwidth_sensitivity(benchmark, emit):
    """The shared inter-cluster uplink is what separates Hybrid from the
    pure-RoCE environment; sweep its bandwidth."""

    def build():
        group = PARAM_GROUPS[1]
        topo = hybrid2_env(4)
        out = {}
        for uplink in (1e9, 2e9, 4.5e9, 10e9, 100e9):
            cc = CostModelConfig(inter_cluster_uplink=uplink)
            result = _simulate(topo, group, cost_config=cc)
            out[uplink] = result.metrics.tflops_per_gpu
        return out

    tflops = run_once(benchmark, build)
    rows = [[f"{u / 1e9:.1f} GB/s", round(v, 1)] for u, v in sorted(tflops.items())]
    emit(
        "ablation_uplink",
        [format_table(["Uplink bandwidth", "Hybrid TFLOPS"], rows)],
    )
    values = [tflops[u] for u in sorted(tflops)]
    assert values == sorted(values)  # monotone in uplink bandwidth
    # Diminishing returns: the last doubling buys less than the first.
    assert (values[1] - values[0]) > (values[-1] - values[-2])


@pytest.mark.benchmark(group="ablation")
def test_alpha_sweep(benchmark, emit):
    """Eq. 2's alpha around the paper's 1.05: the partition (and hence the
    performance) is insensitive in a wide band — the integer layer split
    saturates."""

    def build():
        group = PARAM_GROUPS[3]
        topo = hybrid2_env(8)
        parallel = group.parallel_for(64)
        out = {}
        for alpha in (0.9, 1.0, 1.05, 1.1, 1.3):
            plan = HolmesScheduler(alpha=alpha).plan(topo, parallel, group.model)
            result = TrainingSimulation(
                plan, group.model, optimizer=STRATEGIES["overlapped"],
                trace_enabled=False,
            ).run()
            out[alpha] = (plan.stage_layers, result.tflops)
        return out

    results = run_once(benchmark, build)
    rows = [
        [alpha, "/".join(map(str, layers)), round(tflops, 1)]
        for alpha, (layers, tflops) in sorted(results.items())
    ]
    emit("ablation_alpha", [format_table(["alpha", "Split", "TFLOPS"], rows)])
    best = max(v[1] for v in results.values())
    worst = min(v[1] for v in results.values())
    assert (best - worst) / best < 0.06  # stable within a few percent


@pytest.mark.benchmark(group="ablation")
def test_schedule_comparison(benchmark, emit):
    """1F1B vs GPipe vs interleaved on the same plan: identical work,
    different bubbles.  With many microbatches the three converge; the
    interleaved schedule only pays off when the bubble matters."""

    def build():
        out = {}
        for schedule, chunks in (("1f1b", 1), ("gpipe", 1), ("interleaved", 3)):
            result = run(Scenario.from_group(
                "ib", 4, 1, schedule=schedule, num_chunks=chunks,
                trace_enabled=False,
            ))
            out[schedule] = result.iteration_time
        return out

    times = run_once(benchmark, build)
    rows = [[name, round(t, 3)] for name, t in sorted(times.items(), key=lambda kv: kv[1])]
    emit("ablation_schedules", [format_table(["Schedule", "iteration (s)"], rows)])
    # All three complete the same work within a modest spread.
    assert max(times.values()) / min(times.values()) < 1.35


@pytest.mark.benchmark(group="ablation")
def test_hierarchical_vs_flat_allreduce(benchmark, emit):
    """Design note: the paper's stack uses NCCL's flat ring; a two-level
    NVLink+NIC schedule reduces NIC bytes per rank by 1/G.  Quantify what
    Holmes leaves on the table."""
    from repro.collectives.hierarchical import hierarchical_allreduce_time

    def build():
        out = {}
        for env_name, family in (
            ("InfiniBand", NICType.INFINIBAND),
            ("RoCE", NICType.ROCE),
        ):
            topo = homogeneous_env(4, family)
            fabric = Fabric(topo)
            ranks = list(range(32))
            nbytes = 4 << 30  # a 1B-parameter fp32 gradient buffer
            out[env_name] = (
                fabric.collective_time("allreduce", ranks, nbytes),
                hierarchical_allreduce_time(fabric, ranks, nbytes),
            )
        return out

    results = run_once(benchmark, build)
    rows = [
        [env, round(flat, 3), round(hier, 3), f"{flat / hier:.2f}x"]
        for env, (flat, hier) in results.items()
    ]
    emit(
        "ablation_hierarchical",
        [format_table(["Env", "flat ring (s)", "hierarchical (s)", "speedup"], rows)],
    )
    for flat, hier in results.values():
        assert hier < flat


@pytest.mark.benchmark(group="ablation")
def test_straggler_amplification(benchmark, emit):
    """Failure injection: a single slow GPU in a synchronous job costs far
    more than its share — and the cost grows with its slowdown factor."""
    def build():
        out = {}
        for factor in (1.0, 1.2, 1.5, 2.0):
            stragglers = {} if factor == 1.0 else {0: factor}
            result = run(Scenario.from_group(
                "ib", 4, 1, stragglers=stragglers, trace_enabled=False,
            ))
            out[factor] = result.iteration_time
        return out

    times = run_once(benchmark, build)
    baseline = times[1.0]
    rows = [
        [factor, round(t, 2), f"{(t / baseline - 1) * 100:+.1f}%"]
        for factor, t in sorted(times.items())
    ]
    emit(
        "ablation_stragglers",
        ["One slow GPU of 32 (PG1, InfiniBand, 4 nodes):",
         format_table(["slowdown", "iteration (s)", "vs healthy"], rows)],
    )
    values = [times[f] for f in sorted(times)]
    assert values == sorted(values)  # monotone in the slowdown factor
    # Amplification: a 2x-slow single GPU (1/32 of compute) costs far more
    # than the 1/32-weighted average (~3%) would suggest.
    assert times[2.0] / baseline > 1.15
