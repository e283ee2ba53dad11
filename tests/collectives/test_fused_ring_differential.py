"""Fused ring passes vs. the step-by-step reference they replaced.

The executor computes intra-node ring hops arithmetically, and NIC-crossing
edges too while a pass owns them; the remaining steps, and pipeline p2p,
go through the leaner send path.  Its contract is exactness: against
:class:`~tests.collectives.stepwise_reference.StepwiseExecutor` (the old
per-step loop over the old send path, kept here as a test-only reference)
every untraced result document is equal and every traced run records the
same multiset of spans.  Span *order* may differ, since held spans of
computed steps are recorded when their member completes.
"""

import dataclasses
import random

import pytest

from repro.api import Scenario, simulate, summarize
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.collectives.executor import CollectiveExecutor
from repro.collectives.p2p import ChannelRegistry
from repro.core.engine import TrainingSimulation
from repro.core.scheduler import HolmesScheduler
from repro.errors import InvariantViolation
from repro.faults.plan import FaultEvent, FaultKind
from repro.hardware.nic import NICType
from repro.hardware.presets import homogeneous_topology
from repro.network.costmodel import CollectiveCostModel
from repro.network.fabric import Fabric
from repro.simcore.engine import SimEngine
from repro.simcore.process import Timeout
from repro.simcore.trace import TraceRecorder
from repro.units import MB
from repro.validate.hooks import ValidationHooks
from repro.validate.replay import metrics_digest, span_token
from repro.validate.scenarios import ENV_BUILDERS, ScenarioSpec

from tests.collectives.stepwise_reference import StepwiseExecutor, stepwise_engine

ENVS = ("ib", "roce", "ethernet", "hybrid")


def _both(scenario):
    """(fused, stepwise) documents and sorted span tokens of one scenario."""
    out = []
    for reference in (False, True):
        if reference:
            with stepwise_engine():
                result = simulate(scenario)
        else:
            result = simulate(scenario)
        doc = summarize(scenario, result).to_dict()
        out.append((doc, sorted(span_token(s) for s in result.trace.spans)))
    return out


def assert_same_run(scenario):
    (fused, fused_spans), (ref, ref_spans) = _both(scenario)
    if not scenario.trace_enabled:
        assert fused == ref
        return
    # the trace digest hashes spans in record order, which may differ
    fused.pop("trace_digest")
    ref.pop("trace_digest")
    assert fused == ref
    assert fused_spans == ref_spans


def assert_same_untraced_and_traced(scenario):
    assert_same_run(dataclasses.replace(scenario, trace_enabled=False))
    assert_same_run(dataclasses.replace(scenario, trace_enabled=True))


def curve_scenario(world, **overrides):
    """A point of the executed weak-scaling curve the benchmark runs:
    hybrid, group-1 model, t1 p2, 4-sample micro-batches, 8 per replica."""
    model = PARAM_GROUPS[1].model
    fields = dict(
        env="hybrid", nodes=world // 8,
        num_layers=model.num_layers, hidden_size=model.hidden_size,
        num_attention_heads=model.num_attention_heads,
        seq_length=model.seq_length, vocab_size=model.vocab_size,
        tensor=1, pipeline=2, micro_batch_size=4, num_microbatches=8,
        trace_enabled=False,
    )
    fields.update(overrides)
    return Scenario(**fields)


# --------------------------------------------------------------------- #
# whole simulations
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("env", ENVS)
@pytest.mark.parametrize("group", [1, 3])
def test_table3_cells(env, group):
    assert_same_run(case_scenario(env, 4, group))


@pytest.mark.parametrize("env", ENVS)
def test_traced_table3_cells(env):
    assert_same_run(case_scenario(env, 4, 2, trace_enabled=True))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_faulted_validated_runs(seed):
    env = ENVS[seed]
    assert_same_run(case_scenario(
        env, 4, 1 + seed, fault_seed=seed, validate=True,
        trace_enabled=bool(seed % 2),
    ))


@pytest.mark.parametrize("fraction", [0.3, 0.8])
def test_crash_aborted_traced_run(fraction):
    """A node crash stops the run mid-collective: exactly the spans of the
    steps that ended by then are recorded (held intra-node spans included,
    via ``CollectiveExecutor.settle``)."""
    iteration = simulate(case_scenario("hybrid", 4, 1)).iteration_time
    crash = FaultEvent(
        time=iteration * fraction, kind=FaultKind.NODE_CRASH, node=1
    )
    scenario = case_scenario(
        "hybrid", 4, 1, trace_enabled=True, fault_events=(crash,)
    )
    assert simulate(scenario).aborted
    assert_same_run(scenario)


@pytest.mark.parametrize("env", ["split-ib", "split-roce"])
def test_cross_cluster_uplinks(env):
    assert_same_run(case_scenario(env, 4, 1))
    assert_same_run(case_scenario(env, 4, 2, trace_enabled=True, validate=True))


@pytest.mark.parametrize(
    "framework", ["holmes-full", "megatron-llama", "megatron-deepspeed"]
)
def test_overlapped_bucket_presets(framework):
    scenario = Scenario.from_group(
        "hybrid", 4, PARAM_GROUPS[1], framework=framework, trace_enabled=True,
    )
    assert_same_run(scenario)


def test_tied_embeddings_and_stragglers():
    assert_same_run(case_scenario(
        "roce", 4, 1, tie_embeddings=True, stragglers=((3, 1.5),),
        trace_enabled=True,
    ))


# --------------------------------------------------------------------- #
# owned NIC-crossing edges and the cases that demote them
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("world", [32, 64])
def test_executed_curve_points(world):
    """Every NIC edge of the benchmark's curve is ownable: the pass prices
    them itself once the pipeline senders have joined."""
    assert_same_untraced_and_traced(curve_scenario(world))


def test_two_rings_per_nic():
    """t=2 puts two DP rings through every NIC: no edge is ownable."""
    assert_same_untraced_and_traced(curve_scenario(
        32, env="ib", tensor=2, pipeline=2, num_layers=8,
    ))


def test_overlapped_buckets_demote_every_edge():
    """holmes-full issues gradient buckets as concurrent passes per ring."""
    assert_same_untraced_and_traced(
        curve_scenario(32, framework="holmes-full")
    )


def test_cross_cluster_ring():
    """p1 stretches each DP ring over both clusters of the hybrid machine:
    its uplink edges stay sends, its in-cluster NIC edges are owned."""
    assert_same_untraced_and_traced(curve_scenario(32, pipeline=1, num_layers=8))


def test_nic_flap_mid_pass():
    """A NIC flap in the middle of the gradient sync (any fault plan
    demotes every edge; the flap re-resolves pairs to TCP and charges
    rebuilds)."""
    trace = simulate(curve_scenario(32, trace_enabled=True)).trace
    syncs = [s for s in trace.spans if s.label.startswith("coll:dp")]
    start = min(s.start for s in syncs)
    end = max(s.end for s in syncs)
    flap = FaultEvent(
        time=(start + end) / 2, kind=FaultKind.NIC_FLAP, node=1,
        duration=(end - start) / 10,
    )
    assert_same_untraced_and_traced(
        curve_scenario(32, fault_events=(flap,), validate=True)
    )


def test_straggler_demotes_ownership():
    assert_same_untraced_and_traced(curve_scenario(32, stragglers=((5, 1.3),)))


def _engine_run(topo, group, traced, **engine_kwargs):
    """A TrainingSimulation run (for knobs a Scenario does not carry):
    its metrics digest, iteration time and sorted span tokens."""
    parallel = group.parallel_for(topo.world_size)
    plan = HolmesScheduler().plan(
        topo, parallel, group.model, partition_strategy="uniform"
    )
    result = TrainingSimulation(
        plan, group.model, trace_enabled=traced, **engine_kwargs
    ).run()
    spans = sorted(span_token(s) for s in result.trace.spans)
    return metrics_digest(result.metrics), result.iteration_time, spans


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("env", ["ethernet", "ib"])
def test_asynchronous_p2p(env, traced):
    """Asynchronous pipeline sends may still hold a NIC when a member joins
    the gradient sync: no ring edge with p2p senders on its NIC is owned."""
    topo = ENV_BUILDERS[env](4, 8)
    fused = _engine_run(topo, PARAM_GROUPS[1], traced, blocking_p2p=False)
    with stepwise_engine():
        ref = _engine_run(topo, PARAM_GROUPS[1], traced, blocking_p2p=False)
    assert fused == ref


# --------------------------------------------------------------------- #
# standalone collectives (hierarchical G > 1, staggered and concurrent ops)
# --------------------------------------------------------------------- #


def _run_ops(executor_cls, topo, ops, traced, degrade=None):
    """Run ``ops`` — ``(op, ranks, nbytes, tag, arrivals)`` with one arrival
    delay per rank — on one fabric; returns the makespan, every window and
    the sorted span tokens."""
    engine = SimEngine()
    fabric = Fabric(topo, engine=engine)
    if degrade is not None:
        fabric.health.set_bandwidth_factor(*degrade)
    trace = TraceRecorder() if traced else None
    executor = executor_cls(fabric, ChannelRegistry(engine), trace=trace)

    def member(op, ranks, rank, nbytes, tag, delay):
        if delay:
            yield Timeout(delay)
        yield from executor.run_op(op, ranks, rank, nbytes, tag)

    for op, ranks, nbytes, tag, arrivals in ops:
        for rank, delay in zip(ranks, arrivals):
            engine.process(member(op, ranks, rank, nbytes, tag, delay))
    makespan = engine.run()
    windows = {
        tag: (dict(w.starts), dict(w.ends)) for tag, w in executor.windows.items()
    }
    spans = sorted(span_token(s) for s in trace.spans) if traced else []
    assert not executor._passes
    return makespan, windows, spans


def _sample_ops(rng, topo):
    world = topo.world_size
    ops = []
    for k in range(rng.randint(1, 3)):
        op = rng.choice(
            ["reduce_scatter", "allgather", "allreduce", "hierarchical_allreduce"]
        )
        if op == "hierarchical_allreduce":
            ranks = list(range(world))
        else:
            ranks = sorted(rng.sample(range(world), rng.randint(2, world)))
        arrivals = [rng.choice([0.0, 0.0, 1e-4, 3e-3]) for _ in ranks]
        nbytes = float(rng.choice([4 * MB, 64 * MB, 300 * MB]))
        ops.append((op, ranks, nbytes, f"op{k}", arrivals))
    return ops


@pytest.mark.parametrize("seed", range(12))
def test_sampled_standalone_ops(seed):
    rng = random.Random(seed)
    env = rng.choice(ENVS + ("split-ib",))
    nodes = rng.choice([2, 4] if env in ("hybrid", "split-ib") else [2, 3, 4])
    topo = ENV_BUILDERS[env](nodes, rng.choice([2, 4]))
    ops = _sample_ops(rng, topo)
    degrade = (0, NICType.INFINIBAND, 0.5) if seed % 3 == 0 else None
    traced = seed % 2 == 0
    fused = _run_ops(CollectiveExecutor, topo, ops, traced, degrade)
    ref = _run_ops(StepwiseExecutor, topo, ops, traced, degrade)
    assert fused == ref


@pytest.mark.parametrize("nodes,gpn", [(2, 2), (2, 4), (4, 4), (3, 8)])
def test_hierarchical_allreduce_g_above_one(nodes, gpn):
    topo = homogeneous_topology(nodes, NICType.ROCE, gpus_per_node=gpn)
    ranks = list(range(nodes * gpn))
    ops = [
        ("hierarchical_allreduce", ranks, 256.0 * MB, "h0", [0.0] * len(ranks)),
        ("hierarchical_allreduce", ranks, 64.0 * MB, "h1",
         [1e-3 * (r % 3) for r in ranks]),
    ]
    fused = _run_ops(CollectiveExecutor, topo, ops, traced=True)
    ref = _run_ops(StepwiseExecutor, topo, ops, traced=True)
    assert fused == ref


# --------------------------------------------------------------------- #
# the sanitizer still sees intra-node steps
# --------------------------------------------------------------------- #


def test_tampered_intra_node_step_is_caught(monkeypatch):
    """Intra-node hops are no longer events, yet a corrupted intra-node
    step price is still audited where the pass prices the edge."""
    spec = ScenarioSpec(
        name="tiny", env="hybrid", nodes=2, gpus_per_node=4, num_layers=4,
        hidden=256, heads=4, tensor=1, pipeline=2, data=4,
        micro_batch_size=1, num_microbatches=4,
    )
    original = CollectiveCostModel.collective_step_time

    def corrupted(self, nbytes, edge, messages=1):
        price = original(self, nbytes, edge, messages)
        return float("nan") if edge.kind.is_intra_node else price

    monkeypatch.setattr(CollectiveCostModel, "collective_step_time", corrupted)
    with pytest.raises(InvariantViolation) as exc_info:
        spec.run(validation=ValidationHooks())
    assert exc_info.value.invariant == "causality.duration_sane"
    assert exc_info.value.context["what"] == "collective_step_time"
