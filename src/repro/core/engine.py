"""The training-step simulator.

:class:`TrainingSimulation` executes one training iteration of the planned
configuration as a discrete-event simulation:

- every physical GPU rank runs a process executing its pipeline schedule
  (forward/backward compute as timed events, activations and gradients as
  point-to-point transfers through shared per-node NIC resources);
- tensor-parallel communication is priced into each op's duration (NVLink
  ring all-reduces per layer);
- gradient synchronisation is *executed*: each data-parallel group runs
  its strategy's bucket plan as per-step ring collectives on the same
  event fabric (:mod:`repro.collectives.executor`) — overlappable ops are
  issued in the background as backward compute produces gradient buckets,
  the rest run at the pipeline flush — so slowest-link dominance,
  DP-vs-pipeline NIC contention, fault effects, and the hidden/exposed
  split are all *measured* outcomes of the event kernel;
- the iteration time is the makespan, from which the paper's TFLOPS and
  throughput metrics follow.

The simulation is deterministic: same plan, same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.collectives.executor import CollectiveExecutor
from repro.collectives.p2p import ChannelRegistry, recv, send
from repro.core.metrics import IterationMetrics, compute_metrics
from repro.faults.injector import FaultInjector, FaultReport
from repro.faults.plan import FaultPlan
from repro.core.nic_selection import NICSelectionAudit, audit_parallel_groups
from repro.core.optimizer import STRATEGIES, OptimizerStrategy
from repro.core.scheduler import TrainingPlan
from repro.errors import ConfigurationError, FidelityError, SimulationError
from repro.model.config import GPTConfig
from repro.model.layers import LayerKind, LayerSpec, build_layer_stack
from repro.model.memory import activation_message_bytes, tp_allreduce_bytes
from repro.network.contention import (
    FIDELITY_MODES,
    FidelityPolicy,
    ownable_ring_edges,
)
from repro.network.costmodel import CostModelConfig
from repro.network.fabric import Fabric
from repro.obs.attribution import AttributionReport, Category, attribute_iteration
from repro.obs.registry import MetricsRegistry
from repro.schedule.interleaved import interleaved_1f1b
from repro.schedule.microbatch import OpKind, PipelineOp, validate_schedule
from repro.schedule.pipeline import gpipe, one_f_one_b
from repro.simcore.engine import SimEngine
from repro.simcore.process import AllOf, Timeout
from repro.simcore.trace import TraceRecorder

#: TP all-reduce count per transformer layer: 2 in forward, 4 in backward
#: (2 for the gradient pass + 2 repeated by activation recomputation).
TP_ALLREDUCES_FORWARD = 2
TP_ALLREDUCES_BACKWARD = 4

#: Fixed per-iteration overhead (seconds): optimizer-step arithmetic, data
#: loading, kernel-launch and framework bookkeeping — everything a real
#: Megatron iteration pays that is neither GEMM compute nor communication.
#: Calibrated against the paper's Table 1 anchors.
ITERATION_OVERHEAD = 0.45

#: Cap on the number of background gradient buckets an overlapped strategy
#: issues per DP group.  Real Megatron-LLaMA fuses gradients into large
#: buckets precisely to bound per-bucket launch overhead; for the DES the
#: cap bounds event count while leaving enough granularity for buckets to
#: interleave with (and hide behind) the backward pass.
OVERLAP_MAX_BUCKETS = 8


def _union_duration(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass(frozen=True)
class _DPGroupMeta:
    """Precomputed per-DP-group execution parameters."""

    stage: int
    ring: Tuple[int, ...]
    shard_params: int
    #: per-bucket parameter counts for background (overlappable) ops;
    #: empty when the strategy has no overlappable ops or no comm happens.
    bucket_params: Tuple[int, ...]


@dataclass(frozen=True)
class ChunkWork:
    """Per-(stage, chunk) compute/communication costs for one microbatch."""

    forward_time: float
    backward_time: float
    params_per_rank: int  # model slice parameters after TP division


@dataclass
class IterationResult:
    """Everything a benchmark needs from one simulated iteration."""

    plan: TrainingPlan
    model: GPTConfig
    metrics: IterationMetrics
    trace: TraceRecorder
    audit: NICSelectionAudit
    #: per-stage gradient-sync component durations (seconds)
    sync_times: List[Dict[str, float]]
    optimizer_name: str
    #: degradation accounting when a fault plan was injected (None otherwise)
    faults: Optional[FaultReport] = None
    #: True when a node crash aborted the iteration before completion
    aborted: bool = False
    #: virtual-time end of the iteration before the fixed framework
    #: overhead (``iteration_time = makespan + overhead``)
    makespan: float = 0.0
    overhead: float = 0.0
    #: critical-path time-loss budget (None when tracing was disabled)
    attribution: Optional[AttributionReport] = None
    #: observability registry the fabric/injector/engine published into
    registry: Optional[MetricsRegistry] = None
    #: the strategy's gradient-reducing collective, resolved structurally
    #: from its sync ops (``reduce_scatter`` for sharded strategies,
    #: ``allreduce`` otherwise)
    primary_sync_op: str = ""

    @property
    def iteration_time(self) -> float:
        return self.metrics.iteration_time

    @property
    def tflops(self) -> float:
        return self.metrics.tflops_per_gpu

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    def reduce_scatter_time(self) -> float:
        """Mean measured grads-reduce-scatter duration across stages
        (Figure 3's quantity); for non-sharded strategies this is the
        gradient all-reduce.  The op is resolved structurally from the
        active strategy (:attr:`primary_sync_op`), not by substring
        matching on the result keys."""
        key = self.primary_sync_op
        if not key:  # defensive: results built without a strategy
            key = "reduce_scatter" if any(
                "reduce_scatter" in s for s in self.sync_times
            ) else "allreduce"
        values = [s[key] for s in self.sync_times if key in s]
        return sum(values) / len(values) if values else 0.0


class TrainingSimulation:
    """Simulates training iterations for one :class:`TrainingPlan`.

    Everything beyond ``(plan, model)`` is keyword-only.
    """

    def __init__(
        self,
        plan: TrainingPlan,
        model: GPTConfig,
        *,
        optimizer: OptimizerStrategy = STRATEGIES["distributed"],
        schedule: str = "1f1b",
        num_chunks: int = 1,
        cost_config: Optional[CostModelConfig] = None,
        force_ethernet: bool = False,
        scatter_gather: bool = True,
        trace_enabled: bool = True,
        iteration_overhead: float = ITERATION_OVERHEAD,
        blocking_p2p: bool = True,
        recompute_activations: bool = True,
        stragglers: Optional[Dict[int, float]] = None,
        tie_embeddings: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
        validation: Optional[object] = None,
        fidelity: str = "executed",
    ) -> None:
        """``blocking_p2p`` mirrors Megatron's synchronous
        ``batch_isend_irecv`` semantics: a rank waits for its inter-stage
        transfer (including its turn in the node NIC queue) before starting
        the next op.  This is what makes slow-NIC pipelines pay a
        per-microbatch toll; set ``False`` for fully asynchronous sends."""
        self.plan = plan
        self.model = model
        self.optimizer = optimizer
        self.schedule_kind = schedule
        self.num_chunks = num_chunks
        self.cost_config = cost_config
        self.force_ethernet = force_ethernet
        self.scatter_gather = scatter_gather
        self.trace_enabled = trace_enabled
        self.blocking_p2p = blocking_p2p
        self.recompute_activations = recompute_activations
        #: failure injection: physical rank -> compute slowdown factor
        #: (2.0 = that GPU runs at half speed: thermal throttling, a sick
        #: HBM stack, a noisy neighbour).  Synchronous training makes one
        #: straggler everyone's problem — this knob quantifies by how much.
        #: Megatron ties the output logits to the token embedding, which
        #: requires an extra all-reduce of the embedding gradients between
        #: each pipeline group's first and last stage every iteration — a
        #: transfer that crosses the *pipeline* transport (i.e. the slow
        #: inter-cluster Ethernet under Holmes).  Off by default (untied
        #: embeddings, Megatron's --untie-embeddings-and-output-weights);
        #: enable to study the cost.
        self.tie_embeddings = tie_embeddings
        #: timed in-simulation faults (NIC flaps, loss, crashes, ...); the
        #: plan is deterministic data — replaying it reproduces the run
        #: byte-identically.  Validated against the plan's topology here so
        #: misconfigured plans fail before any simulation work happens.
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.validate_against(plan.topology)
        #: shared observability registry; a private one is created per run
        #: when the caller does not supply one.
        self.metrics_registry = metrics_registry
        #: opt-in invariant sanitizer (:class:`repro.validate.ValidationHooks`);
        #: threaded through engine, fabric, and trace when set, checking
        #: causality, resource capacity, byte conservation, and span
        #: well-formedness as events execute.  ``None`` (the default) keeps
        #: the hot path free of any per-event hook dispatch.
        self.validation = validation
        #: fidelity tier of this simulation ("executed" | "analytic" |
        #: "auto"); see :class:`repro.network.contention.FidelityPolicy`
        #: for the decision rules "auto" applies per span.
        if fidelity not in FIDELITY_MODES:
            raise FidelityError(
                f"unknown fidelity mode {fidelity!r}; choose from "
                f"{FIDELITY_MODES}"
            )
        self.fidelity = fidelity
        self.stragglers: Dict[int, float] = dict(stragglers or {})
        for rank, factor in self.stragglers.items():
            if factor < 1.0:
                raise ConfigurationError(
                    f"straggler factor for rank {rank} must be >= 1: {factor}"
                )
        if iteration_overhead < 0:
            raise ConfigurationError(
                f"iteration_overhead must be >= 0: {iteration_overhead}"
            )
        self.iteration_overhead = iteration_overhead

        parallel = plan.parallel
        if num_chunks < 1:
            raise ConfigurationError(f"num_chunks must be >= 1: {num_chunks}")
        if schedule not in ("1f1b", "gpipe", "interleaved"):
            raise ConfigurationError(f"unknown schedule: {schedule!r}")
        if schedule != "interleaved" and num_chunks != 1:
            raise ConfigurationError(
                f"schedule {schedule!r} does not support model chunks"
            )
        min_layers = parallel.pipeline * num_chunks
        if model.num_layers < min_layers:
            raise ConfigurationError(
                f"model has {model.num_layers} layers but p*v = {min_layers}"
            )

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #

    def _build_schedule(self) -> List[List[PipelineOp]]:
        p = self.plan.parallel.pipeline
        m = self.plan.parallel.num_microbatches
        if self.schedule_kind == "1f1b":
            sched = one_f_one_b(p, m)
        elif self.schedule_kind == "gpipe":
            sched = gpipe(p, m)
        else:
            sched = interleaved_1f1b(p, m, self.num_chunks)
        validate_schedule(sched, m, self.num_chunks)
        return sched

    def _chunk_layers(self) -> List[List[List[LayerSpec]]]:
        """Assign layer specs to (stage, chunk) slots.

        Transformer layers follow the plan's per-stage counts, split evenly
        across chunks within each stage; the embedding joins (0, 0) and the
        logit head joins the last (stage, chunk).
        """
        stack = build_layer_stack(
            self.model,
            self.plan.parallel.micro_batch_size,
            self.recompute_activations,
        )
        embedding, logit = stack[0], stack[-1]
        transformer = stack[1:-1]
        p = self.plan.parallel.pipeline
        v = self.num_chunks
        counts = list(self.plan.stage_layers)
        if sum(counts) != len(transformer):
            raise ConfigurationError(
                f"plan partitions {sum(counts)} layers but model has "
                f"{len(transformer)}"
            )

        slots: List[List[List[LayerSpec]]] = [[[] for _ in range(v)] for _ in range(p)]
        cursor = 0
        for stage in range(p):
            stage_slice = transformer[cursor : cursor + counts[stage]]
            cursor += counts[stage]
            # Even split across chunks; earlier chunks absorb remainders.
            base, rem = divmod(len(stage_slice), v)
            offset = 0
            for chunk in range(v):
                take = base + (1 if chunk < rem else 0)
                slots[stage][chunk] = list(stage_slice[offset : offset + take])
                offset += take
        slots[0][0].insert(0, embedding)
        slots[p - 1][v - 1].append(logit)
        return slots

    def _chunk_work(self, fabric: Fabric) -> List[List[ChunkWork]]:
        """Compute per-(stage, chunk) op durations including TP comm."""
        parallel = self.plan.parallel
        t = parallel.tensor
        topo = self.plan.topology
        slots = self._chunk_layers()
        groups = self.plan.physical_groups

        # TP collectives run on NVLink inside a node; G/t groups share it.
        tp_time_per_allreduce = 0.0
        if t > 1:
            tp_group = groups["tensor"][0]
            nbytes = tp_allreduce_bytes(self.model, parallel.micro_batch_size)
            tp_concurrent = max(1, topo.gpus_per_node // t)
            tp_time_per_allreduce = fabric.collective_time(
                "allreduce", tp_group, nbytes, concurrent=tp_concurrent
            )

        from repro.hardware.nic import NICType

        work: List[List[ChunkWork]] = []
        for stage in range(parallel.pipeline):
            row: List[ChunkWork] = []
            stage_phys = [
                self.plan.placement.physical(r)
                for r in self.plan.layout.stage_ranks(stage)
            ]
            node = topo.node_of(stage_phys[0])
            gpu = node.gpu
            # Continuous interference from the stage's data-parallel NIC
            # slows backward compute (see NICSpec.compute_drag).  A forced
            # Ethernet fallback or a trivial DP degree bypasses the RDMA NIC.
            drag = 0.0
            if parallel.data > 1:
                family = (
                    NICType.ETHERNET
                    if self.force_ethernet
                    else self.plan.stage_nics[stage]
                )
                drag = node.nic_for(family).compute_drag
            for chunk in range(self.num_chunks):
                layers = slots[stage][chunk]
                fwd_flops = sum(l.forward_flops for l in layers) / t
                bwd_flops = sum(l.backward_flops for l in layers) / t
                n_transformer = sum(
                    1 for l in layers if l.kind == LayerKind.TRANSFORMER
                )
                tp_bwd_count = (
                    TP_ALLREDUCES_BACKWARD
                    if self.recompute_activations
                    else TP_ALLREDUCES_FORWARD
                )
                tp_fwd = TP_ALLREDUCES_FORWARD * n_transformer * tp_time_per_allreduce
                tp_bwd = tp_bwd_count * n_transformer * tp_time_per_allreduce
                params = sum(l.params for l in layers) // t
                row.append(
                    ChunkWork(
                        forward_time=gpu.compute_time(fwd_flops) + tp_fwd,
                        backward_time=(gpu.compute_time(bwd_flops) + tp_bwd)
                        * (1.0 + drag),
                        params_per_rank=params,
                    )
                )
            work.append(row)
        return work

    def closed_form_views(self) -> Tuple[Fabric, List[List[ChunkWork]]]:
        """An engine-less :class:`Fabric` over the plan's topology (same
        cost model and Ethernet forcing an executed run would use) plus the
        per-(stage, chunk) work table — the two inputs closed-form planning
        oracles price from without issuing a single DES event."""
        fabric = Fabric(
            self.plan.topology,
            cost_config=self.cost_config,
            force_ethernet=self.force_ethernet,
        )
        return fabric, self._chunk_work(fabric)

    # ------------------------------------------------------------------ #
    # virtual-stage neighbourhood
    # ------------------------------------------------------------------ #

    def _prev_virtual(self, stage: int, chunk: int) -> Optional[Tuple[int, int]]:
        if stage > 0:
            return (stage - 1, chunk)
        if chunk > 0:
            return (self.plan.parallel.pipeline - 1, chunk - 1)
        return None

    def _next_virtual(self, stage: int, chunk: int) -> Optional[Tuple[int, int]]:
        if stage < self.plan.parallel.pipeline - 1:
            return (stage + 1, chunk)
        if chunk < self.num_chunks - 1:
            return (0, chunk + 1)
        return None

    # ------------------------------------------------------------------ #
    # the simulation
    # ------------------------------------------------------------------ #

    def run(self) -> IterationResult:
        """Simulate one training iteration and return its results."""
        plan = self.plan
        parallel = plan.parallel
        topo = plan.topology
        engine = SimEngine(hooks=self.validation)
        registry = self.metrics_registry or MetricsRegistry()
        fabric = Fabric(
            topo, cost_config=self.cost_config, engine=engine,
            force_ethernet=self.force_ethernet, metrics_registry=registry,
            hooks=self.validation,
        )
        trace = TraceRecorder(enabled=self.trace_enabled, hooks=self.validation)
        tracing = trace.enabled
        channels = ChannelRegistry(engine)
        schedule = self._build_schedule()
        work = self._chunk_work(fabric)
        groups = plan.physical_groups

        injector: Optional[FaultInjector] = None
        if self.fault_plan is not None and len(self.fault_plan) > 0:
            # Communicators are built over the healthy fabric at startup, so
            # any mid-run transport change counts as a rebuild.
            for family_groups in groups.values():
                fabric.establish(family_groups)
            injector = FaultInjector(self.fault_plan, fabric, trace=trace)
            injector.install()

        act_bytes = activation_message_bytes(
            self.model,
            parallel.micro_batch_size,
            parallel.tensor if self.scatter_gather else 1,
        )

        dp_groups = groups["data"]

        # Executed collectives: every DP group's gradient sync runs as
        # per-step ring transfers through the shared p2p path.
        executor = CollectiveExecutor(
            fabric, channels, trace=trace if tracing else None
        )
        bucket_plan = self.optimizer.bucket_plan()

        group_meta: List[_DPGroupMeta] = []
        for group in dp_groups:
            logical0 = plan.placement.logical(group[0])
            g_stage = plan.layout.stage_of(logical0)
            shard_params = sum(
                work[g_stage][c].params_per_rank for c in range(self.num_chunks)
            )
            ring = tuple(executor.ring_order(group))
            bucket_params: Tuple[int, ...] = ()
            if len(ring) > 1 and shard_params > 0 and bucket_plan.has_overlap:
                # Issuance granularity: how many background syncs get a
                # chance to interleave with backward compute.  Independent
                # of the wire-level 128 MB fusion (the executor folds that
                # into per-step ``messages``) — a bucket is a *readiness*
                # unit here, and even a small model produces its gradients
                # progressively.
                n = min(OVERLAP_MAX_BUCKETS, shard_params)
                base, rem = divmod(shard_params, n)
                bucket_params = tuple(
                    base + (1 if b < rem else 0) for b in range(n)
                )
            group_meta.append(_DPGroupMeta(
                stage=g_stage, ring=ring, shard_params=shard_params,
                bucket_params=bucket_params,
            ))

        # Every ring and pipeline edge, for the static span classifiers.
        rings: List[Tuple[int, ...]] = [
            meta.ring for meta in group_meta if len(meta.ring) > 1
        ]
        p2p_edges: set = set()
        seen_pp: set = set()
        for phys in range(topo.world_size):
            logical = plan.placement.logical(phys)
            stage = plan.layout.stage_of(logical)
            pp_logical = plan.layout.pp_group_of(logical)
            pp_phys = [plan.placement.physical(r) for r in pp_logical]
            for chunk in range(self.num_chunks):
                nxt = self._next_virtual(stage, chunk)
                if nxt is not None:
                    p2p_edges.add((phys, pp_phys[nxt[0]]))
                prev = self._prev_virtual(stage, chunk)
                if prev is not None:
                    p2p_edges.add((phys, pp_phys[prev[0]]))
            if (
                self.tie_embeddings
                and parallel.pipeline > 1
                and stage == 0
                and tuple(pp_phys) not in seen_pp
            ):
                seen_pp.add(tuple(pp_phys))
                rings.append(
                    tuple(executor.ring_order([pp_phys[0], pp_phys[-1]]))
                )
        classified = dict(
            has_faults=injector is not None,
            has_stragglers=bool(self.stragglers),
            blocking_p2p=self.blocking_p2p,
            has_overlap=bucket_plan.has_overlap,
        )
        # Executed ring passes price the NIC-crossing edges they provably
        # hold alone without a send event per step; this is the static
        # half of that test (the rest is decided per pass at run time).
        executor.ownable = ownable_ring_edges(
            fabric, rings, sorted(p2p_edges), **classified
        )

        # Tiered fidelity: the policy classifies — statically, before any
        # event is issued — which spans the closed-form oracle may price as
        # one aggregate event and which must run step-by-step.  "analytic"
        # raises a FidelityError here when any span is contended.
        policy: Optional[FidelityPolicy] = None
        if self.fidelity != "executed":
            policy = FidelityPolicy(
                self.fidelity, fabric, rings, sorted(p2p_edges), **classified
            )
            executor.fidelity = policy

        backward_ops_per_stage = [
            sum(1 for op in schedule[s] if op.kind == OpKind.BACKWARD)
            for s in range(parallel.pipeline)
        ]

        sync_times: List[Dict[str, float]] = [dict() for _ in range(parallel.pipeline)]
        backward_windows: Dict[int, float] = {}  # physical rank -> seconds
        #: per group: max over members of (flush completion - flush start),
        #: i.e. the wall time gradient sync added beyond the pipeline.
        group_exposed: Dict[int, float] = {}

        def _bucket_body(gi: int, meta: _DPGroupMeta, phys: int, b: int) -> Generator:
            """Background sync of gradient bucket ``b`` (all overlappable
            ops, in strategy order) — spawned as backward ops complete."""
            params = meta.bucket_params[b]
            for op in bucket_plan.overlapped:
                for rep in range(op.repeat):
                    yield from executor.run_op(
                        op.op, meta.ring, phys,
                        params * op.bytes_per_param,
                        tag=f"dp{gi}:{op.op}{rep}:b{b}",
                    )

        placement = plan.placement
        layout = plan.layout
        #: physical rank -> index of the first DP group holding it
        dp_group_of: Dict[int, int] = {}
        for gi, g in enumerate(dp_groups):
            for r in g:
                dp_group_of.setdefault(r, gi)
        finish_times: Dict[int, float] = {}  # physical rank -> done time

        def _slowdown(phys: int) -> float:
            """Compute slowdown of a rank *right now*: static stragglers
            composed with any dynamic straggler fault currently in force."""
            factor = self.stragglers.get(phys, 1.0)
            if injector is not None:
                factor *= injector.straggler_factor(phys)
            return factor

        def rank_process(phys: int) -> Generator:
            logical = placement.logical(phys)
            stage = layout.stage_of(logical)
            pp_group_logical = layout.pp_group_of(logical)
            pp_group_phys = [placement.physical(r) for r in pp_group_logical]
            bwd_window = 0.0
            group_index = dp_group_of[phys]
            meta = group_meta[group_index]
            total_bwd = backward_ops_per_stage[stage]
            bucket_procs = []
            issued = 0
            done_bwd = 0

            for op in schedule[stage]:
                chunk = op.chunk
                tag_mb = op.microbatch
                if op.kind == OpKind.FORWARD:
                    prev = self._prev_virtual(stage, chunk)
                    if prev is not None:
                        src = pp_group_phys[prev[0]]
                        yield from recv(
                            channels, src, phys, f"act:{chunk}:{tag_mb}",
                            trace=trace if tracing else None,
                        )
                    start = engine.now
                    factor = _slowdown(phys)
                    yield Timeout(work[stage][chunk].forward_time * factor)
                    if tracing:
                        trace.record(
                            phys, "compute", "forward", start, engine.now,
                            mb=tag_mb, chunk=chunk, stage=stage, slow=factor,
                        )
                    nxt = self._next_virtual(stage, chunk)
                    if nxt is not None:
                        dst = pp_group_phys[nxt[0]]
                        sender = send(
                            fabric, channels, phys, dst,
                            f"act:{nxt[1]}:{tag_mb}", act_bytes,
                            trace if tracing else None,
                            analytic=policy is not None
                            and policy.p2p_analytic(phys, dst),
                        )
                        if self.blocking_p2p:
                            yield from sender
                        else:
                            engine.process(
                                sender, name=f"send-act[{phys}->{dst}:{tag_mb}]"
                            )
                else:
                    nxt = self._next_virtual(stage, chunk)
                    if nxt is not None:
                        src = pp_group_phys[nxt[0]]
                        yield from recv(
                            channels, src, phys, f"grad:{chunk}:{tag_mb}",
                            trace=trace if tracing else None,
                        )
                    start = engine.now
                    factor = _slowdown(phys)
                    backward = work[stage][chunk].backward_time * factor
                    yield Timeout(backward)
                    bwd_window += backward
                    if tracing:
                        trace.record(
                            phys, "compute", "backward", start, engine.now,
                            mb=tag_mb, chunk=chunk, stage=stage, slow=factor,
                        )
                    # Overlapped optimizer: gradient buckets become ready
                    # as the backward pass progresses; issue their
                    # background syncs proportionally to backward ops done
                    # (Megatron-LLaMA's bucketed reduce-scatter).
                    if meta.bucket_params:
                        done_bwd += 1
                        target = (
                            len(meta.bucket_params) * done_bwd // total_bwd
                        )
                        while issued < target:
                            bucket_procs.append(engine.process(
                                _bucket_body(group_index, meta, phys, issued),
                                name=f"dp{group_index}-b{issued}-r{phys}",
                            ))
                            issued += 1
                    prev = self._prev_virtual(stage, chunk)
                    if prev is not None:
                        dst = pp_group_phys[prev[0]]
                        sender = send(
                            fabric, channels, phys, dst,
                            f"grad:{prev[1]}:{tag_mb}", act_bytes,
                            trace if tracing else None,
                            analytic=policy is not None
                            and policy.p2p_analytic(phys, dst),
                        )
                        if self.blocking_p2p:
                            yield from sender
                        else:
                            engine.process(
                                sender, name=f"send-grad[{phys}->{dst}:{tag_mb}]"
                            )

            # Tied embeddings: the first and last stages all-reduce the
            # embedding gradients over the pipeline transport before the
            # data-parallel sync (Megatron's allreduce_embedding_grads).
            # Executed as a two-rank ring on the event fabric, so the
            # transfer pays the real (possibly inter-cluster) edge and
            # contends with every other pipeline group doing the same.
            if (
                self.tie_embeddings
                and parallel.pipeline > 1
                and stage in (0, parallel.pipeline - 1)
            ):
                peer = pp_group_phys[-1] if stage == 0 else pp_group_phys[0]
                nbytes = (
                    self.model.vocab_size * self.model.hidden_size * 4
                ) // parallel.tensor  # fp32 grads of the vocab embedding
                pair = (min(phys, peer), max(phys, peer))
                yield from executor.run_op(
                    "allreduce", [phys, peer], phys, nbytes,
                    tag=f"emb:{pair[0]}-{pair[1]}",
                    label="embedding-grads-allreduce",
                )

            # Pipeline flush reached: gradient synchronisation.  Background
            # buckets must complete, then the strategy's flush ops execute
            # step-by-step; the wall time from here to completion is the
            # *measured* exposed sync.
            backward_windows[phys] = bwd_window
            sync_start = engine.now
            if len(meta.ring) > 1 and meta.shard_params > 0:
                # A fault may have re-resolved the group's transport family
                # since its last sync; the first sync after that pays the
                # communicator rebuild (NCCL re-init).
                rebuild = fabric.group_rebuild_time(meta.ring)
                if rebuild > 0.0:
                    rb_start = engine.now
                    yield Timeout(rebuild)
                    if tracing:
                        trace.record(
                            phys, "fault", "comm-rebuild", rb_start,
                            engine.now, group=group_index,
                        )
                if bucket_procs:
                    yield AllOf([p.done for p in bucket_procs])
                for op in bucket_plan.flush:
                    for rep in range(op.repeat):
                        yield from executor.run_op(
                            op.op, meta.ring, phys,
                            meta.shard_params * op.bytes_per_param,
                            tag=f"dp{group_index}:{op.op}{rep}",
                        )
            if self.optimizer.step_overhead > 0.0:
                yield Timeout(self.optimizer.step_overhead)
            exposed = engine.now - sync_start
            if exposed > group_exposed.get(group_index, 0.0):
                group_exposed[group_index] = exposed
            if tracing:
                trace.record(
                    phys, "collective", "dp-sync", sync_start, engine.now,
                    group=group_index,
                )
            finish_times[phys] = engine.now

        procs = [
            engine.process(rank_process(r), name=f"rank{r}")
            for r in range(topo.world_size)
        ]
        # A fault plan that crashes a node would deadlock the pipeline on
        # the dead rank's silence; instead the run is bounded at the moment
        # survivors detect the crash (keep-alive expiry) and the iteration
        # reports as aborted — degraded but finite, never hung.
        abort_at: Optional[float] = None
        if injector is not None:
            abort_at = injector.abort_time(
                fabric.cost_model.config.retry_policy.crash_detection
            )
        engine.run(until=abort_at)
        executor.settle()
        aborted = any(proc.alive for proc in procs)
        if aborted and abort_at is None:
            stuck = next(proc for proc in procs if proc.alive)
            raise SimulationError(
                f"{stuck.name} deadlocked before finishing its schedule"
            )

        # Strategy step_overhead is already charged inside each rank's
        # flush; the fixed framework overhead is added here.  With an
        # injector installed, pending fault-recovery timers may outlive the
        # ranks, so the makespan is the last rank completion, not engine.now.
        if aborted:
            end_time = engine.now
        elif injector is not None and finish_times:
            end_time = max(finish_times.values())
        else:
            end_time = engine.now
        iteration_time = end_time + self.iteration_overhead
        fault_report: Optional[FaultReport] = None
        if injector is not None:
            fault_report = injector.report()
        audit = audit_parallel_groups(fabric, groups)

        # Measured gradient-sync times: each op's duration is its executed
        # window (latest member start to latest member end, summed over
        # buckets and repeats); ``exposed`` is the wall time the flush
        # actually added beyond the pipeline.  ``hidden`` is the comm that
        # disappeared behind backward compute, measured as the wall-clock
        # *union* of the group's in-flight intervals minus the exposed
        # tail — a sum of window durations would double-count buckets that
        # queue behind each other on one NIC.  All of these are *outputs*
        # of the simulation, not inputs.
        group_hidden: Dict[int, float] = {}
        for gi, meta in enumerate(group_meta):
            times: Dict[str, float] = {}
            in_flight: List[tuple] = []
            for op in self.optimizer.ops:
                op_total = 0.0
                if len(meta.ring) > 1 and meta.shard_params > 0:
                    for rep in range(op.repeat):
                        prefix = f"dp{gi}:{op.op}{rep}"
                        op_total += executor.total_duration(prefix)
                        in_flight.extend(executor.intervals(prefix))
                times[op.op] = op_total
            exposed = group_exposed.get(gi, 0.0)
            times["exposed"] = exposed
            wall_comm = _union_duration(in_flight)
            times["hidden"] = max(0.0, wall_comm - exposed)
            group_hidden[gi] = times["hidden"]
            sync_times[meta.stage] = times

        exposed_sync = 0.0
        hidden_sync = 0.0
        if group_exposed:
            crit_gi = max(group_exposed, key=lambda g: group_exposed[g])
            exposed_sync = group_exposed[crit_gi]
            hidden_sync = group_hidden.get(crit_gi, 0.0)

        # Record the canonical reduce-scatter spans for Figure 3 (synthetic
        # rank -1 spans, excluded from critical-path attribution).
        if tracing:
            for stage, times in enumerate(sync_times):
                for key, duration in times.items():
                    if key in ("exposed", "hidden"):
                        continue
                    trace.record(
                        -1, "collective", f"grads-{key.replace('_', '-')}",
                        0.0, duration, stage=stage,
                    )

        # Critical-path attribution: partition the makespan into the
        # time-loss budget and fold its headline fractions into the metrics.
        attribution: Optional[AttributionReport] = None
        if tracing:
            attribution = attribute_iteration(
                trace, end_time, overhead=self.iteration_overhead, topology=topo
            )
        metrics = compute_metrics(
            self.model,
            parallel.global_batch_size,
            iteration_time,
            topo.world_size,
            retry_time=fabric.fault_stats.retry_time,
            rebuild_time=fabric.fault_stats.rebuild_time,
            bubble_time=attribution.bubble_time if attribution else 0.0,
            comm_time=attribution.comm_time if attribution else 0.0,
            exposed_sync_time=exposed_sync,
            hidden_sync_time=hidden_sync,
        )
        if self.validation is not None:
            self.validation.finalize(trace, end_time, topo.world_size)
            self.validation.publish(registry)
        self._publish_metrics(registry, metrics, end_time, attribution)
        return IterationResult(
            plan=plan,
            model=self.model,
            metrics=metrics,
            trace=trace,
            audit=audit,
            sync_times=sync_times,
            optimizer_name=self.optimizer.name,
            faults=fault_report,
            aborted=aborted,
            makespan=end_time,
            overhead=self.iteration_overhead,
            attribution=attribution,
            registry=registry,
            primary_sync_op=self.optimizer.primary_sync_op(),
        )

    def _publish_metrics(
        self,
        registry: MetricsRegistry,
        metrics: IterationMetrics,
        makespan: float,
        attribution: Optional[AttributionReport],
    ) -> None:
        """Publish iteration-level gauges into the observability registry."""
        gauge = registry.gauge
        gauge("sim_iteration_seconds", "wall time of the iteration").set(
            metrics.iteration_time
        )
        gauge("sim_makespan_seconds", "virtual-time makespan pre-overhead").set(
            makespan
        )
        gauge("sim_tflops_per_gpu", "achieved teraFLOP/s per GPU").set(
            metrics.tflops_per_gpu
        )
        gauge("sim_throughput_samples_per_s", "training throughput").set(
            metrics.throughput
        )
        gauge(
            "sim_sync_exposed_seconds",
            "measured gradient-sync wall time beyond the pipeline",
        ).set(metrics.exposed_sync_time)
        gauge(
            "sim_sync_hidden_seconds",
            "measured gradient-sync time hidden behind backward compute",
        ).set(metrics.hidden_sync_time)
        if attribution is None:
            return
        budget_gauge = gauge(
            "attribution_seconds", "critical-path time-loss budget by category"
        )
        for category in Category:
            budget_gauge.set(
                attribution.budget.get(category, 0.0), category=str(category)
            )
        busy_gauge = gauge(
            "rank_busy_seconds", "non-bubble seconds per rank over the makespan"
        )
        idle_gauge = gauge("rank_bubble_seconds", "bubble seconds per rank")
        for rank, cats in attribution.per_rank.items():
            bubble = cats.get(Category.BUBBLE, 0.0)
            busy_gauge.set(makespan - bubble, rank=rank)
            idle_gauge.set(bubble, rank=rank)
