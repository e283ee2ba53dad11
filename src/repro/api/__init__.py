"""The unified run surface: ``Scenario`` in, ``RunResult`` out.

Everything the simulator can execute — paper table cells, framework
comparisons, fault studies, metamorphic-harness scenarios — is described by
one frozen :class:`Scenario` value and executed through two entry points:

- :func:`run` — simulate one scenario, return a :class:`RunResult` (a
  picklable, JSON-round-trippable summary with the replay digests that make
  results comparable byte-for-byte).
- :func:`sweep` — run many scenarios, optionally in parallel worker
  processes and against the content-addressed result cache
  (:mod:`repro.exec`).  Serial, parallel, and cached sweeps return
  identical results in input order.

:class:`Scenario` is *data*: hashable, comparable, and canonically
serializable.  :meth:`Scenario.canonical` defines the scenario's identity —
every field participates — and :meth:`Scenario.digest` hashes it together
with the :data:`repro.exec.digest.CODE_VERSION_SALT`, which is what keys
the result cache.  Callers who need the full in-memory
:class:`~repro.core.engine.IterationResult` (trace, registry, attribution)
use :func:`simulate` instead; those objects hold live engine state and are
neither picklable nor cacheable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.frameworks.base import FrameworkSpec, environment_is_heterogeneous
from repro.frameworks.holmes import HOLMES, holmes_ablation
from repro.frameworks.megatron_deepspeed import MEGATRON_DEEPSPEED
from repro.frameworks.megatron_llama import MEGATRON_LLAMA
from repro.frameworks.megatron_lm import MEGATRON_LM
from repro.model.config import GPTConfig
from repro.network.contention import FIDELITY_MODES
from repro.parallel.degrees import ParallelConfig

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.bench.paramgroups import ParameterGroup

#: Public framework names accepted by :attr:`Scenario.framework`.  The
#: ``holmes-base`` configuration (NIC selection + cross-cluster pipeline,
#: uniform partition, plain distributed optimizer) backs the paper's
#: Tables 1/3/4; ``holmes-full`` adds the Eq. 2 partition and the
#: overlapped optimizer (Figures 5-7, Table 5).
FRAMEWORK_PRESETS: Dict[str, FrameworkSpec] = {
    "holmes-base": holmes_ablation(
        self_adapting_partition=False, overlapped_optimizer=False
    ),
    "holmes-full": HOLMES,
    "holmes": HOLMES,
    "holmes-no-sap": holmes_ablation(self_adapting_partition=False),
    "holmes-no-overlap": holmes_ablation(overlapped_optimizer=False),
    "megatron-lm": MEGATRON_LM,
    "megatron-deepspeed": MEGATRON_DEEPSPEED,
    "megatron-llama": MEGATRON_LLAMA,
}

_SCHEDULES = ("1f1b", "gpipe", "interleaved")

#: Largest machine a scenario may name, in GPUs: 64x the largest
#: benchmarked world.  A bound on what one request can make the engine
#: build (the topology alone holds one device record per GPU).
MAX_WORLD_SIZE = 65536


def _as_float_token(value: float) -> str:
    """Exact, JSON-safe float encoding (``repr`` round-trips doubles;
    ``inf`` would not survive strict JSON)."""
    return repr(float(value))


def _event_canonical(event: FaultEvent) -> Dict[str, object]:
    return {
        "time": _as_float_token(event.time),
        "kind": event.kind.value,
        "node": event.node,
        "rank": event.rank,
        "duration": _as_float_token(event.duration),
        "factor": _as_float_token(event.factor),
        "loss_rate": _as_float_token(event.loss_rate),
    }


def _event_sort_key(event: FaultEvent):
    return (
        event.time,
        event.kind.value,
        -1 if event.node is None else event.node,
        -1 if event.rank is None else event.rank,
        event.duration,
        event.factor,
        event.loss_rate,
    )


def _event_from_canonical(data: Mapping[str, object]) -> FaultEvent:
    return FaultEvent(
        time=float(str(data["time"])),
        kind=FaultKind(str(data["kind"])),
        node=None if data["node"] is None else int(data["node"]),  # type: ignore[arg-type]
        rank=None if data["rank"] is None else int(data["rank"]),  # type: ignore[arg-type]
        duration=float(str(data["duration"])),
        factor=float(str(data["factor"])),
        loss_rate=float(str(data["loss_rate"])),
    )


@dataclass(frozen=True)
class Scenario:
    """One complete, deterministic simulation configuration.

    A scenario names the machine (``env``, ``nodes``, ``gpus_per_node``,
    or an inline ``machine``), the model, the parallelism layout, the
    framework preset whose policies plan and execute it, and any
    fault/straggler perturbations.  Instances are frozen and hashable;
    :meth:`canonical` (every field, exact floats) defines identity for the
    result cache.

    Derived fields resolve at construction: ``data=0`` means "fill the
    machine" (``world_size / (tensor * pipeline)``) and
    ``global_batch_size=0`` derives from ``data * micro_batch_size *
    num_microbatches``; when ``global_batch_size`` is given explicitly,
    ``num_microbatches`` is derived from it instead.  Either spelling of
    the same workload therefore digests identically.
    """

    # machine
    env: str
    nodes: int
    gpus_per_node: int = 8
    # model
    num_layers: int = 24
    hidden_size: int = 1024
    num_attention_heads: int = 16
    seq_length: int = 2048
    vocab_size: int = 51200
    # parallelism / workload
    tensor: int = 1
    pipeline: int = 1
    data: int = 0
    micro_batch_size: int = 1
    global_batch_size: int = 0
    num_microbatches: int = 1
    schedule: str = "1f1b"
    num_chunks: int = 1
    # policy
    framework: str = "holmes-base"
    # perturbations
    fault_events: Tuple[FaultEvent, ...] = ()
    fault_seed: Optional[int] = None
    fault_count: int = 3
    fault_horizon: float = 0.5
    stragglers: Tuple[Tuple[int, float], ...] = ()
    # knobs
    bandwidth_scale: float = 1.0
    trace_enabled: bool = True
    validate: bool = False
    tie_embeddings: bool = False
    #: simulation fidelity tier: ``"executed"`` (per-step DES),
    #: ``"analytic"`` (closed-form everywhere; refuses contended
    #: scenarios), or ``"auto"`` (closed form where provably exact, DES
    #: elsewhere — see :class:`repro.network.contention.FidelityPolicy`).
    #: Part of the canonical identity: ``auto`` results never alias
    #: ``executed`` ones in the result cache.
    fidelity: str = "executed"
    label: str = ""
    #: an inline machine: a :mod:`repro.hardware.config_io` machine dict,
    #: held as its canonical JSON text (hashable, exact).  When set it is
    #: the machine, ``env`` only names it, and ``nodes``/``gpus_per_node``
    #: must match it; ``None`` builds the named ``env``.
    machine: Union[str, Mapping[str, object], None] = None

    def __post_init__(self) -> None:
        if self.machine is not None:
            self._set_machine()
        else:
            from repro.validate.scenarios import ENV_BUILDERS

            if self.env not in ENV_BUILDERS:
                raise ConfigurationError(
                    f"unknown env {self.env!r}; one of {sorted(ENV_BUILDERS)}"
                )
        if self.framework not in FRAMEWORK_PRESETS:
            raise ConfigurationError(
                f"unknown framework {self.framework!r}; "
                f"one of {sorted(FRAMEWORK_PRESETS)}"
            )
        if self.schedule not in _SCHEDULES:
            raise ConfigurationError(
                f"unknown schedule {self.schedule!r}; one of {_SCHEDULES}"
            )
        if self.fidelity not in FIDELITY_MODES:
            raise ConfigurationError(
                f"unknown fidelity {self.fidelity!r}; one of {FIDELITY_MODES}"
            )
        if self.nodes < 1 or self.gpus_per_node < 1:
            raise ConfigurationError(
                f"machine must have at least one node and one GPU per node: "
                f"{self.nodes}x{self.gpus_per_node}"
            )
        if self.bandwidth_scale <= 0:
            raise ConfigurationError(
                f"bandwidth_scale must be positive: {self.bandwidth_scale}"
            )
        world = self.nodes * self.gpus_per_node
        if world > MAX_WORLD_SIZE:
            raise ConfigurationError(
                f"machine too large: {self.nodes}x{self.gpus_per_node} = "
                f"{world} GPUs; at most {MAX_WORLD_SIZE}"
            )
        if self.tensor < 1 or self.pipeline < 1:
            raise ConfigurationError(
                f"parallel degrees must be >= 1: t{self.tensor} p{self.pipeline}"
            )
        if self.micro_batch_size < 1:
            raise ConfigurationError(
                f"micro_batch_size must be >= 1: {self.micro_batch_size}"
            )
        data = self.data
        if data == 0:
            tp = self.tensor * self.pipeline
            if world % tp != 0:
                raise ConfigurationError(
                    f"cannot derive data parallel degree: world size {world} "
                    f"not divisible by t*p = {tp}"
                )
            data = world // tp
            object.__setattr__(self, "data", data)
        # resolve the workload: exactly one of (global_batch_size,
        # num_microbatches) may be derived; afterwards both agree.
        replicas = data * self.micro_batch_size
        if self.global_batch_size == 0:
            if self.num_microbatches < 1:
                raise ConfigurationError(
                    f"num_microbatches must be >= 1: {self.num_microbatches}"
                )
            object.__setattr__(
                self, "global_batch_size", replicas * self.num_microbatches
            )
        else:
            if self.global_batch_size % replicas != 0:
                raise ConfigurationError(
                    f"global batch {self.global_batch_size} not divisible by "
                    f"data * micro_batch_size = {replicas}"
                )
            object.__setattr__(
                self, "num_microbatches", self.global_batch_size // replicas
            )
        # normalise perturbations into canonical hashable tuples
        events = tuple(sorted(self.fault_events, key=_event_sort_key))
        object.__setattr__(self, "fault_events", events)
        if isinstance(self.stragglers, Mapping):
            pairs: Iterable = self.stragglers.items()
        else:
            pairs = self.stragglers
        stragglers = tuple(
            sorted((int(rank), float(factor)) for rank, factor in pairs)
        )
        for rank, factor in stragglers:
            if factor <= 0:
                raise ConfigurationError(
                    f"straggler factor must be positive: rank {rank} x{factor}"
                )
        object.__setattr__(self, "stragglers", stragglers)
        if self.fault_count < 0:
            raise ConfigurationError(f"fault_count must be >= 0: {self.fault_count}")
        if self.fault_horizon <= 0:
            raise ConfigurationError(
                f"fault_horizon must be positive: {self.fault_horizon}"
            )
        # fail fast on an impossible layout (divisibility, machine fit)
        self.parallel.validate_against(world, self.gpus_per_node)

    def _set_machine(self) -> None:
        """Canonicalise the inline machine and check the scenario's shape
        against it, in O(size of the dict): no node is built here."""
        from repro.hardware.config_io import canonical_machine, machine_shape

        if not isinstance(self.env, str) or not self.env:
            raise ConfigurationError(f"env must name the machine: {self.env!r}")
        data = self.machine
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except ValueError as exc:
                raise ConfigurationError(f"machine is not JSON: {exc}") from exc
        spec = canonical_machine(data)
        shape = machine_shape(spec)
        if (self.nodes, self.gpus_per_node) != shape:
            raise ConfigurationError(
                f"scenario is {self.nodes}x{self.gpus_per_node} but its "
                f"machine is {shape[0]}x{shape[1]}"
            )
        object.__setattr__(
            self, "machine", json.dumps(spec, sort_keys=True, separators=(",", ":"))
        )

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpus_per_node

    @property
    def model(self) -> GPTConfig:
        return GPTConfig(
            num_layers=self.num_layers,
            hidden_size=self.hidden_size,
            num_attention_heads=self.num_attention_heads,
            seq_length=self.seq_length,
            vocab_size=self.vocab_size,
        )

    @property
    def parallel(self) -> ParallelConfig:
        return ParallelConfig(
            tensor=self.tensor,
            pipeline=self.pipeline,
            data=self.data,
            micro_batch_size=self.micro_batch_size,
            global_batch_size=self.global_batch_size,
        )

    @property
    def framework_spec(self) -> FrameworkSpec:
        return FRAMEWORK_PRESETS[self.framework]

    def topology(self):
        """Materialise the machine (with ``bandwidth_scale`` applied)."""
        if self.machine is not None:
            from repro.hardware.config_io import topology_from_dict

            topo = topology_from_dict(json.loads(self.machine))  # type: ignore[arg-type]
        else:
            from repro.validate.scenarios import ENV_BUILDERS

            topo = ENV_BUILDERS[self.env](self.nodes, self.gpus_per_node)
        if self.bandwidth_scale != 1.0:
            from repro.validate.scenarios import scaled_topology

            topo = scaled_topology(topo, self.bandwidth_scale)
        return topo

    def fault_plan(self, topology=None) -> Optional[FaultPlan]:
        """The scenario's fault script: seeded random events (if
        ``fault_seed`` is set) merged with the explicit ``fault_events``;
        ``None`` when fault-free."""
        if self.fault_seed is None and not self.fault_events:
            return None
        if self.fault_seed is not None:
            topo = topology if topology is not None else self.topology()
            plan = FaultPlan.random(
                topo,
                self.fault_horizon,
                seed=self.fault_seed,
                num_events=self.fault_count,
            )
            return plan.extended(self.fault_events) if self.fault_events else plan
        return FaultPlan(events=self.fault_events)

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #

    def canonical(self) -> Dict[str, object]:
        """The scenario's identity as a JSON-safe mapping.

        Every field participates (floats via exact ``repr`` tokens), so any
        change to any knob changes the mapping — and with it the cache
        digest.  ``label`` is provenance, not physics, but is included
        deliberately: a cache hit must reproduce the *entire* RunResult.
        ``machine`` appears only when set, so env-named scenarios keep
        their identity.
        """
        canonical: Dict[str, object] = {
            "env": self.env,
            "nodes": self.nodes,
            "gpus_per_node": self.gpus_per_node,
            "num_layers": self.num_layers,
            "hidden_size": self.hidden_size,
            "num_attention_heads": self.num_attention_heads,
            "seq_length": self.seq_length,
            "vocab_size": self.vocab_size,
            "tensor": self.tensor,
            "pipeline": self.pipeline,
            "data": self.data,
            "micro_batch_size": self.micro_batch_size,
            "global_batch_size": self.global_batch_size,
            "num_microbatches": self.num_microbatches,
            "schedule": self.schedule,
            "num_chunks": self.num_chunks,
            "framework": self.framework,
            "fault_events": [_event_canonical(e) for e in self.fault_events],
            "fault_seed": self.fault_seed,
            "fault_count": self.fault_count,
            "fault_horizon": _as_float_token(self.fault_horizon),
            "stragglers": [
                [rank, _as_float_token(factor)] for rank, factor in self.stragglers
            ],
            "bandwidth_scale": _as_float_token(self.bandwidth_scale),
            "trace_enabled": self.trace_enabled,
            "validate": self.validate,
            "tie_embeddings": self.tie_embeddings,
            "fidelity": self.fidelity,
            "label": self.label,
        }
        if self.machine is not None:
            canonical["machine"] = json.loads(self.machine)  # type: ignore[arg-type]
        return canonical

    def digest(self) -> str:
        """Content digest keying the result cache (salted with the code
        version, :data:`repro.exec.digest.CODE_VERSION_SALT`)."""
        from repro.exec.digest import scenario_digest

        return scenario_digest(self)

    @classmethod
    def from_canonical(cls, data: Mapping[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`canonical` output (cache
        provenance records)."""
        return cls(
            env=str(data["env"]),
            nodes=int(data["nodes"]),  # type: ignore[arg-type]
            gpus_per_node=int(data["gpus_per_node"]),  # type: ignore[arg-type]
            num_layers=int(data["num_layers"]),  # type: ignore[arg-type]
            hidden_size=int(data["hidden_size"]),  # type: ignore[arg-type]
            num_attention_heads=int(data["num_attention_heads"]),  # type: ignore[arg-type]
            seq_length=int(data["seq_length"]),  # type: ignore[arg-type]
            vocab_size=int(data["vocab_size"]),  # type: ignore[arg-type]
            tensor=int(data["tensor"]),  # type: ignore[arg-type]
            pipeline=int(data["pipeline"]),  # type: ignore[arg-type]
            data=int(data["data"]),  # type: ignore[arg-type]
            micro_batch_size=int(data["micro_batch_size"]),  # type: ignore[arg-type]
            global_batch_size=int(data["global_batch_size"]),  # type: ignore[arg-type]
            schedule=str(data["schedule"]),
            num_chunks=int(data["num_chunks"]),  # type: ignore[arg-type]
            framework=str(data["framework"]),
            fault_events=tuple(
                _event_from_canonical(e) for e in data["fault_events"]  # type: ignore[union-attr]
            ),
            fault_seed=(
                None if data["fault_seed"] is None else int(data["fault_seed"])  # type: ignore[arg-type]
            ),
            fault_count=int(data["fault_count"]),  # type: ignore[arg-type]
            fault_horizon=float(str(data["fault_horizon"])),
            stragglers=tuple(
                (int(rank), float(str(factor)))
                for rank, factor in data["stragglers"]  # type: ignore[union-attr]
            ),
            bandwidth_scale=float(str(data["bandwidth_scale"])),
            trace_enabled=bool(data["trace_enabled"]),
            validate=bool(data["validate"]),
            tie_embeddings=bool(data["tie_embeddings"]),
            fidelity=str(data.get("fidelity", "executed")),
            label=str(data["label"]),
            machine=data.get("machine"),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_group(
        cls,
        env: str,
        nodes: int,
        group: Union[int, "ParameterGroup"],
        gpus_per_node: int = 8,
        framework: str = "holmes-base",
        **overrides: object,
    ) -> "Scenario":
        """A scenario for one Table 2 parameter group on a named machine —
        the shape every paper table cell has.  ``group`` is a
        :class:`~repro.bench.paramgroups.ParameterGroup` or its Table 2 id.
        """
        from repro.bench.paramgroups import PARAM_GROUPS

        if isinstance(group, int):
            group = PARAM_GROUPS[group]
        world = nodes * gpus_per_node
        parallel = group.parallel_for(world)
        kwargs: Dict[str, object] = {
            "env": env,
            "nodes": nodes,
            "gpus_per_node": gpus_per_node,
            "num_layers": group.model.num_layers,
            "hidden_size": group.model.hidden_size,
            "num_attention_heads": group.model.num_attention_heads,
            "seq_length": group.model.seq_length,
            "vocab_size": group.model.vocab_size,
            "tensor": parallel.tensor,
            "pipeline": parallel.pipeline,
            "data": parallel.data,
            "micro_batch_size": parallel.micro_batch_size,
            "global_batch_size": parallel.global_batch_size,
            "framework": framework,
            "label": f"g{group.group_id}:{env}:{nodes}x{gpus_per_node}",
        }
        kwargs.update(overrides)
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        faults = ""
        if self.fault_seed is not None:
            faults = f", faults(seed={self.fault_seed})"
        elif self.fault_events:
            faults = f", faults({len(self.fault_events)} events)"
        name = self.label or "scenario"
        tier = "" if self.fidelity == "executed" else f" <{self.fidelity}>"
        return (
            f"{name}: {self.env} {self.nodes}x{self.gpus_per_node} "
            f"[{self.framework}]{tier}, t{self.tensor} p{self.pipeline} "
            f"d{self.data} mb{self.micro_batch_size} m{self.num_microbatches} "
            f"{self.schedule}x{self.num_chunks}, "
            f"gpt({self.num_layers}L,{self.hidden_size}h,"
            f"{self.num_attention_heads}a){faults}"
        )


@dataclass(frozen=True)
class RunResult:
    """Pure-data summary of one executed scenario.

    Every field is a plain JSON type, so results pickle across worker
    processes and round-trip exactly through the result cache
    (:meth:`to_dict` / :meth:`from_dict` are inverses, floats included —
    Python's JSON encoder emits shortest-round-trip ``repr`` floats).  The
    ``trace_digest`` / ``metrics_digest`` pair is the replay fingerprint
    from :mod:`repro.validate.replay`: equal digests mean byte-identical
    runs, which is how parallel and cached sweeps are checked against
    serial ones.
    """

    scenario: str  #: the scenario's label (or auto-description)
    scenario_digest: str  #: salted content digest (the cache key)
    env: str
    framework: str
    world_size: int
    trace_digest: str
    metrics_digest: str
    num_spans: int
    makespan: float
    iteration_time: float
    tflops: float
    throughput: float
    reduce_scatter_time: float
    dp_rdma_fraction: float
    optimizer_name: str
    num_faults: int = 0
    aborted: bool = False
    #: critical-rank pipeline-bubble / exposed-communication shares of the
    #: iteration; zero when the scenario ran untraced (attribution needs
    #: the trace)
    bubble_fraction: float = 0.0
    comm_fraction: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunResult":
        import dataclasses as _dc

        # Fields with defaults may be absent in documents written before
        # they existed (the cache itself is salt-versioned, but journals
        # and ledgers are not).  Unknown *extra* keys are a hard error:
        # a newer document must never half-parse as this version.
        known = {f.name for f in fields(cls)}
        extra = sorted(set(data) - known)
        if extra:
            raise ValueError(
                f"RunResult.from_dict: unknown keys {extra} — a newer "
                f"result document cannot be parsed as this version"
            )
        kwargs = {
            f.name: data[f.name]
            for f in fields(cls)
            if f.name in data or f.default is _dc.MISSING
        }
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_document(self) -> Dict[str, object]:
        """The ``repro.api.result/v1`` wire document for this result —
        what the CLI's ``--json`` prints and the serve daemon returns."""
        from repro.api.schema import build_result

        return build_result("run", self.to_dict())

    @classmethod
    def from_document(cls, doc: Mapping[str, object]) -> "RunResult":
        """Exact inverse of :meth:`to_document` (strict: unknown keys in
        the envelope or the payload raise)."""
        from repro.api.schema import SchemaError, validate_result

        payload = validate_result(doc, kind="run")
        if not isinstance(payload, Mapping):
            raise SchemaError("run result payload is not a mapping")
        try:
            return cls.from_dict(payload)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"run result payload: {exc}") from exc

    def row(self) -> Dict[str, object]:
        """Compact display row for tables."""
        return {
            "scenario": self.scenario,
            "framework": self.framework,
            "gpus": self.world_size,
            "TFLOPS": round(self.tflops),
            "throughput": round(self.throughput, 2),
        }


def build(scenario: Scenario):
    """Construct the :class:`~repro.core.engine.TrainingSimulation` a
    scenario describes (planning included), without running it."""
    import dataclasses as _dc

    from repro.core.engine import TrainingSimulation
    from repro.core.scheduler import HolmesScheduler
    from repro.network.costmodel import CostModelConfig

    spec = scenario.framework_spec
    topo = scenario.topology()
    plan = HolmesScheduler(alpha=spec.alpha).plan(
        topo,
        scenario.parallel,
        scenario.model,
        placement_strategy=spec.placement_strategy,
        partition_strategy=spec.partition_strategy,
    )
    force_ethernet = (not spec.nic_aware) and environment_is_heterogeneous(topo)
    cost_config = None
    if scenario.bandwidth_scale != 1.0:
        base = CostModelConfig()
        cost_config = _dc.replace(
            base,
            inter_cluster_uplink=base.inter_cluster_uplink * scenario.bandwidth_scale,
        )
    validation = None
    if scenario.validate:
        from repro.validate.hooks import ValidationHooks

        validation = ValidationHooks()
    return TrainingSimulation(
        plan,
        scenario.model,
        optimizer=spec.optimizer,
        schedule=scenario.schedule,
        num_chunks=scenario.num_chunks,
        cost_config=cost_config,
        force_ethernet=force_ethernet,
        trace_enabled=scenario.trace_enabled,
        stragglers=dict(scenario.stragglers) or None,
        tie_embeddings=scenario.tie_embeddings,
        fault_plan=scenario.fault_plan(topo),
        validation=validation,
        fidelity=scenario.fidelity,
    )


def simulate(scenario: Scenario):
    """Execute one scenario and return the full in-memory
    :class:`~repro.core.engine.IterationResult` (trace, metrics registry,
    attribution).  Use :func:`run` for the picklable/cacheable summary."""
    return build(scenario).run()


def summarize(scenario: Scenario, result) -> RunResult:
    """Fold an :class:`~repro.core.engine.IterationResult` into the
    scenario's :class:`RunResult`."""
    from repro.validate.replay import fingerprint

    fp = fingerprint(result)
    return RunResult(
        scenario=scenario.label or scenario.describe(),
        scenario_digest=scenario.digest(),
        env=scenario.env,
        framework=scenario.framework,
        world_size=scenario.world_size,
        trace_digest=fp.trace,
        metrics_digest=fp.metrics,
        num_spans=fp.num_spans,
        makespan=fp.makespan,
        iteration_time=result.iteration_time,
        tflops=result.tflops,
        throughput=result.throughput,
        reduce_scatter_time=result.reduce_scatter_time(),
        dp_rdma_fraction=result.audit.dp_rdma_fraction,
        optimizer_name=result.optimizer_name,
        num_faults=0 if result.faults is None else len(result.faults.records),
        aborted=result.aborted,
        bubble_fraction=result.metrics.bubble_fraction,
        comm_fraction=result.metrics.comm_fraction,
    )


def run(scenario: Scenario) -> RunResult:
    """Simulate one scenario and summarise it.

    This is the single-result entry point behind every CLI subcommand and
    sweep cell; it is what parallel workers execute and what the result
    cache stores.
    """
    return summarize(scenario, simulate(scenario))


def sweep(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache: Optional[object] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.05,
    on_error: str = "raise",
    resume: bool = False,
    journal: Optional[object] = None,
    events: Optional[object] = None,
    progress: bool = False,
    textfile: Optional[object] = None,
    ledger: Optional[object] = None,
    fidelity: Optional[str] = None,
) -> List[RunResult]:
    """Run a batch of scenarios; results come back in input order.

    ``jobs > 1`` fans work out over a supervised worker pool
    (:func:`repro.exec.run_sweep`); ``cache`` is a
    :class:`repro.exec.ResultCache` (or a path-like to open one at).  Any
    combination of (jobs, cache, serial, resumed) produces identical
    results.

    Fault handling: ``timeout`` bounds each scenario's wall clock (hung
    workers are killed and respawned), ``retries``/``backoff`` re-execute
    transient failures deterministically, and ``on_error="collect"``
    returns a :class:`repro.exec.SweepOutcome` — partial results plus a
    structured failure manifest — instead of raising
    :class:`repro.exec.SweepError` on the first exhausted scenario.
    ``resume=True`` journals completed scenarios durably and, after a
    crash or Ctrl-C, re-executes only unjournaled work.

    Telemetry (none of it affects result bytes — see
    :mod:`repro.obs.flight`): ``events`` controls the sweep event log
    (``None`` records iff journaling, ``True``/``False``/path force it),
    ``progress=True`` renders a live status line on stderr, ``textfile``
    refreshes a Prometheus textfile mid-campaign, and ``ledger`` appends
    the run to the cross-run ledger (``True`` or a path).

    ``fidelity`` (optional) overrides the fidelity tier of *every*
    scenario in the batch — the campaign-level spelling of
    ``Scenario.fidelity``.  The override participates in each scenario's
    digest, so ``auto`` sweeps never alias ``executed`` cache entries.
    """
    import dataclasses as _dc

    from repro.exec import run_sweep

    if fidelity is not None:
        scenarios = [
            _dc.replace(scenario, fidelity=str(fidelity))
            for scenario in scenarios
        ]
    return run_sweep(
        scenarios,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        on_error=on_error,
        resume=resume,
        journal=journal,
        events=events,
        progress=progress,
        textfile=textfile,
        ledger=ledger,
    )


def plan(
    scenario: Scenario,
    *,
    budget: int = 32,
    top_k: int = 4,
    fidelity: str = "auto",
    jobs: int = 1,
    cache: Optional[object] = None,
    **kwargs: object,
):
    """Discover the best parallel layout and policy preset for a scenario's
    machine, model, and workload — the NIC-aware auto-planner.

    ``scenario`` supplies everything but the answer: its own layout is what
    the framework-preset baselines run, and the search explores every
    feasible ``(t, p, d)`` x schedule x policy combination around it.
    ``fidelity`` selects the *search*-phase tier (``auto`` by default —
    the analytic fast path is what makes the space affordable); the top-k
    survivors and the preset baselines are always confirmed at the
    ``executed`` tier.  Returns a :class:`repro.plan.PlanResult`; remaining
    keyword arguments pass through to
    :func:`repro.plan.plan_scenario` (``resume``, ``journal``,
    ``progress``, ``schedules``, ``frameworks``, ``max_tensor``,
    ``tolerance``).
    """
    from repro.plan import plan_scenario

    return plan_scenario(
        scenario,
        budget=budget,
        top_k=top_k,
        search_fidelity=fidelity,
        jobs=jobs,
        cache=cache,
        **kwargs,  # type: ignore[arg-type]
    )


__all__ = [
    "FIDELITY_MODES",
    "FRAMEWORK_PRESETS",
    "RunResult",
    "Scenario",
    "build",
    "plan",
    "run",
    "schema",
    "simulate",
    "summarize",
    "sweep",
]

from repro.api import schema  # noqa: E402  (re-export; depends on the names above)
