"""Seeded random scenario sampling for the metamorphic harness.

A :class:`ScenarioSpec` is a small, fully deterministic description of one
simulated training configuration: environment, machine shape, model, and
parallelism.  The sampler draws specs from a stdlib
:class:`random.Random` — no global state, no wall clock — so a (seed, index)
pair always names the same scenario, which is what lets the ``repro
validate`` CLI and the pytest parametrizations share failures by seed.

Scenarios are deliberately tiny (2–4 nodes, 2–4 GPUs per node, toy GPT
configs): metamorphic relations compare *relative* behaviour, which the
small configurations exercise just as well as the paper-scale ones, at
milliseconds per run.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.bench.scenarios import (
    ethernet_env,
    homogeneous_env,
    hybrid2_env,
    split_env,
)
from repro.faults.plan import FaultPlan
from repro.hardware.nic import NICType
from repro.hardware.topology import ClusterTopology
from repro.model.config import GPTConfig
from repro.parallel.degrees import ParallelConfig

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.engine import IterationResult, TrainingSimulation

#: environment name -> topology builder(nodes, gpus_per_node)
ENV_BUILDERS: Dict[str, Callable[[int, int], ClusterTopology]] = {
    "ib": lambda n, g: homogeneous_env(n, NICType.INFINIBAND, gpus_per_node=g),
    "roce": lambda n, g: homogeneous_env(n, NICType.ROCE, gpus_per_node=g),
    "ethernet": lambda n, g: ethernet_env(n, gpus_per_node=g),
    "hybrid": lambda n, g: hybrid2_env(n, gpus_per_node=g),
    "split-ib": lambda n, g: split_env(n, NICType.INFINIBAND, gpus_per_node=g),
    "split-roce": lambda n, g: split_env(n, NICType.ROCE, gpus_per_node=g),
}

#: virtual-time horizon (seconds) fault events are sampled within
FAULT_HORIZON = 0.5


def scaled_topology(topo: ClusterTopology, factor: float) -> ClusterTopology:
    """The same machine with every link's bandwidth scaled by ``factor``
    (NICs and intra-node links alike); latencies and overheads unchanged.
    Used by the bandwidth-monotonicity relation."""

    def scale_nic(nic):
        return dataclasses.replace(nic, bandwidth=nic.bandwidth * factor)

    clusters = []
    for cluster in topo.clusters:
        nodes = tuple(
            dataclasses.replace(
                node,
                ethernet_nic=scale_nic(node.ethernet_nic),
                rdma_nic=scale_nic(node.rdma_nic) if node.rdma_nic else None,
                intra_link=(
                    dataclasses.replace(
                        node.intra_link,
                        bandwidth=node.intra_link.bandwidth * factor,
                    )
                    if node.intra_link
                    else None
                ),
            )
            for node in cluster.nodes
        )
        clusters.append(dataclasses.replace(cluster, nodes=nodes))
    return ClusterTopology(clusters, inter_cluster_rdma=topo.inter_cluster_rdma)


@dataclass(frozen=True)
class ScenarioSpec:
    """One deterministic simulated-training scenario."""

    name: str
    env: str
    nodes: int
    gpus_per_node: int
    num_layers: int
    hidden: int
    heads: int
    tensor: int
    pipeline: int
    data: int
    micro_batch_size: int
    num_microbatches: int
    schedule: str = "1f1b"
    num_chunks: int = 1
    #: ``None`` for a fault-free scenario, else the ``FaultPlan.random`` seed
    fault_seed: Optional[int] = None
    fault_events: int = 3
    #: fidelity tier ("executed" | "analytic" | "auto"); see
    #: :class:`repro.network.contention.FidelityPolicy`
    fidelity: str = "executed"

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpus_per_node

    @property
    def model(self) -> GPTConfig:
        return GPTConfig(self.num_layers, self.hidden, self.heads)

    @property
    def parallel(self) -> ParallelConfig:
        return ParallelConfig(
            tensor=self.tensor,
            pipeline=self.pipeline,
            data=self.data,
            micro_batch_size=self.micro_batch_size,
            global_batch_size=self.data * self.micro_batch_size * self.num_microbatches,
        )

    def topology(self, bandwidth_scale: float = 1.0) -> ClusterTopology:
        topo = ENV_BUILDERS[self.env](self.nodes, self.gpus_per_node)
        if bandwidth_scale != 1.0:
            topo = scaled_topology(topo, bandwidth_scale)
        return topo

    def fault_plan(self, topo: ClusterTopology) -> Optional[FaultPlan]:
        if self.fault_seed is None:
            return None
        return FaultPlan.random(
            topo, FAULT_HORIZON, seed=self.fault_seed, num_events=self.fault_events
        )

    def build(
        self,
        bandwidth_scale: float = 1.0,
        validation: Optional[object] = None,
        stragglers: Optional[Dict[int, float]] = None,
        with_faults: bool = True,
        num_microbatches: Optional[int] = None,
        trace_enabled: bool = True,
        fidelity: Optional[str] = None,
    ) -> TrainingSimulation:
        """Construct the simulation this spec describes.

        ``bandwidth_scale`` scales every link (and the inter-cluster uplink
        budget in the cost model) — the bandwidth-relation transform;
        ``num_microbatches`` overrides the workload — the workload-relation
        transform; ``with_faults=False`` strips the fault plan so monotonic
        relations are not confounded by wall-clock-anchored fault windows.
        """
        from repro.core.engine import TrainingSimulation
        from repro.core.scheduler import HolmesScheduler
        from repro.network.costmodel import CostModelConfig

        topo = self.topology(bandwidth_scale)
        m = num_microbatches if num_microbatches is not None else self.num_microbatches
        parallel = ParallelConfig(
            tensor=self.tensor,
            pipeline=self.pipeline,
            data=self.data,
            micro_batch_size=self.micro_batch_size,
            global_batch_size=self.data * self.micro_batch_size * m,
        )
        plan = HolmesScheduler().plan(topo, parallel, self.model)
        cost_config = None
        if bandwidth_scale != 1.0:
            base = CostModelConfig()
            cost_config = dataclasses.replace(
                base, inter_cluster_uplink=base.inter_cluster_uplink * bandwidth_scale
            )
        return TrainingSimulation(
            plan,
            self.model,
            schedule=self.schedule,
            num_chunks=self.num_chunks,
            cost_config=cost_config,
            stragglers=stragglers,
            fault_plan=self.fault_plan(topo) if with_faults else None,
            trace_enabled=trace_enabled,
            validation=validation,
            fidelity=fidelity if fidelity is not None else self.fidelity,
        )

    def run(self, **kwargs: object) -> IterationResult:
        """Build and execute; keyword arguments as :meth:`build`."""
        return self.build(**kwargs).run()  # type: ignore[arg-type]

    def to_scenario(self):
        """This spec as a :class:`repro.api.Scenario`.

        :meth:`build` plans with the default scheduler (Holmes placement,
        Eq. 2 partition) and the engine's default distributed optimizer —
        exactly the ``holmes-no-overlap`` framework preset — so the bridge
        is behaviour-preserving: ``spec.to_scenario()`` and ``spec.run()``
        produce byte-identical replays.  This is what lets the metamorphic
        harness ride the parallel executor and the result cache.
        """
        from repro.api import Scenario

        return Scenario(
            env=self.env,
            nodes=self.nodes,
            gpus_per_node=self.gpus_per_node,
            num_layers=self.num_layers,
            hidden_size=self.hidden,
            num_attention_heads=self.heads,
            tensor=self.tensor,
            pipeline=self.pipeline,
            data=self.data,
            micro_batch_size=self.micro_batch_size,
            num_microbatches=self.num_microbatches,
            schedule=self.schedule,
            num_chunks=self.num_chunks,
            framework="holmes-no-overlap",
            fault_seed=self.fault_seed,
            fault_count=self.fault_events,
            fault_horizon=FAULT_HORIZON,
            fidelity=self.fidelity,
            label=self.name,
        )

    def describe(self) -> str:
        faults = f", faults(seed={self.fault_seed})" if self.fault_seed is not None else ""
        return (
            f"{self.name}: {self.env} {self.nodes}x{self.gpus_per_node}, "
            f"t{self.tensor} p{self.pipeline} d{self.data} "
            f"mb{self.micro_batch_size} m{self.num_microbatches} "
            f"{self.schedule}x{self.num_chunks}, "
            f"gpt({self.num_layers}L,{self.hidden}h,{self.heads}a){faults}"
        )


def _divisor_choices(world: int, options: List[int]) -> List[int]:
    return [o for o in options if world % o == 0]


def sample_scenario(rng: random.Random, index: int) -> ScenarioSpec:
    """Draw one valid scenario from ``rng`` (rejection-free by construction)."""
    env = rng.choice(sorted(ENV_BUILDERS))
    # even node counts keep hybrid/split (two equal cluster halves) valid
    nodes = rng.choice([2, 4])
    gpn = rng.choice([2, 4])
    world = nodes * gpn

    tensor = rng.choice([t for t in (1, 2) if gpn % t == 0])
    pipeline = rng.choice(_divisor_choices(world // tensor, [1, 2, 4]))
    data = world // (tensor * pipeline)

    schedule = rng.choice(["1f1b", "1f1b", "gpipe", "interleaved"])
    if schedule == "interleaved" and pipeline < 2:
        # the chunk wrap-around transfer needs a distinct next stage
        schedule = "1f1b"
    num_chunks = 1
    num_layers = rng.choice([4, 6, 8])
    if schedule == "interleaved":
        num_chunks = 2
        num_layers = max(num_layers, 2 * pipeline)
    else:
        num_layers = max(num_layers, pipeline)

    micro_batch = rng.choice([1, 2])
    m_choices = [2, 4, 8]
    if schedule == "interleaved" and num_chunks > 1:
        # interleaved_1f1b requires microbatches divisible by stages
        m_choices = [m for m in m_choices if m % pipeline == 0] or [pipeline * 2]
    num_microbatches = rng.choice(m_choices)

    hidden = rng.choice([256, 512])
    heads = rng.choice([4, 8])

    fault_seed = rng.randrange(1 << 16) if rng.random() < 0.35 else None

    return ScenarioSpec(
        name=f"s{index:03d}",
        env=env,
        nodes=nodes,
        gpus_per_node=gpn,
        num_layers=num_layers,
        hidden=hidden,
        heads=heads,
        tensor=tensor,
        pipeline=pipeline,
        data=data,
        micro_batch_size=micro_batch,
        num_microbatches=num_microbatches,
        schedule=schedule,
        num_chunks=num_chunks,
        fault_seed=fault_seed,
    )


def sample_scenarios(n: int, seed: int = 0) -> List[ScenarioSpec]:
    """``n`` deterministic scenarios for ``seed`` (stdlib RNG only)."""
    rng = random.Random(seed)
    return [sample_scenario(rng, i) for i in range(n)]
