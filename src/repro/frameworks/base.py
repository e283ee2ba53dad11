"""The framework-preset abstraction and its runner."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.core.optimizer import OptimizerStrategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.engine import IterationResult
    from repro.hardware.topology import ClusterTopology
    from repro.model.config import GPTConfig
    from repro.network.costmodel import CostModelConfig
    from repro.parallel.degrees import ParallelConfig


@dataclass(frozen=True)
class FrameworkSpec:
    """A named policy bundle over the shared training engine."""

    name: str
    placement_strategy: str  # "holmes" | "identity"
    partition_strategy: str  # "self_adapting" | "uniform"
    optimizer: OptimizerStrategy
    nic_aware: bool
    alpha: float = 1.05  # Eq. 2 hyper-parameter (self-adapting partition)

    def with_overrides(self, **kwargs: object) -> "FrameworkSpec":
        """A copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)


def environment_is_heterogeneous(topology: ClusterTopology) -> bool:
    """Whether the machine mixes NIC families across its nodes — the
    condition under which NIC-oblivious frameworks fall back to Ethernet."""
    families = {
        topology.nic_type_of(topology.ranks_of_node(n)[0])
        for n in range(topology.num_nodes)
    }
    return len(families) > 1


def simulate_framework(
    spec: FrameworkSpec,
    topology: ClusterTopology,
    parallel: ParallelConfig,
    model: GPTConfig,
    schedule: str = "1f1b",
    num_chunks: int = 1,
    cost_config: Optional[CostModelConfig] = None,
    trace_enabled: bool = True,
    fidelity: str = "executed",
) -> IterationResult:
    """Plan and simulate one training iteration under a framework preset."""
    from repro.core.engine import TrainingSimulation
    from repro.core.scheduler import HolmesScheduler

    scheduler = HolmesScheduler(alpha=spec.alpha)
    plan = scheduler.plan(
        topology,
        parallel,
        model,
        placement_strategy=spec.placement_strategy,
        partition_strategy=spec.partition_strategy,
    )
    force_ethernet = (not spec.nic_aware) and environment_is_heterogeneous(topology)
    sim = TrainingSimulation(
        plan,
        model,
        optimizer=spec.optimizer,
        schedule=schedule,
        num_chunks=num_chunks,
        cost_config=cost_config,
        force_ethernet=force_ethernet,
        trace_enabled=trace_enabled,
        fidelity=fidelity,
    )
    return sim.run()
