"""The framework-preset abstraction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.optimizer import OptimizerStrategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.hardware.topology import ClusterTopology


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
