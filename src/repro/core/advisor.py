"""NIC upgrade advisor: what is a faster network worth?

The paper's motivation is economic — dedicated homogeneous RDMA clusters
are expensive to build, so Holmes extracts performance from what exists.
The advisor answers the complementary procurement question: *given* my
clusters and model, which NIC upgrade buys the most throughput?

For every cluster it simulates swapping that cluster's NIC family to each
strictly better alternative (Ethernet → RoCE → InfiniBand), re-plans with
Holmes, and reports the throughput delta — so "upgrade cluster 0 to IB"
versus "upgrade cluster 1" can be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench.paramgroups import ParameterGroup
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.nic import NICType
from repro.hardware.node import Node
from repro.hardware.presets import nic_preset
from repro.hardware.topology import ClusterTopology

#: Upgrade ladder: what each family may be upgraded to.
_UPGRADES = {
    NICType.ETHERNET: [NICType.ROCE, NICType.INFINIBAND],
    NICType.ROCE: [NICType.INFINIBAND],
    NICType.INFINIBAND: [],
}


@dataclass(frozen=True)
class UpgradeOption:
    """One evaluated upgrade."""

    cluster_id: int
    from_family: NICType
    to_family: NICType
    baseline_throughput: float
    upgraded_throughput: float

    @property
    def speedup(self) -> float:
        return self.upgraded_throughput / self.baseline_throughput

    def describe(self) -> str:
        return (
            f"cluster {self.cluster_id}: {self.from_family.value} -> "
            f"{self.to_family.value}  "
            f"{self.baseline_throughput:.2f} -> "
            f"{self.upgraded_throughput:.2f} samples/s "
            f"({(self.speedup - 1) * 100:+.1f}%)"
        )


def upgrade_cluster_nic(
    topology: ClusterTopology, cluster_id: int, family: NICType
) -> ClusterTopology:
    """A copy of the machine with one cluster's RDMA NIC swapped."""
    if not family.is_rdma:
        raise ConfigurationError("upgrades target RDMA families only")
    new_spec = nic_preset(family)
    clusters: List[Cluster] = []
    found = False
    for cluster in topology.clusters:
        if cluster.cluster_id != cluster_id:
            clusters.append(cluster)
            continue
        found = True
        nodes = tuple(
            Node(
                node_id=node.node_id,
                gpu=node.gpu,
                num_gpus=node.num_gpus,
                ethernet_nic=node.ethernet_nic,
                rdma_nic=new_spec,
                intra_link=node.intra_link,
            )
            for node in cluster.nodes
        )
        clusters.append(Cluster(cluster_id=cluster.cluster_id, nodes=nodes))
    if not found:
        raise ConfigurationError(f"no cluster with id {cluster_id}")
    return ClusterTopology(
        clusters, inter_cluster_rdma=topology.inter_cluster_rdma
    )


def advise_upgrades(
    topology: ClusterTopology,
    group: ParameterGroup,
    framework: str = "holmes",
) -> List[UpgradeOption]:
    """Evaluate every single-cluster upgrade in one :func:`repro.api.sweep`
    over the upgraded machines; returns options sorted by throughput gain
    (best first).  ``framework`` names a :data:`repro.api.FRAMEWORK_PRESETS`
    entry."""
    from repro import api
    from repro.hardware.config_io import topology_to_dict

    upgrades = [
        (cluster, target)
        for cluster in topology.clusters
        for target in _UPGRADES[cluster.nic_type]
    ]
    machines = [topology] + [
        upgrade_cluster_nic(topology, cluster.cluster_id, target)
        for cluster, target in upgrades
    ]
    scenarios = [
        api.Scenario.from_group(
            "custom", topology.num_nodes, group,
            gpus_per_node=topology.gpus_per_node, framework=framework,
            trace_enabled=False, machine=topology_to_dict(machine),
        )
        for machine in machines
    ]
    baseline, *upgraded = (r.throughput for r in api.sweep(scenarios))
    options = [
        UpgradeOption(
            cluster_id=cluster.cluster_id,
            from_family=cluster.nic_type,
            to_family=target,
            baseline_throughput=baseline,
            upgraded_throughput=throughput,
        )
        for (cluster, target), throughput in zip(upgrades, upgraded)
    ]
    return sorted(options, key=lambda o: -o.upgraded_throughput)
