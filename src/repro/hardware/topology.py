"""Global topology: clusters, nodes, GPUs, and the paper's rank numbering.

The paper (§2.4) numbers clusters, nodes, and GPU devices sequentially: in
the *i*-th cluster, the *j*-th GPU of the *k*-th node receives global rank

    G * ((sum of node counts of clusters before i) + k - 1) + j

(1-based in the paper; this library uses 0-based ranks internally and keeps
the same ordering).  :class:`ClusterTopology` materialises that numbering and
answers the locality questions every other layer depends on: do two ranks
share a node?  a cluster?  which NIC families can they use to reach each
other?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.hardware.cluster import Cluster
from repro.hardware.nic import NICType, rdma_compatible
from repro.hardware.node import Node


@dataclass(frozen=True)
class DeviceInfo:
    """Placement of one global rank in the cluster/node/GPU hierarchy."""

    rank: int
    cluster_id: int
    node_global: int  # node index across all clusters, in numbering order
    node_local: int  # node index within its cluster
    gpu_index: int  # GPU index within its node

    def __str__(self) -> str:
        return (
            f"rank{self.rank}(c{self.cluster_id},n{self.node_local},g{self.gpu_index})"
        )


class ClusterTopology:
    """The full machine: an ordered collection of clusters.

    ``inter_cluster_rdma`` models the paper's two cases (§2.2): ``True``
    means high-speed interconnects join the clusters (Case 1 — effectively
    one large fabric, RDMA works between clusters of the same NIC family);
    ``False`` (Case 2, the interesting one) means clusters only reach each
    other over Ethernet.
    """

    def __init__(
        self, clusters: Sequence[Cluster], inter_cluster_rdma: bool = False
    ) -> None:
        if not clusters:
            raise TopologyError("topology needs at least one cluster")
        gpus_per_node = {c.gpus_per_node for c in clusters}
        if len(gpus_per_node) != 1:
            raise TopologyError(
                f"clusters disagree on GPUs per node: {sorted(gpus_per_node)}; "
                "the paper assumes a uniform G across nodes (S2.4)"
            )
        self.clusters: Tuple[Cluster, ...] = tuple(clusters)
        self.inter_cluster_rdma = inter_cluster_rdma
        self.gpus_per_node: int = next(iter(gpus_per_node))

        self._devices: List[DeviceInfo] = []
        #: global node index of every rank, in rank order
        rank_nodes: List[int] = []
        self._nodes: List[Node] = []  # indexed by node_global
        self._node_cluster: List[int] = []
        node_global = 0
        for cluster in self.clusters:
            for node_local, node in enumerate(cluster.nodes):
                self._nodes.append(node)
                self._node_cluster.append(cluster.cluster_id)
                rank_nodes += [node_global] * node.num_gpus
                for gpu_index in range(node.num_gpus):
                    self._devices.append(
                        DeviceInfo(
                            rank=len(self._devices),
                            cluster_id=cluster.cluster_id,
                            node_global=node_global,
                            node_local=node_local,
                            gpu_index=gpu_index,
                        )
                    )
                node_global += 1
        cluster_ids = [c.cluster_id for c in self.clusters]
        if len(set(cluster_ids)) != len(cluster_ids):
            raise TopologyError(f"duplicate cluster ids: {cluster_ids}")
        self.rank_nodes: Tuple[int, ...] = tuple(rank_nodes)
        self._node_classes: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def world_size(self) -> int:
        """Total number of GPU devices, N = G * sum(f_i)."""
        return len(self._devices)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def device(self, rank: int) -> DeviceInfo:
        """Placement info for a global rank."""
        if not 0 <= rank < self.world_size:
            raise TopologyError(f"rank {rank} out of range [0, {self.world_size})")
        return self._devices[rank]

    def node_of(self, rank: int) -> Node:
        """The :class:`Node` hosting a global rank."""
        return self._nodes[self.device(rank).node_global]

    def cluster_of(self, rank: int) -> Cluster:
        """The :class:`Cluster` hosting a global rank."""
        cid = self.device(rank).cluster_id
        for cluster in self.clusters:
            if cluster.cluster_id == cid:
                return cluster
        raise TopologyError(f"cluster {cid} vanished")  # pragma: no cover

    def node_classes(self) -> Tuple[int, ...]:
        """Per global node, a class id shared by the nodes of one cluster
        with equal NICs: every pair of nodes drawn from two given classes
        (or two distinct nodes of one class) resolves to the same
        transport."""
        if self._node_classes is None:
            ids: Dict[tuple, int] = {}
            self._node_classes = tuple(
                ids.setdefault((cid, node.ethernet_nic, node.rdma_nic), len(ids))
                for node, cid in zip(self._nodes, self._node_cluster)
            )
        return self._node_classes

    def ranks_of_node(self, node_global: int) -> List[int]:
        """All global ranks hosted on one node."""
        if not 0 <= node_global < self.num_nodes:
            raise TopologyError(f"node {node_global} out of range")
        g = self.gpus_per_node
        return list(range(node_global * g, (node_global + 1) * g))

    def ranks_of_cluster(self, cluster_id: int) -> List[int]:
        """All global ranks hosted in one cluster."""
        return [d.rank for d in self._devices if d.cluster_id == cluster_id]

    # ------------------------------------------------------------------ #
    # locality predicates
    # ------------------------------------------------------------------ #

    def same_node(self, a: int, b: int) -> bool:
        return self.device(a).node_global == self.device(b).node_global

    def same_cluster(self, a: int, b: int) -> bool:
        return self.device(a).cluster_id == self.device(b).cluster_id

    def nic_type_of(self, rank: int) -> NICType:
        """The preferred NIC family of the node hosting ``rank``."""
        return self.node_of(rank).nic_type

    # ------------------------------------------------------------------ #
    # transport resolution
    # ------------------------------------------------------------------ #

    def effective_nic_type(self, a: int, b: int) -> Optional[NICType]:
        """The best NIC family usable between two ranks, or ``None`` if the
        two ranks share a node (intra-node traffic never touches a NIC).

        Encodes the paper's compatibility rules:

        - same node -> no NIC (NVLink/PCIe);
        - same cluster, both RDMA -> the cluster's RDMA family;
        - different clusters without high-speed interconnect -> Ethernet;
        - different clusters *with* interconnect -> RDMA only if both ends
          use the *same* RDMA family (IB<->RoCE is incompatible), else
          Ethernet.
        """
        if self.same_node(a, b):
            return None
        ta, tb = self.nic_type_of(a), self.nic_type_of(b)
        if self.same_cluster(a, b):
            # homogeneous inside a cluster by construction
            return ta if ta.is_rdma else NICType.ETHERNET
        if self.inter_cluster_rdma and rdma_compatible(ta, tb):
            return ta
        return NICType.ETHERNET

    def group_nic_type(self, ranks: Sequence[int]) -> Optional[NICType]:
        """The best NIC family usable by *all* pairs of a group.

        Returns ``None`` when the whole group lives on one node.  For a
        multi-node group, this is the transport a ring collective over the
        group will run at: Ethernet as soon as any cross pair requires it,
        otherwise the common RDMA family.
        """
        ranks = list(ranks)
        if len(ranks) < 2:
            return None
        worst: Optional[NICType] = None
        priority = {NICType.INFINIBAND: 2, NICType.ROCE: 1, NICType.ETHERNET: 0}
        for i, a in enumerate(ranks):
            for b in ranks[i + 1 :]:
                eff = self.effective_nic_type(a, b)
                if eff is None:
                    continue
                if worst is None or priority[eff] < priority[worst]:
                    worst = eff
                if worst == NICType.ETHERNET:
                    return worst
        return worst

    def describe(self) -> str:
        """Human-readable multi-line summary of the machine."""
        lines = [
            f"ClusterTopology: {self.num_clusters} cluster(s), "
            f"{self.num_nodes} node(s), {self.world_size} GPU(s), "
            f"inter-cluster RDMA: {self.inter_cluster_rdma}"
        ]
        lines.extend(f"  {cluster}" for cluster in self.clusters)
        return "\n".join(lines)
