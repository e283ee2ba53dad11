"""Network model: transports, communication cost models, and the fabric.

The fabric sits between the hardware topology and the collective library:
given two ranks (or a rank group) it resolves which transport their traffic
actually uses — NVLink inside a node, the cluster RDMA fabric when both ends
share a compatible RDMA family, TCP over Ethernet otherwise — and prices
transfers with an alpha-beta cost model that includes per-NIC contention.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Transport",
    "TransportKind",
    "resolve_transport",
    "CostModelConfig",
    "CollectiveCostModel",
    "concurrent_groups_per_nic",
    "group_node_span",
    "Fabric",
    "FabricHealth",
    "FaultStats",
    "NicHealth",
    "RetryPolicy",
    "delivery_probability",
    "expected_attempts",
    "expected_retry_overhead",
    "reliable_transfer_time",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.transport": ("Transport", "TransportKind", "resolve_transport"),
    "repro.network.costmodel": ("CostModelConfig", "CollectiveCostModel"),
    "repro.network.contention": ("concurrent_groups_per_nic", "group_node_span"),
    "repro.network.fabric": ("Fabric",),
    "repro.network.health": ("FabricHealth", "FaultStats", "NicHealth"),
    "repro.network.reliability": (
        "RetryPolicy",
        "delivery_probability",
        "expected_attempts",
        "expected_retry_overhead",
        "reliable_transfer_time",
    ),
})
