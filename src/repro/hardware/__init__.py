"""Hardware model: NICs, GPUs, intra-node links, nodes, clusters, topology.

This subpackage is the simulated stand-in for the paper's physical testbed
(NVIDIA A100 nodes with InfiniBand / RoCE / Ethernet NICs).  Everything the
scheduler and network model need to know about the machine — rank numbering,
NIC types per node, which pairs of ranks share a node or a cluster — lives in
:class:`~repro.hardware.topology.ClusterTopology`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NICType",
    "NICSpec",
    "GPUSpec",
    "LinkType",
    "LinkSpec",
    "Node",
    "Cluster",
    "ClusterTopology",
    "DeviceInfo",
    "presets",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hardware.nic": ("NICType", "NICSpec"),
    "repro.hardware.gpu": ("GPUSpec",),
    "repro.hardware.link": ("LinkType", "LinkSpec"),
    "repro.hardware.node": ("Node",),
    "repro.hardware.cluster": ("Cluster",),
    "repro.hardware.topology": ("ClusterTopology", "DeviceInfo"),
}, submodules=("presets",))
