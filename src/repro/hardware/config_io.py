"""JSON serialisation of machines, so topologies live in files and scenarios.

A hand-written machine file looks like::

    {
      "inter_cluster_rdma": false,
      "gpus_per_node": 8,
      "gpu": {"name": "A100-80GB", "peak_tflops": 312, "memory_gb": 80,
              "mfu": 0.78},
      "clusters": [
        {"nodes": 2, "nic": "roce"},
        {"nodes": 2, "nic": "infiniband"}
      ],
      "nics": {
        "roce": {"gbps": 200, "latency_us": 6, "efficiency": 0.55,
                 "compute_drag": 0.18}
      }
    }

Unspecified NIC families and the GPU fall back to the calibrated presets,
so a minimal file is just the cluster shapes.  Quantities may also be given
exactly in SI units — ``bandwidth`` (bytes/s), ``latency`` (s),
``peak_flops``, ``memory_bytes`` — as numbers or ``repr`` string tokens.

:func:`canonical_machine` resolves every default and writes that exact SI
spelling, one NIC entry per family in use; it is what
:func:`topology_to_dict` and :func:`dump_topology` emit and what
:attr:`repro.api.Scenario.machine` carries, so a dumped machine loads back
bit for bit.  Validation costs O(size of the dict), never O(node count),
and every malformed machine raises :class:`ConfigurationError`.
"""

from __future__ import annotations

import json
import math
from typing import IO, Dict, List, Mapping, Tuple, Union

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUSpec
from repro.hardware.nic import NICSpec, NICType
from repro.hardware.node import Node
from repro.hardware.presets import A100, GPUS_PER_NODE, NVLINK, nic_preset
from repro.hardware.topology import ClusterTopology
from repro.units import GB, gbps, microseconds, teraflops

_FAMILY_NAMES = {f.value: f for f in NICType}
_MACHINE_KEYS = ("inter_cluster_rdma", "gpus_per_node", "gpu", "clusters", "nics")
_GPU_KEYS = ("name", "peak_flops", "peak_tflops", "memory_bytes", "memory_gb", "mfu")
_NIC_KEYS = ("name", "bandwidth", "gbps", "latency", "latency_us", "efficiency",
             "compute_drag")

#: (inter_cluster_rdma, gpus_per_node, gpu, [(nodes, family)], {family: nic})
_Machine = Tuple[bool, int, GPUSpec, List[Tuple[int, NICType]], Dict[NICType, NICSpec]]


def _mapping(value: object, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{where} must be a mapping, got {value!r}")
    return value


def _check_keys(data: Mapping, allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(str(key) for key in data if key not in allowed)
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {unknown}")


def _number(value: object, where: str) -> float:
    """A finite float from a JSON number or an exact ``repr`` token."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigurationError(f"{where} must be finite, got {value!r}")
    return number


def _count(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{where} must be an integer >= 1, got {value!r}")
    return value


def _name(spec: Mapping, default: str, where: str) -> str:
    name = spec.get("name", default)
    if not isinstance(name, str):
        raise ConfigurationError(f"{where}.name must be a string, got {name!r}")
    return name


def _family(value: object, where: str) -> NICType:
    if not isinstance(value, str) or value not in _FAMILY_NAMES:
        raise ConfigurationError(
            f"{where}: unknown NIC family {value!r}; choose from {sorted(_FAMILY_NAMES)}"
        )
    return _FAMILY_NAMES[value]


def _quantity(spec: Mapping, si_key: str, unit_key: str, convert, default, where: str):
    """``spec[si_key]`` exactly, else ``convert(spec[unit_key])``, else
    ``default``; giving both spellings is ambiguous."""
    if si_key in spec and unit_key in spec:
        raise ConfigurationError(f"{where}: give {si_key!r} or {unit_key!r}, not both")
    if si_key in spec:
        return _number(spec[si_key], f"{where}.{si_key}")
    if unit_key in spec:
        return convert(_number(spec[unit_key], f"{where}.{unit_key}"))
    return default


def _nic(family: NICType, spec: object) -> NICSpec:
    where = f"nics.{family.value}"
    spec = _mapping(spec, where)
    _check_keys(spec, _NIC_KEYS, where)
    base = nic_preset(family)
    return NICSpec(
        nic_type=family,
        bandwidth=_quantity(spec, "bandwidth", "gbps", gbps, base.bandwidth, where),
        latency=_quantity(
            spec, "latency", "latency_us", microseconds, base.latency, where
        ),
        efficiency=_number(spec.get("efficiency", base.efficiency), f"{where}.efficiency"),
        compute_drag=_number(
            spec.get("compute_drag", base.compute_drag), f"{where}.compute_drag"
        ),
        name=_name(spec, base.name, where),
    )


def _gpu(spec: object) -> GPUSpec:
    spec = _mapping(spec, "gpu")
    _check_keys(spec, _GPU_KEYS, "gpu")
    peak = _quantity(spec, "peak_flops", "peak_tflops", teraflops, None, "gpu")
    memory = _quantity(spec, "memory_bytes", "memory_gb", lambda gb: gb * GB, None, "gpu")
    if peak is None or memory is None:
        raise ConfigurationError("gpu needs its peak rate and its memory size")
    return GPUSpec(
        name=_name(spec, "custom-gpu", "gpu"),
        peak_flops=peak,
        memory_bytes=int(memory),
        base_mfu=_number(spec.get("mfu", 0.78), "gpu.mfu"),
    )


def _resolve(data: object) -> _Machine:
    """Parse and check a machine dict without building its nodes."""
    data = _mapping(data, "machine")
    _check_keys(data, _MACHINE_KEYS, "machine")
    clusters = data.get("clusters")
    if not isinstance(clusters, (list, tuple)) or not clusters:
        raise ConfigurationError("machine needs a non-empty 'clusters' list")
    inter = data.get("inter_cluster_rdma", False)
    if not isinstance(inter, bool):
        raise ConfigurationError(f"inter_cluster_rdma must be true or false, got {inter!r}")
    gpus_per_node = _count(data.get("gpus_per_node", GPUS_PER_NODE), "gpus_per_node")
    gpu = _gpu(data["gpu"]) if "gpu" in data else A100
    overrides = _mapping(data.get("nics", {}), "nics")
    nics = {family: nic_preset(family) for family in NICType}
    for name, spec in overrides.items():
        family = _family(name, "nics")
        nics[family] = _nic(family, spec)
    shapes: List[Tuple[int, NICType]] = []
    for index, shape in enumerate(clusters):
        where = f"clusters[{index}]"
        shape = _mapping(shape, where)
        _check_keys(shape, ("nodes", "nic"), where)
        if "nodes" not in shape:
            raise ConfigurationError(f"{where} needs a node count")
        shapes.append((
            _count(shape["nodes"], f"{where}.nodes"),
            _family(shape.get("nic", "ethernet"), where),
        ))
    used = {NICType.ETHERNET} | {family for _, family in shapes}
    nics = {family: nic for family, nic in nics.items() if family in used}
    return inter, gpus_per_node, gpu, shapes, nics


def _token(value: float) -> str:
    """Exact float encoding: ``repr`` round-trips every double."""
    return repr(float(value))


def _encode(machine: _Machine) -> Dict[str, object]:
    inter, gpus_per_node, gpu, shapes, nics = machine
    return {
        "inter_cluster_rdma": inter,
        "gpus_per_node": gpus_per_node,
        "gpu": {
            "name": gpu.name,
            "peak_flops": _token(gpu.peak_flops),
            "memory_bytes": gpu.memory_bytes,
            "mfu": _token(gpu.base_mfu),
        },
        "clusters": [{"nodes": count, "nic": family.value} for count, family in shapes],
        "nics": {
            family.value: {
                "name": nic.name,
                "bandwidth": _token(nic.bandwidth),
                "latency": _token(nic.latency),
                "efficiency": _token(nic.efficiency),
                "compute_drag": _token(nic.compute_drag),
            }
            for family, nic in nics.items()
        },
    }


def canonical_machine(data: object) -> Dict[str, object]:
    """The exact, fully resolved form of a machine dict (idempotent)."""
    return _encode(_resolve(data))


def machine_shape(machine: Mapping) -> Tuple[int, int]:
    """``(nodes, gpus_per_node)`` of a canonical machine dict."""
    nodes = sum(cluster["nodes"] for cluster in machine["clusters"])
    return nodes, machine["gpus_per_node"]


def topology_from_dict(data: object) -> ClusterTopology:
    """Build a :class:`ClusterTopology` from a parsed machine dict."""
    inter, gpus_per_node, gpu, shapes, nics = _resolve(data)
    ethernet = nics[NICType.ETHERNET]
    clusters: List[Cluster] = []
    node_id = 0
    for cluster_id, (count, family) in enumerate(shapes):
        rdma = nics[family] if family.is_rdma else None
        nodes = tuple(
            Node(
                node_id=node_id + i,
                gpu=gpu,
                num_gpus=gpus_per_node,
                ethernet_nic=ethernet,
                rdma_nic=rdma,
                intra_link=NVLINK,
            )
            for i in range(count)
        )
        node_id += count
        clusters.append(Cluster(cluster_id=cluster_id, nodes=nodes))
    return ClusterTopology(clusters, inter_cluster_rdma=inter)


def topology_to_dict(topology: ClusterTopology) -> Dict[str, object]:
    """Serialise a machine into its canonical dict (lossy only for machines
    the format cannot express: each NIC family's spec comes from its first
    node, the GPU from node 0, and intra-node links load back as NVLink)."""
    nics: Dict[NICType, NICSpec] = {}
    shapes = []
    for cluster in topology.clusters:
        node = cluster.nodes[0]
        shapes.append((cluster.num_nodes, cluster.nic_type))
        for nic in filter(None, (node.rdma_nic, node.ethernet_nic)):
            nics.setdefault(nic.nic_type, nic)
    return _encode((
        topology.inter_cluster_rdma,
        topology.gpus_per_node,
        topology.node_of(0).gpu,
        shapes,
        nics,
    ))


def load_topology(source: Union[str, IO[str]]) -> ClusterTopology:
    """Load a machine from a JSON file path or file object."""
    if isinstance(source, str):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = json.load(source)
    return topology_from_dict(data)


def dump_topology(topology: ClusterTopology, target: Union[str, IO[str]]) -> None:
    """Write a machine to a JSON file path or file object."""
    data = topology_to_dict(topology)
    if isinstance(target, str):
        with open(target, "w") as fh:
            json.dump(data, fh, indent=2)
    else:
        json.dump(data, target, indent=2)
