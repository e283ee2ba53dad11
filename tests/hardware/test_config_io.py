"""Tests for JSON machine files."""

import io
import json

import pytest

from repro.bench.scenarios import hybrid3_env
from repro.errors import ConfigurationError
from repro.hardware.config_io import (
    canonical_machine,
    dump_topology,
    load_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.hardware.nic import NICType
from repro.hardware.presets import IB_200, make_topology
from repro.units import gbps
from repro.validate.scenarios import ENV_BUILDERS

R, IB = NICType.ROCE, NICType.INFINIBAND
#: every machine of the paper's evaluation: the six named environments
#: and Table 4's three-cluster layouts
PAPER_MACHINES = {
    **{f"{env}-{nodes}x{gpus}": build(nodes, gpus)
       for env, build in ENV_BUILDERS.items()
       for nodes, gpus in ((4, 8), (8, 8), (2, 2))},
    "hybrid3-2R2R2IB": hybrid3_env([R, R, IB], 2),
    "hybrid3-2R2IB2IB": hybrid3_env([R, IB, IB], 2),
    "hybrid3-4R4IB4IB": hybrid3_env([R, IB, IB], 4),
}


class TestFromDict:
    def test_minimal_machine(self):
        topo = topology_from_dict(
            {"clusters": [{"nodes": 2, "nic": "roce"},
                          {"nodes": 2, "nic": "infiniband"}]}
        )
        assert topo.world_size == 32
        assert topo.clusters[0].nic_type == NICType.ROCE
        assert not topo.inter_cluster_rdma
        # NIC falls back to the calibrated preset.
        assert topo.node_of(16).rdma_nic.bandwidth == IB_200.bandwidth

    def test_custom_gpu_and_nic(self):
        topo = topology_from_dict(
            {
                "gpus_per_node": 4,
                "gpu": {"name": "H100", "peak_tflops": 989, "memory_gb": 96,
                        "mfu": 0.5},
                "clusters": [{"nodes": 1, "nic": "roce"}],
                "nics": {"roce": {"gbps": 400, "efficiency": 0.8,
                                  "latency_us": 3, "compute_drag": 0.1}},
            }
        )
        assert topo.gpus_per_node == 4
        node = topo.node_of(0)
        assert node.gpu.name == "H100"
        assert node.rdma_nic.bandwidth == pytest.approx(gbps(400))
        assert node.rdma_nic.compute_drag == 0.1

    def test_ethernet_only_cluster(self):
        topo = topology_from_dict({"clusters": [{"nodes": 1, "nic": "ethernet"}]})
        assert topo.node_of(0).rdma_nic is None

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"clusters": []},
            {"clusters": [{"nodes": 0, "nic": "roce"}]},
            {"clusters": [{"nodes": 1, "nic": "token-ring"}]},
            {"clusters": [{"nodes": 1, "nic": "roce"}],
             "nics": {"warp": {"gbps": 1}}},
            [],
            "machine",
            {"clusters": [1]},
            {"clusters": "roce"},
            {"clusters": [{"nic": "roce"}]},
            {"clusters": [{"nodes": "2"}]},
            {"clusters": [{"nodes": True}]},
            {"clusters": [{"nodes": 1.5}]},
            {"clusters": [{"nodes": 1, "nic": ["roce"]}]},
            {"clusters": [{"nodes": 1, "racks": 2}]},
            {"clusters": [{"nodes": 1}], "colour": "red"},
            {"clusters": [{"nodes": 1}], "nics": [1]},
            {"clusters": [{"nodes": 1}], "nics": {"roce": 5}},
            {"clusters": [{"nodes": 1}], "nics": {"ethernet": {"gbps": "nan"}}},
            {"clusters": [{"nodes": 1}], "nics": {"ethernet": {"gbps": "1e309"}}},
            {"clusters": [{"nodes": 1}], "nics": {"ethernet": {"gbps": [25]}}},
            {"clusters": [{"nodes": 1}], "nics": {"ethernet": {"gbps": 0}}},
            {"clusters": [{"nodes": 1}], "nics": {"ethernet": {"latency": "-1"}}},
            {"clusters": [{"nodes": 1}], "nics": {"ethernet": {"name": 7}}},
            {"clusters": [{"nodes": 1}],
             "nics": {"ethernet": {"gbps": 25, "bandwidth": 3.125e9}}},
            {"clusters": [{"nodes": 1}], "gpus_per_node": 0},
            {"clusters": [{"nodes": 1}], "inter_cluster_rdma": "yes"},
            {"clusters": [{"nodes": 1}], "gpu": []},
            {"clusters": [{"nodes": 1}], "gpu": {"peak_tflops": 312}},
            {"clusters": [{"nodes": 1}],
             "gpu": {"peak_tflops": 312, "memory_gb": 80, "mfu": 2}},
        ],
    )
    def test_invalid_machines_rejected(self, data):
        with pytest.raises(ConfigurationError):
            canonical_machine(data)
        with pytest.raises(ConfigurationError):
            topology_from_dict(data)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PAPER_MACHINES))
    def test_paper_machines_round_trip_exactly(self, name):
        original = PAPER_MACHINES[name]
        data = topology_to_dict(original)
        for restored in (topology_from_dict(data),
                         topology_from_dict(json.loads(json.dumps(data)))):
            assert restored.inter_cluster_rdma == original.inter_cluster_rdma
            assert restored.clusters == original.clusters  # every spec, bit for bit
            assert topology_to_dict(restored) == data
        assert canonical_machine(data) == data

    def test_dict_round_trip(self):
        original = make_topology(
            [(2, NICType.ROCE), (3, NICType.INFINIBAND)],
            inter_cluster_rdma=True,
        )
        restored = topology_from_dict(topology_to_dict(original))
        assert restored.world_size == original.world_size
        assert restored.inter_cluster_rdma == original.inter_cluster_rdma
        assert [c.nic_type for c in restored.clusters] == [
            c.nic_type for c in original.clusters
        ]
        assert (
            restored.node_of(0).rdma_nic.efficiency
            == original.node_of(0).rdma_nic.efficiency
        )

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "machine.json")
        original = make_topology([(2, NICType.INFINIBAND)])
        dump_topology(original, path)
        restored = load_topology(path)
        assert restored.world_size == original.world_size

    def test_fileobj_round_trip(self):
        original = make_topology([(1, NICType.ROCE)])
        buffer = io.StringIO()
        dump_topology(original, buffer)
        buffer.seek(0)
        restored = load_topology(buffer)
        assert restored.clusters[0].nic_type == NICType.ROCE

    def test_dump_is_valid_json(self, tmp_path):
        path = str(tmp_path / "m.json")
        dump_topology(make_topology([(1, NICType.ROCE)]), path)
        data = json.loads(open(path).read())
        assert data["clusters"][0]["nic"] == "roce"
        assert "roce" in data["nics"]


class TestCLIIntegration:
    def test_machine_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "machine.json")
        dump_topology(
            make_topology([(1, NICType.ROCE), (1, NICType.INFINIBAND)],
                          gpus_per_node=2),
            path,
        )
        assert main(["topology", "--machine", path]) == 0
        out = capsys.readouterr().out
        assert "2 cluster(s)" in out

    def test_topology_save(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "saved.json")
        assert main(["topology", "--nodes", "4", "--env", "hybrid",
                     "--save", path]) == 0
        data = json.loads(open(path).read())
        assert len(data["clusters"]) == 2
