"""End-to-end integration tests at the paper's real scales.

These run the full pipeline (scheduler -> engine -> metrics) on the actual
testbed shapes (8-GPU nodes, 32-96 GPUs) and check the paper's qualitative
claims hold — the *shape* requirements of the reproduction.
"""

import pytest

from repro import quick_simulate
from repro.api import run
from repro.bench.paper_data import shapes_hold
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.bench.scenarios import hybrid2_env, hybrid3_env
from repro.hardware.config_io import topology_to_dict
from repro.hardware.nic import NICType


def cell(env, nodes, group_id):
    return run(case_scenario(env, nodes, group_id))


def hybrid3_cell(families, nodes_per_cluster, group_id):
    machine = topology_to_dict(hybrid3_env(families, nodes_per_cluster))
    return run(case_scenario(
        "hybrid3", 3 * nodes_per_cluster, group_id, machine=machine
    ))


def sweep(group_id, nodes):
    return {
        env: cell(env, nodes, group_id).tflops
        for env in ("InfiniBand", "RoCE", "Ethernet", "Hybrid")
    }


class TestPaperShapes:
    """Abstract claim: 'performance levels close to those achievable with
    homogeneous RDMA-capable networks, significantly exceeding training
    efficiency within the pure Ethernet environment.'"""

    @pytest.mark.parametrize("group_id,nodes", [(1, 4), (2, 4), (3, 4), (3, 8)])
    def test_environment_ordering(self, group_id, nodes):
        measured = sweep(group_id, nodes)
        claims = shapes_hold(measured)
        assert claims["ib_fastest"], measured
        assert claims["rdma_beats_ethernet"], measured
        assert claims["hybrid_between"], measured
        assert claims["hybrid_close_to_rdma"], measured
        assert claims["hybrid_beats_ethernet_clearly"], measured

    def test_tflops_declines_with_scale_at_fixed_batch(self):
        """Table 3's scaling shape: fixed global batch, more GPUs -> lower
        per-GPU TFLOPS (communication share grows, microbatches shrink)."""
        t4, t6, t8 = (cell("ib", nodes, 1).tflops for nodes in (4, 6, 8))
        assert t4 > t6 > t8

    def test_throughput_grows_with_scale(self):
        t4, t8 = (cell("ib", nodes, 1).throughput for nodes in (4, 8))
        assert t8 > t4


class TestCase2CrossCluster:
    """Figure 4: training across clusters without high-speed interconnects."""

    @pytest.mark.parametrize("family", [NICType.INFINIBAND, NICType.ROCE])
    def test_split_env_between_bounds(self, family):
        short = {NICType.INFINIBAND: "ib", NICType.ROCE: "roce"}[family]
        upper = cell(short, 4, 1).tflops
        lower = cell("ethernet", 4, 1).tflops
        split = cell(f"split-{short}", 4, 1).tflops
        assert lower < split <= upper * 1.02

    def test_split_env_dp_keeps_rdma(self):
        assert cell("split-ib", 4, 1).dp_rdma_fraction == 1.0


class TestThreeClusters:
    """Table 4: three clusters, pipeline degree 3."""

    @pytest.mark.parametrize(
        "families",
        [
            [NICType.ROCE, NICType.ROCE, NICType.INFINIBAND],
            [NICType.ROCE, NICType.INFINIBAND, NICType.INFINIBAND],
        ],
    )
    def test_hybrid3_beats_ethernet(self, families):
        hybrid = hybrid3_cell(families, 2, 5)  # PG5: p=3
        eth = cell("ethernet", 6, 5)
        assert hybrid.tflops > eth.tflops
        assert hybrid.dp_rdma_fraction == 1.0

    def test_hybrid3_at_12_nodes(self):
        result = hybrid3_cell(
            [NICType.ROCE, NICType.INFINIBAND, NICType.INFINIBAND], 4, 6
        )
        assert result.world_size == 96
        assert result.tflops > 0


class TestQuickSimulate:
    def test_public_api_entry_point(self):
        result = quick_simulate(hybrid2_env(4), PARAM_GROUPS[1])
        assert result.tflops > 0

    def test_full_configuration_faster_in_hybrid(self):
        base = quick_simulate(hybrid2_env(8), PARAM_GROUPS[3], full=False)
        full = quick_simulate(hybrid2_env(8), PARAM_GROUPS[3], full=True)
        assert full.iteration_time < base.iteration_time
