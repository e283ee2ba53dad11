"""Tests for fault handling: surviving topologies, replanning, checkpoints."""

import math
import warnings

import pytest

from repro.core.faults import (
    CheckpointPolicy,
    replan_after_failure,
    surviving_topology,
)
from repro.errors import ConfigurationError, TopologyError
from repro.hardware.nic import NICType
from repro.hardware.presets import make_topology
from repro.model.config import GPTConfig

SMALL = GPTConfig(num_layers=8, hidden_size=1024, num_attention_heads=8,
                  seq_length=512, vocab_size=8192)


@pytest.fixture
def topo():
    return make_topology(
        [(2, NICType.ROCE), (2, NICType.INFINIBAND)],
        inter_cluster_rdma=False, gpus_per_node=4,
    )


class TestSurvivingTopology:
    def test_remove_one_node(self, topo):
        survivors = surviving_topology(topo, [1])
        assert survivors.num_nodes == 3
        assert survivors.world_size == 12
        assert survivors.clusters[0].num_nodes == 1

    def test_remove_whole_cluster(self, topo):
        survivors = surviving_topology(topo, [0, 1])
        assert survivors.num_clusters == 1
        assert survivors.clusters[0].nic_type == NICType.INFINIBAND

    def test_rank_renumbering_is_dense(self, topo):
        survivors = surviving_topology(topo, [2])
        assert [d.rank for d in survivors._devices] == list(range(12))

    def test_no_survivors_rejected(self, topo):
        with pytest.raises(TopologyError):
            surviving_topology(topo, [0, 1, 2, 3])

    def test_bad_node_index_rejected(self, topo):
        with pytest.raises(TopologyError):
            surviving_topology(topo, [9])

    def test_original_untouched(self, topo):
        surviving_topology(topo, [0])
        assert topo.num_nodes == 4


class TestReplan:
    def test_degraded_plan_found(self, topo):
        best = replan_after_failure(
            topo, [3], SMALL, global_batch_size=48, micro_batch_size=2
        ).discovered[0]
        assert best.tensor * best.pipeline * best.data == 12
        assert best.framework == "holmes-full"

    def test_degraded_throughput_lower(self, topo):
        # Batch large enough that compute dominates the fixed per-iteration
        # overhead, so losing a quarter of the GPUs must show up.
        healthy = replan_after_failure(
            topo, [], SMALL, global_batch_size=192, micro_batch_size=2
        ).discovered[0]
        degraded = replan_after_failure(
            topo, [0], SMALL, global_batch_size=192, micro_batch_size=2
        ).discovered[0]
        assert degraded.throughput < healthy.throughput


class TestCheckpointPolicy:
    def test_young_daly_interval(self):
        policy = CheckpointPolicy(checkpoint_time=50.0, restart_time=300.0,
                                  mtbf=24 * 3600.0)
        assert policy.optimal_interval == pytest.approx(
            math.sqrt(2 * 50 * 24 * 3600)
        )

    def test_goodput_below_one(self):
        policy = CheckpointPolicy(50.0, 300.0, 24 * 3600.0)
        goodput = policy.goodput_fraction()
        assert 0.9 < goodput < 1.0

    def test_optimal_interval_beats_extremes(self):
        policy = CheckpointPolicy(50.0, 300.0, 24 * 3600.0)
        best = policy.goodput_fraction()
        assert best >= policy.goodput_fraction(interval=60.0)
        assert best >= policy.goodput_fraction(interval=12 * 3600.0)

    def test_effective_tflops_scales(self):
        policy = CheckpointPolicy(50.0, 300.0, 24 * 3600.0)
        assert policy.effective_tflops(200.0) == pytest.approx(
            200.0 * policy.goodput_fraction()
        )

    def test_frequent_failures_hurt(self):
        rare = CheckpointPolicy(50.0, 300.0, mtbf=7 * 24 * 3600.0)
        frequent = CheckpointPolicy(50.0, 300.0, mtbf=3600.0)
        assert frequent.goodput_fraction() < rare.goodput_fraction()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(checkpoint_time=0.0, restart_time=1.0, mtbf=10.0),
            dict(checkpoint_time=1.0, restart_time=0.0, mtbf=10.0),
            dict(checkpoint_time=1.0, restart_time=1.0, mtbf=0.0),
            dict(checkpoint_time=20.0, restart_time=1.0, mtbf=10.0),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(**kwargs)

    def test_negative_inputs_rejected(self):
        policy = CheckpointPolicy(50.0, 300.0, 24 * 3600.0)
        with pytest.raises(ConfigurationError):
            policy.goodput_fraction(interval=-1.0)
        with pytest.raises(ConfigurationError):
            policy.effective_tflops(-1.0)


class TestSurvivingTopologyEdgeCases:
    def test_duplicate_failed_indices_counted_once(self, topo):
        deduped = surviving_topology(topo, [1, 1, 1])
        assert deduped.num_nodes == 3
        assert deduped.world_size == 12

    def test_kill_entire_cluster_drops_it(self, topo):
        survivors = surviving_topology(topo, [2, 3])
        assert survivors.num_clusters == 1
        assert survivors.clusters[0].nic_type == NICType.ROCE
        assert survivors.world_size == 8

    def test_inter_cluster_rdma_flag_preserved(self):
        rdma_linked = make_topology(
            [(2, NICType.INFINIBAND), (2, NICType.INFINIBAND)],
            inter_cluster_rdma=True, gpus_per_node=4,
        )
        survivors = surviving_topology(rdma_linked, [0])
        assert survivors.inter_cluster_rdma is True
        no_rdma = make_topology(
            [(2, NICType.ROCE), (2, NICType.INFINIBAND)],
            inter_cluster_rdma=False, gpus_per_node=4,
        )
        assert surviving_topology(no_rdma, [0]).inter_cluster_rdma is False

    def test_cluster_ids_stable_after_cluster_loss(self, topo):
        survivors = surviving_topology(topo, [0, 1])
        assert survivors.clusters[0].cluster_id == topo.clusters[1].cluster_id


class TestGoodputWarning:
    def test_unworkable_interval_warns_and_clamps(self):
        policy = CheckpointPolicy(
            checkpoint_time=50.0, restart_time=300.0, mtbf=3600.0
        )
        # A 10000s interval loses > 100% of wall time to failures alone.
        with pytest.warns(RuntimeWarning, match="forward progress"):
            fraction = policy.goodput_fraction(interval=10_000.0)
        assert fraction == 0.0

    def test_healthy_interval_does_not_warn(self):
        policy = CheckpointPolicy(
            checkpoint_time=60.0, restart_time=300.0, mtbf=6 * 3600.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            fraction = policy.goodput_fraction()
        assert fraction > 0.5
