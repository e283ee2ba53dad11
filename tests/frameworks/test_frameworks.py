"""Tests for framework presets and framework comparisons."""

import pytest

from repro.api import Scenario, simulate
from repro.frameworks import (
    FRAMEWORKS,
    HOLMES,
    MEGATRON_DEEPSPEED,
    MEGATRON_LLAMA,
    MEGATRON_LM,
    holmes_ablation,
)
from repro.frameworks.base import environment_is_heterogeneous
from repro.hardware.nic import NICType
from repro.hardware.presets import homogeneous_topology, make_topology


@pytest.fixture
def hybrid_topo():
    # Two nodes per cluster so DP groups span nodes and NIC choice matters.
    return make_topology(
        [(2, NICType.ROCE), (2, NICType.INFINIBAND)],
        inter_cluster_rdma=False, gpus_per_node=2,
    )


def run_framework(framework, env="hybrid", nodes=4):
    """One iteration of a small GPT (p=2, data parallel fills the rest) on
    2-GPU nodes."""
    return simulate(Scenario(
        env=env, nodes=nodes, gpus_per_node=2, num_layers=8,
        hidden_size=1024, num_attention_heads=8, seq_length=512,
        vocab_size=8192, pipeline=2, micro_batch_size=2, num_microbatches=4,
        framework=framework, trace_enabled=False,
    ))


class TestPresets:
    def test_registry_contents(self):
        assert set(FRAMEWORKS) == {
            "holmes", "megatron-lm", "megatron-deepspeed", "megatron-llama"
        }

    def test_only_holmes_is_nic_aware(self):
        assert HOLMES.nic_aware
        assert not MEGATRON_LM.nic_aware
        assert not MEGATRON_DEEPSPEED.nic_aware
        assert not MEGATRON_LLAMA.nic_aware

    def test_holmes_uses_eq2_partition_and_overlap(self):
        assert HOLMES.partition_strategy == "self_adapting"
        assert HOLMES.optimizer.name == "overlapped"
        assert HOLMES.alpha == 1.05  # the paper's hyper-parameter

    def test_llama_contributes_overlap_only(self):
        assert MEGATRON_LLAMA.optimizer.name == "overlapped"
        assert MEGATRON_LLAMA.partition_strategy == "uniform"

    def test_deepspeed_has_engine_overhead(self):
        assert MEGATRON_DEEPSPEED.optimizer.step_overhead > 0


class TestAblation:
    def test_full_holmes_is_default(self):
        assert holmes_ablation().name == "holmes"

    def test_no_sap(self):
        spec = holmes_ablation(self_adapting_partition=False)
        assert spec.name == "holmes-no-sap"
        assert spec.partition_strategy == "uniform"
        assert spec.optimizer.name == "overlapped"

    def test_no_overlap(self):
        spec = holmes_ablation(overlapped_optimizer=False)
        assert spec.name == "holmes-no-overlap"
        assert spec.optimizer.name == "distributed"

    def test_no_both(self):
        spec = holmes_ablation(False, False)
        assert spec.name == "holmes-no-sap-no-overlap"
        assert spec.nic_aware  # NIC selection always stays


class TestHeterogeneityDetection:
    def test_hybrid_is_heterogeneous(self, hybrid_topo):
        assert environment_is_heterogeneous(hybrid_topo)

    def test_homogeneous_is_not(self):
        assert not environment_is_heterogeneous(
            homogeneous_topology(2, NICType.ROCE, gpus_per_node=2)
        )

    def test_split_same_family_is_homogeneous(self):
        topo = make_topology(
            [(1, NICType.INFINIBAND), (1, NICType.INFINIBAND)],
            inter_cluster_rdma=False, gpus_per_node=2,
        )
        assert not environment_is_heterogeneous(topo)


class TestSimulateFramework:
    def test_holmes_beats_baselines_in_heterogeneous_env(self):
        """The paper's Figure 6 ordering, on a miniature machine."""
        tflops = {name: run_framework(name).tflops for name in FRAMEWORKS}
        assert tflops["holmes"] > tflops["megatron-llama"]
        assert tflops["megatron-llama"] > tflops["megatron-deepspeed"]
        assert tflops["megatron-lm"] > tflops["megatron-deepspeed"]

    def test_baselines_forced_to_ethernet(self):
        result = run_framework("megatron-lm")
        assert result.audit.dp_groups_rdma == 0

    def test_baselines_keep_rdma_in_homogeneous_env(self):
        result = run_framework("megatron-lm", env="ib", nodes=2)
        assert result.audit.dp_rdma_fraction == 1.0

    def test_with_overrides(self):
        spec = MEGATRON_LM.with_overrides(alpha=1.2)
        assert spec.alpha == 1.2
        assert spec.name == MEGATRON_LM.name
