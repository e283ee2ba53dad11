"""Tests for the auto-parallelism planner (:func:`repro.api.plan`)."""

import pytest

from repro import api
from repro.errors import ConfigurationError
from repro.plan import enumerate_layouts


def small_base(env="ib", nodes=2, **overrides):
    kwargs = dict(
        env=env, nodes=nodes, gpus_per_node=4, num_layers=8,
        hidden_size=1024, num_attention_heads=8, seq_length=512,
        vocab_size=8192, micro_batch_size=2, global_batch_size=64,
        framework="holmes-full", trace_enabled=False, label="planner-base",
    )
    kwargs.update(overrides)
    return api.Scenario(**kwargs)


class TestEnumeration:
    def test_all_configs_valid(self):
        layouts = enumerate_layouts(4, 8, 8, 64, 2)
        assert layouts
        for t, p, d in layouts:
            assert t * p * d == 8
            assert t <= 4
            assert 64 % (d * 2) == 0

    def test_pipeline_bounded_by_layers(self):
        assert all(p <= 8 for _, p, _ in enumerate_layouts(4, 8, 8, 64, 2))

    def test_max_tensor_cap(self):
        layouts = enumerate_layouts(4, 8, 8, 64, 2, max_tensor=1)
        assert all(t == 1 for t, _, _ in layouts)

    def test_batch_divisibility_filters(self):
        layouts = enumerate_layouts(4, 8, 8, 7, 1)
        assert all(7 % d == 0 for _, _, d in layouts)


class TestEvaluation:
    def test_candidates_sorted_by_throughput(self):
        result = api.plan(small_base(), budget=6, top_k=6)
        throughputs = [r.throughput for r in result.ranking]
        assert len(throughputs) > 1
        assert throughputs == sorted(throughputs, reverse=True)

    def test_memory_infeasible_dropped(self):
        huge = small_base(
            nodes=1, gpus_per_node=2, num_layers=96, hidden_size=12288,
            num_attention_heads=96, seq_length=2048, vocab_size=51200,
            micro_batch_size=1, global_batch_size=16,
        )
        with pytest.raises(ConfigurationError, match="no feasible"):
            api.plan(huge)

    def test_top_k_caps_the_confirmed_layouts(self):
        result = api.plan(small_base(), budget=6, top_k=3)
        assert 1 <= len(result.discovered) <= 3

    def test_presets_that_do_not_fit_are_not_baselines(self):
        """The base layout (t=1, p=1, d=32) of a 44-layer model needs
        ~177% of GPU memory: no preset may run there as a baseline, so
        the pick fits."""
        base = api.Scenario(
            env="ib", nodes=4, num_layers=44, hidden_size=6144,
            num_attention_heads=48, micro_batch_size=1, global_batch_size=256,
        )
        result = api.plan(base, budget=4, top_k=2)
        assert not result.baselines
        assert all(r.memory_utilization <= 1.0 for r in result.ranking)

    def test_describe(self):
        text = api.plan(small_base(), budget=2, top_k=1).best.describe()
        assert "TFLOPS" in text and "t=" in text


class TestPlannerChoices:
    def test_hybrid_machine_prefers_cluster_aligned_pipeline(self):
        """On a RoCE+IB pair of clusters the planner's best Holmes layouts
        use pipeline parallelism across the boundary (p even), never DP."""
        result = api.plan(
            small_base(env="hybrid"), top_k=3,
            frameworks=("holmes-full",), schedules=("1f1b",),
        )
        assert result.discovered
        for layout in result.discovered:
            assert layout.pipeline % 2 == 0
