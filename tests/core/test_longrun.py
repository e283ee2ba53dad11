"""Tests for the long-run campaign simulator, including the mutual
validation against the analytic Young/Daly goodput."""

import numpy as np
import pytest

from repro.bench.scenarios import hybrid2_env
from repro.core.faults import CheckpointPolicy
from repro.core.longrun import (
    ElasticPolicy,
    degraded_throughput_fractions,
    elastic_goodput_analytic,
    simulate_campaign,
    simulate_elastic_campaign,
)
from repro.errors import ConfigurationError
from repro.model.config import GPTConfig

POLICY = CheckpointPolicy(checkpoint_time=60.0, restart_time=300.0,
                          mtbf=6 * 3600.0)


class TestCampaign:
    def test_accounting_closes(self):
        result = simulate_campaign(POLICY, iteration_time=10.0,
                                   horizon=24 * 3600.0, seed=1)
        total = (result.useful_time + result.checkpoint_time
                 + result.lost_time + result.restart_time)
        assert total == pytest.approx(result.horizon, rel=1e-9)

    def test_no_failures_without_horizon_reaching_mtbf(self):
        lucky = CheckpointPolicy(60.0, 300.0, mtbf=1e12)
        result = simulate_campaign(lucky, 10.0, horizon=3600.0, seed=2)
        assert result.num_failures == 0
        assert result.lost_time == 0.0
        assert result.goodput > 0.9

    def test_deterministic_by_seed(self):
        a = simulate_campaign(POLICY, 10.0, 24 * 3600.0, seed=7)
        b = simulate_campaign(POLICY, 10.0, 24 * 3600.0, seed=7)
        assert a.goodput == b.goodput
        assert a.num_failures == b.num_failures

    def test_failures_cost_progress(self):
        churn = CheckpointPolicy(60.0, 300.0, mtbf=1800.0)
        calm = CheckpointPolicy(60.0, 300.0, mtbf=7 * 24 * 3600.0)
        bad = simulate_campaign(churn, 10.0, 48 * 3600.0, seed=3)
        good = simulate_campaign(calm, 10.0, 48 * 3600.0, seed=3)
        assert bad.goodput < good.goodput
        assert bad.num_failures > good.num_failures

    def test_simulation_converges_to_analytic_goodput(self):
        """Over a long horizon (many failures) the simulated goodput must
        land near the Young/Daly first-order prediction — the analytic and
        stochastic models validate each other."""
        horizon = 1000 * POLICY.mtbf  # ~1000 failures
        goodputs = [
            simulate_campaign(POLICY, 10.0, horizon, seed=s).goodput
            for s in range(3)
        ]
        analytic = POLICY.goodput_fraction()
        assert np.mean(goodputs) == pytest.approx(analytic, abs=0.01)

    def test_optimal_interval_beats_bad_intervals_in_simulation(self):
        horizon = 500 * POLICY.mtbf
        best = simulate_campaign(POLICY, 10.0, horizon, seed=11).goodput
        too_often = simulate_campaign(
            POLICY, 10.0, horizon, interval=120.0, seed=11
        ).goodput
        too_rare = simulate_campaign(
            POLICY, 10.0, horizon, interval=POLICY.mtbf, seed=11
        ).goodput
        assert best > too_often
        assert best > too_rare

    def test_event_log_structure(self):
        result = simulate_campaign(POLICY, 10.0, 12 * 3600.0, seed=5)
        kinds = {e.kind for e in result.events}
        assert "checkpoint" in kinds
        times = [e.time for e in result.events]
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iteration_time=0.0, horizon=100.0),
            dict(iteration_time=1.0, horizon=0.0),
            dict(iteration_time=1.0, horizon=100.0, interval=0.0),
        ],
    )
    def test_invalid_args_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            simulate_campaign(POLICY, **kwargs)


class TestIterationCounting:
    def test_fractional_residue_carries_across_segments(self):
        """Work segments shorter than an iteration must still accumulate:
        with interval=1.5 and iteration_time=1.0, each work segment alone
        truncates to 1 iteration, but the residue carries."""
        lucky = CheckpointPolicy(checkpoint_time=1.0, restart_time=1.0,
                                 mtbf=1e12)
        result = simulate_campaign(lucky, iteration_time=1.0, horizon=1000.0,
                                   interval=1.5, seed=0)
        assert result.iterations_completed == int(result.useful_time)
        # The old per-segment truncation lost a third of the iterations.
        assert result.iterations_completed >= 0.99 * result.useful_time

    def test_segments_shorter_than_iteration_still_count(self):
        lucky = CheckpointPolicy(checkpoint_time=1.0, restart_time=1.0,
                                 mtbf=1e12)
        # Every work segment (0.5s) is shorter than one iteration (2.0s).
        result = simulate_campaign(lucky, iteration_time=2.0, horizon=100.0,
                                   interval=0.5, seed=0)
        assert result.iterations_completed == int(result.useful_time / 2.0)
        assert result.iterations_completed > 0

    def test_lost_work_does_not_count(self):
        churn = CheckpointPolicy(checkpoint_time=60.0, restart_time=300.0,
                                 mtbf=1800.0)
        result = simulate_campaign(churn, iteration_time=10.0,
                                   horizon=48 * 3600.0, seed=3)
        assert result.iterations_completed == int(result.useful_time / 10.0)


ELASTIC = ElasticPolicy(num_nodes=16, node_mtbf=16 * 40_000.0,
                        repair_time=600.0, reconfig_time=45.0)
ELASTIC_CKPT = CheckpointPolicy(checkpoint_time=30.0, restart_time=120.0,
                                mtbf=40_000.0)


class TestElasticPolicy:
    def test_job_failure_rate(self):
        assert ELASTIC.job_failure_rate == pytest.approx(16 / (16 * 40_000.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_nodes=0, node_mtbf=1.0, repair_time=1.0, reconfig_time=1.0),
            dict(num_nodes=4, node_mtbf=0.0, repair_time=1.0, reconfig_time=1.0),
            dict(num_nodes=4, node_mtbf=1.0, repair_time=-1.0, reconfig_time=1.0),
            dict(num_nodes=4, node_mtbf=1.0, repair_time=1.0, reconfig_time=1.0,
                 correlated_outage_prob=1.5),
            dict(num_nodes=4, node_mtbf=1.0, repair_time=1.0, reconfig_time=1.0,
                 cluster_size=5),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ElasticPolicy(**kwargs)


class TestElasticCampaign:
    def test_deterministic_by_seed(self):
        a = simulate_elastic_campaign(ELASTIC, ELASTIC_CKPT, 10.0, 1e6, seed=5)
        b = simulate_elastic_campaign(ELASTIC, ELASTIC_CKPT, 10.0, 1e6, seed=5)
        assert a.goodput == b.goodput
        assert a.num_failures == b.num_failures
        assert [e.time for e in a.events] == [e.time for e in b.events]

    def test_failures_degrade_but_do_not_stop_training(self):
        result = simulate_elastic_campaign(
            ELASTIC, ELASTIC_CKPT, 10.0, 2e6, seed=1
        )
        assert result.num_failures > 0
        assert result.degraded_time > 0.0
        assert result.min_alive < ELASTIC.num_nodes
        assert result.goodput > 0.8  # elastic: keeps running through churn

    def test_correlated_outages_kill_clusters(self):
        correlated = ElasticPolicy(
            num_nodes=16, node_mtbf=16 * 40_000.0, repair_time=600.0,
            reconfig_time=45.0, correlated_outage_prob=1.0, cluster_size=4,
        )
        result = simulate_elastic_campaign(
            correlated, ELASTIC_CKPT, 10.0, 2e6, seed=2
        )
        outages = [e for e in result.events if "cluster-outage" in e.detail]
        assert outages
        assert result.min_alive <= 16 - 4

    def test_simulation_converges_to_analytic_goodput(self):
        """Seeded elastic campaigns must converge to the first-order
        analytic prediction across >= 5 seeds (mutual validation of the
        simulator and the closed form)."""
        horizon = 5e6  # ~125 failures per seed
        goodputs = [
            simulate_elastic_campaign(
                ELASTIC, ELASTIC_CKPT, 12.0, horizon, seed=s
            ).goodput
            for s in range(6)
        ]
        analytic = elastic_goodput_analytic(ELASTIC, ELASTIC_CKPT)
        assert np.mean(goodputs) == pytest.approx(analytic, abs=0.01)
        # Every individual seed lands in a sane band, not just the mean.
        assert all(abs(g - analytic) < 0.03 for g in goodputs)

    def test_throughput_fractions_mapping_used(self):
        # A brutal degradation map: losing one node halves throughput.
        harsh = {0: 1.0, 1: 0.5}
        soft = simulate_elastic_campaign(
            ELASTIC, ELASTIC_CKPT, 10.0, 2e6, seed=4
        )
        hard = simulate_elastic_campaign(
            ELASTIC, ELASTIC_CKPT, 10.0, 2e6, seed=4,
            throughput_fractions=harsh,
        )
        assert hard.useful_time < soft.useful_time

    def test_wall_clock_accounting_closes(self):
        result = simulate_elastic_campaign(
            ELASTIC, ELASTIC_CKPT, 10.0, 1e6, seed=6
        )
        running = result.horizon - result.checkpoint_time \
            - result.reconfig_time - result.idle_time
        # useful (phi-weighted) can't exceed wall running time.
        assert 0.0 < result.useful_time <= running + 1e-6


class TestDegradedThroughputFractions:
    MODEL = GPTConfig(num_layers=8, hidden_size=2048, num_attention_heads=16,
                      seq_length=1024, vocab_size=4096)

    def test_replanned_fractions_per_failure_count(self):
        fractions = degraded_throughput_fractions(
            hybrid2_env(4, gpus_per_node=2), self.MODEL, 64, 2,
            micro_batch_size=2,
        )
        assert sorted(fractions) == [0, 1, 2]
        assert fractions[0] == 1.0
        # compute-bound model: losing nodes costs throughput
        assert all(0.0 < fractions[k] < 1.0 for k in (1, 2))

    def test_no_survivors_rejected(self):
        with pytest.raises(ConfigurationError):
            degraded_throughput_fractions(
                hybrid2_env(4, gpus_per_node=2), self.MODEL, 64, 4
            )
