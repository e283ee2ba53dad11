"""Tests for the node-scaling sweep utility."""

import pytest

from repro.api import sweep
from repro.bench.sweep import node_scaling_scenarios, scaling_efficiency
from repro.errors import ConfigurationError


class TestSweep:
    def test_node_scaling_points(self):
        scenarios = node_scaling_scenarios("ib", [2, 4], 1)
        assert [s.nodes for s in scenarios] == [2, 4]
        assert [s.label for s in scenarios] == ["g1:ib:2x8", "g1:ib:4x8"]
        assert scenarios[1].world_size == 32

    def test_sweep_runs_all_points(self):
        results = sweep(node_scaling_scenarios("InfiniBand", [2, 4], 1))
        assert [r.scenario for r in results] == ["g1:ib:2x8", "g1:ib:4x8"]
        assert results[1].world_size == 2 * results[0].world_size

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            node_scaling_scenarios("ib", [], 1)

    def test_scaling_efficiency_first_point_is_one(self):
        results = sweep(node_scaling_scenarios("ib", [2, 4], 1))
        efficiencies = scaling_efficiency(results)
        assert efficiencies[0] == pytest.approx(1.0)
        # Sublinear at fixed global batch (paper Table 3 shape).
        assert efficiencies[1] < 1.0

    def test_scaling_efficiency_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            scaling_efficiency([])
