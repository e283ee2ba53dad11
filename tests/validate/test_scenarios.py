"""The seeded scenario sampler: deterministic, valid, and scalable."""

import dataclasses

import pytest

from repro.api import build, simulate
from repro.errors import ReproError
from repro.validate.scenarios import (
    ENV_BUILDERS,
    sample_scenarios,
    scaled_topology,
)


class TestSampler:
    def test_same_seed_same_specs(self):
        assert sample_scenarios(10, seed=3) == sample_scenarios(10, seed=3)

    def test_different_seed_differs(self):
        assert sample_scenarios(10, seed=3) != sample_scenarios(10, seed=4)

    def test_names_are_unique(self):
        scenarios = sample_scenarios(20, seed=0)
        assert len({s.label for s in scenarios}) == len(scenarios)

    def test_specs_are_internally_consistent(self):
        for scenario in sample_scenarios(30, seed=5):
            assert scenario.world_size % (scenario.tensor * scenario.pipeline) == 0
            assert scenario.env in ENV_BUILDERS
            assert scenario.framework == "holmes-no-overlap"
            if scenario.schedule == "interleaved":
                assert scenario.pipeline >= 2
                assert scenario.num_chunks >= 2
                assert scenario.num_microbatches % scenario.pipeline == 0
            # every sampled scenario must survive plan construction
            build(dataclasses.replace(scenario, fault_seed=None))

    def test_sampled_specs_actually_run(self):
        for scenario in sample_scenarios(3, seed=9):
            assert simulate(scenario).makespan > 0


class TestScenarioSpec:
    """The tiny fixture scenario the conformance tests share."""

    def test_model_and_parallel_derivation(self, tiny_scenario):
        model = tiny_scenario.model
        assert model.num_layers == tiny_scenario.num_layers
        assert model.hidden_size == tiny_scenario.hidden_size
        par = tiny_scenario.parallel
        assert par.tensor == tiny_scenario.tensor
        assert par.global_batch_size == (
            tiny_scenario.data
            * tiny_scenario.micro_batch_size
            * tiny_scenario.num_microbatches
        )

    def test_fault_plan_requires_seed(self, tiny_scenario, faulted_scenario):
        topo = tiny_scenario.topology()
        assert tiny_scenario.fault_plan(topo) is None
        plan = faulted_scenario.fault_plan(topo)
        assert plan is not None and plan.events

    def test_invalid_parallelism_raises(self, tiny_scenario):
        with pytest.raises(ReproError):
            dataclasses.replace(tiny_scenario, tensor=16)

    def test_describe_mentions_layout(self, tiny_scenario):
        text = tiny_scenario.describe()
        assert "t2" in text and "p2" in text and "d2" in text


def _all_nodes(topo):
    return [node for cluster in topo.clusters for node in cluster.nodes]


class TestScaledTopology:
    def test_scaling_multiplies_all_link_bandwidths(self, tiny_scenario):
        base = tiny_scenario.topology()
        doubled = scaled_topology(base, 2.0)
        for node, scaled_node in zip(_all_nodes(base), _all_nodes(doubled)):
            assert (
                scaled_node.ethernet_nic.bandwidth
                == 2.0 * node.ethernet_nic.bandwidth
            )
            if node.intra_link is not None:
                assert (
                    scaled_node.intra_link.bandwidth
                    == 2.0 * node.intra_link.bandwidth
                )
            if node.rdma_nic is not None:
                assert (
                    scaled_node.rdma_nic.bandwidth
                    == 2.0 * node.rdma_nic.bandwidth
                )

    def test_identity_scale_preserves_topology(self, tiny_scenario):
        base = tiny_scenario.topology()
        same = scaled_topology(base, 1.0)
        assert same.world_size == base.world_size
        for node, copy in zip(_all_nodes(base), _all_nodes(same)):
            assert copy.ethernet_nic.bandwidth == node.ethernet_nic.bandwidth
