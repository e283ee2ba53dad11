"""Shared fixtures for the conformance-subsystem tests.

One tiny hybrid scenario (2 nodes x 4 GPUs, toy GPT) is enough to exercise
every sanitizer code path — DP sync collectives, pipeline p2p over the
inter-cluster Ethernet, NIC queueing — in ~20 ms per run.
"""

import dataclasses

import pytest

from repro.api import Scenario


@pytest.fixture(scope="session")
def tiny_scenario():
    """Fault-free hybrid scenario with DP sync and pipeline traffic."""
    return Scenario(
        env="hybrid",
        nodes=2,
        gpus_per_node=4,
        num_layers=4,
        hidden_size=256,
        num_attention_heads=4,
        tensor=2,
        pipeline=2,
        data=2,
        micro_batch_size=1,
        num_microbatches=4,
        framework="holmes-no-overlap",
        label="tiny",
    )


@pytest.fixture(scope="session")
def faulted_scenario(tiny_scenario):
    """The same scenario with a seeded random fault plan."""
    return dataclasses.replace(tiny_scenario, label="tiny-faulted", fault_seed=11)


def run_checked(scenario):
    """Simulate ``scenario`` with the invariant sanitizer armed; returns
    ``(result, hooks)``."""
    from repro.api import build

    sim = build(dataclasses.replace(scenario, validate=True))
    return sim.run(), sim.validation
