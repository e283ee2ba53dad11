"""Every way of describing a scenario drives the engine identically."""

import dataclasses

from repro.api import RunResult, Scenario, run
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.hardware.config_io import topology_to_dict
from repro.validate.scenarios import ENV_BUILDERS

#: an env-named scenario's canonical keys: ``machine`` appears only when set
ENV_NAMED_KEYS = {
    "env", "nodes", "gpus_per_node", "num_layers", "hidden_size",
    "num_attention_heads", "seq_length", "vocab_size", "tensor", "pipeline",
    "data", "micro_batch_size", "global_batch_size", "num_microbatches",
    "schedule", "num_chunks", "framework", "fault_events", "fault_seed",
    "fault_count", "fault_horizon", "stragglers", "bandwidth_scale",
    "trace_enabled", "validate", "tie_embeddings", "fidelity", "label",
}


def test_inline_machine_matches_env_named_scenario():
    # the same machine given inline runs byte-identically to its env name
    for env, build in ENV_BUILDERS.items():
        named = Scenario(env=env, nodes=4, gpus_per_node=2, num_layers=4,
                         hidden_size=256, num_attention_heads=4,
                         seq_length=128, vocab_size=1024, pipeline=2,
                         micro_batch_size=1, num_microbatches=4,
                         stragglers={1: 1.5})
        inline = dataclasses.replace(
            named, env=f"{env}-inline", machine=topology_to_dict(build(4, 2))
        )
        assert set(named.canonical()) == ENV_NAMED_KEYS
        assert set(inline.canonical()) == ENV_NAMED_KEYS | {"machine"}
        assert inline.digest() != named.digest()
        a, b = run(named), run(inline)
        assert (b.trace_digest, b.metrics_digest, b.tflops) == (
            a.trace_digest, a.metrics_digest, a.tflops
        ), env


def test_run_is_deterministic():
    scenario = case_scenario("ib", 2, PARAM_GROUPS[1])
    assert run(scenario) == run(scenario)


def test_run_result_round_trips_through_json():
    result = run(case_scenario("roce", 2, PARAM_GROUPS[1]))
    back = RunResult.from_dict(result.to_dict())
    assert back == result


def test_result_carries_scenario_provenance():
    scenario = case_scenario("ethernet", 2, PARAM_GROUPS[1])
    result = run(scenario)
    assert result.scenario == scenario.label
    assert result.scenario_digest == scenario.digest()
    assert Scenario.from_canonical(scenario.canonical()) == scenario
