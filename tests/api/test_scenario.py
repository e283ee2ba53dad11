"""Scenario identity: validation, normalization, digests, round-trips."""

import json

import pytest

from repro.api import FRAMEWORK_PRESETS, Scenario
from repro.errors import ConfigurationError
from repro.exec.digest import canonical_json, scenario_digest
from repro.faults import FaultEvent, FaultKind


def tiny(**overrides):
    """A 2-node scenario small enough for identity tests."""
    kw = dict(
        env="ib", nodes=2, gpus_per_node=2,
        num_layers=4, hidden_size=256, num_attention_heads=4,
        seq_length=128, vocab_size=1024,
        pipeline=2, micro_batch_size=1, num_microbatches=2,
    )
    kw.update(overrides)
    return Scenario(**kw)


def test_rejects_unknown_env():
    with pytest.raises(ConfigurationError):
        tiny(env="token-ring")


def test_rejects_unknown_framework():
    with pytest.raises(ConfigurationError):
        tiny(framework="deepspeed-zero9")


def test_rejects_unknown_schedule():
    with pytest.raises(ConfigurationError):
        tiny(schedule="gpipe-but-wrong")


def test_rejects_inconsistent_degrees():
    # tensor * pipeline * data must divide the world
    with pytest.raises(ConfigurationError):
        tiny(tensor=3)


def test_rejects_micro_batch_below_one():
    # with a zero micro batch the derived batch divides by zero
    for size in (0, -1):
        with pytest.raises(ConfigurationError, match="micro_batch_size"):
            tiny(micro_batch_size=size, global_batch_size=8)


def test_framework_presets_cover_paper_variants():
    for name in ("holmes", "holmes-full", "holmes-base", "holmes-no-sap",
                 "holmes-no-overlap", "megatron-lm"):
        assert name in FRAMEWORK_PRESETS
        tiny(framework=name)  # constructs without error


def test_workload_spellings_digest_identically():
    # data = world / (tensor * pipeline) = 2 here; 2 microbatches of 1
    # sample each over 2 DP replicas is a global batch of 4.
    explicit = tiny(num_microbatches=0, global_batch_size=4)
    derived = tiny()
    assert explicit.num_microbatches == derived.num_microbatches == 2
    assert explicit.global_batch_size == derived.global_batch_size == 4
    assert explicit.digest() == derived.digest()


def test_straggler_spellings_normalize():
    as_map = tiny(stragglers={3: 1.5, 1: 2.0})
    as_pairs = tiny(stragglers=[(1, 2.0), (3, 1.5)])
    assert as_map.stragglers == ((1, 2.0), (3, 1.5))
    assert as_map.digest() == as_pairs.digest()


def test_fault_events_sort_into_canonical_order():
    late = FaultEvent(time=0.02, kind=FaultKind.NIC_FLAP, node=0)
    early = FaultEvent(time=0.01, kind=FaultKind.STRAGGLER, rank=1, factor=2.0)
    a = tiny(fault_events=(late, early))
    b = tiny(fault_events=(early, late))
    assert a.fault_events == (early, late)
    assert a.digest() == b.digest()


def test_digest_is_stable_and_field_sensitive():
    base = tiny()
    assert base.digest() == tiny().digest()
    changed = [
        tiny(env="roce"),
        tiny(nodes=4),
        tiny(hidden_size=512),
        tiny(framework="holmes-full"),
        tiny(fault_seed=7),
        tiny(bandwidth_scale=0.5),
        tiny(stragglers={0: 2.0}),
    ]
    digests = {base.digest()} | {s.digest() for s in changed}
    assert len(digests) == 1 + len(changed)


def test_label_participates_in_identity():
    # deliberate: a cache hit must reproduce the *entire* RunResult,
    # including the scenario record with its label
    assert tiny(label="a").digest() != tiny(label="b").digest()


def test_canonical_round_trip():
    event = FaultEvent(time=0.01, kind=FaultKind.PACKET_LOSS, node=1,
                       loss_rate=0.05)
    s = tiny(fault_events=(event,), stragglers={2: 1.25}, fault_seed=3)
    back = Scenario.from_canonical(s.canonical())
    assert back == s
    assert back.digest() == s.digest()


def test_canonical_json_is_deterministic_and_salted():
    s = tiny()
    assert canonical_json(s) == canonical_json(tiny())
    assert scenario_digest(s, salt="a") != scenario_digest(s, salt="b")


def test_from_group_builds_labelled_cell():
    s = Scenario.from_group("hybrid", 4, 1)
    assert s.env == "hybrid"
    assert s.nodes == 4
    assert s.world_size == 32
    assert s.label == "g1:hybrid:4x8"


#: a 2x2 RoCE + InfiniBand machine, spelled minimally
MACHINE = {"gpus_per_node": 2,
           "clusters": [{"nodes": 1, "nic": "roce"},
                        {"nodes": 1, "nic": "infiniband"}]}


def test_inline_machine_is_canonical_and_round_trips():
    s = tiny(env="mixed", machine=MACHINE)
    assert isinstance(s.machine, str)  # canonical JSON text: hashable
    assert hash(s) == hash(tiny(env="mixed", machine=MACHINE))
    # every spelling of the same machine is the same scenario
    spelled = dict(MACHINE, inter_cluster_rdma=False,
                   nics={"roce": {"gbps": 200, "latency_us": 6}})
    assert tiny(env="mixed", machine=spelled) == s
    assert tiny(env="mixed", machine=s.machine) == s
    back = Scenario.from_canonical(json.loads(json.dumps(s.canonical())))
    assert back == s and back.digest() == s.digest()
    assert s.canonical()["machine"]["nics"]["roce"]["latency"] == "6e-06"
    assert s.topology().world_size == 4
    rdma = tiny(env="mixed", machine=dict(MACHINE, inter_cluster_rdma=True))
    assert rdma.digest() != s.digest()


@pytest.mark.parametrize("overrides", [
    {"nodes": 3},
    {"machine": dict(MACHINE, gpus_per_node=4)},
    {"env": ""},
    {"machine": "not json"},
    {"machine": {"clusters": [1]}},
])
def test_inline_machine_must_be_valid_and_fit_the_scenario(overrides):
    kw = dict(env="mixed", machine=MACHINE)
    kw.update(overrides)
    with pytest.raises(ConfigurationError):
        tiny(**kw)


def test_inline_machine_validation_builds_no_nodes(monkeypatch):
    import repro.hardware.config_io as config_io

    def refuse(*args, **kwargs):
        raise AssertionError("validation built a node")

    monkeypatch.setattr(config_io, "Node", refuse)
    huge = {"gpus_per_node": 2, "clusters": [{"nodes": 10 ** 9, "nic": "roce"}]}
    s = tiny(env="huge", nodes=10 ** 9, machine=huge)
    assert s.world_size == 2 * 10 ** 9
    with pytest.raises(ConfigurationError):
        tiny(env="huge", machine=huge)
