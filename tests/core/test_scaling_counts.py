"""Per-run work on the auto-tier weak-scaling curve grows linearly.

Counts, not times: on the benchmark's auto-tier ``hybrid`` curve (group-1
model, t1 p2, 4-sample micro-batches, 8 per replica), the pair transports
the fabric resolves and the topology's device lookups per run must grow
about as the world does — a quadratic term (every node pair of a DP group,
every group scanned per rank) shows as a ratio well above 2 per doubling.
"""

import pytest

from repro.api import Scenario, simulate
from repro.bench.paramgroups import PARAM_GROUPS
from repro.hardware.topology import ClusterTopology
from repro.network.fabric import Fabric

WORLDS = (64, 128, 256)


def curve_point(world):
    model = PARAM_GROUPS[1].model
    return Scenario(
        env="hybrid", nodes=world // 8,
        num_layers=model.num_layers, hidden_size=model.hidden_size,
        num_attention_heads=model.num_attention_heads,
        seq_length=model.seq_length, vocab_size=model.vocab_size,
        tensor=1, pipeline=2, micro_batch_size=4, num_microbatches=8,
        trace_enabled=False, fidelity="auto",
    )


@pytest.fixture
def counts(monkeypatch):
    tally = {"resolve": 0, "device": 0}
    resolve, device = Fabric._resolve_pair, ClusterTopology.device

    def counted_resolve(self, a, b):
        tally["resolve"] += 1
        return resolve(self, a, b)

    def counted_device(self, rank):
        tally["device"] += 1
        return device(self, rank)

    monkeypatch.setattr(Fabric, "_resolve_pair", counted_resolve)
    monkeypatch.setattr(ClusterTopology, "device", counted_device)
    return tally


def test_resolutions_and_lookups_grow_linearly(counts):
    per_run = []
    for world in WORLDS:
        scenario = curve_point(world)
        counts.update(resolve=0, device=0)
        simulate(scenario)
        per_run.append(dict(counts))
    for small, large in zip(per_run, per_run[1:]):
        assert large["resolve"] <= 2.2 * small["resolve"], per_run
        assert large["device"] <= 2.1 * small["device"], per_run
