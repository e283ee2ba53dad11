"""Seeded random scenario sampling for the metamorphic harness.

The sampler draws small :class:`repro.api.Scenario` values (environment,
machine shape, model, and parallelism) from a stdlib
:class:`random.Random` — no global state, no wall clock — so a (seed, index)
pair always names the same scenario, which is what lets the ``repro
validate`` CLI and the pytest parametrizations share failures by seed.

Scenarios are deliberately tiny (2–4 nodes, 2–4 GPUs per node, toy GPT
configs): metamorphic relations compare *relative* behaviour, which the
small configurations exercise just as well as the paper-scale ones, at
milliseconds per run.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.bench.scenarios import (
    ethernet_env,
    homogeneous_env,
    hybrid2_env,
    split_env,
)
from repro.hardware.nic import NICType
from repro.hardware.topology import ClusterTopology

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.api import Scenario

#: environment name -> topology builder(nodes, gpus_per_node)
ENV_BUILDERS: Dict[str, Callable[[int, int], ClusterTopology]] = {
    "ib": lambda n, g: homogeneous_env(n, NICType.INFINIBAND, gpus_per_node=g),
    "roce": lambda n, g: homogeneous_env(n, NICType.ROCE, gpus_per_node=g),
    "ethernet": lambda n, g: ethernet_env(n, gpus_per_node=g),
    "hybrid": lambda n, g: hybrid2_env(n, gpus_per_node=g),
    "split-ib": lambda n, g: split_env(n, NICType.INFINIBAND, gpus_per_node=g),
    "split-roce": lambda n, g: split_env(n, NICType.ROCE, gpus_per_node=g),
}


def scaled_topology(topo: ClusterTopology, factor: float) -> ClusterTopology:
    """The same machine with every link's bandwidth scaled by ``factor``
    (NICs and intra-node links alike); latencies and overheads unchanged.
    Used by the bandwidth-monotonicity relation."""

    def scale_nic(nic):
        return dataclasses.replace(nic, bandwidth=nic.bandwidth * factor)

    clusters = []
    for cluster in topo.clusters:
        nodes = tuple(
            dataclasses.replace(
                node,
                ethernet_nic=scale_nic(node.ethernet_nic),
                rdma_nic=scale_nic(node.rdma_nic) if node.rdma_nic else None,
                intra_link=(
                    dataclasses.replace(
                        node.intra_link,
                        bandwidth=node.intra_link.bandwidth * factor,
                    )
                    if node.intra_link
                    else None
                ),
            )
            for node in cluster.nodes
        )
        clusters.append(dataclasses.replace(cluster, nodes=nodes))
    return ClusterTopology(clusters, inter_cluster_rdma=topo.inter_cluster_rdma)


def _divisor_choices(world: int, options: List[int]) -> List[int]:
    return [o for o in options if world % o == 0]


def sample_scenario(rng: random.Random, index: int) -> "Scenario":
    """Draw one valid scenario from ``rng`` (rejection-free by construction).

    Scenarios run the ``holmes-no-overlap`` preset (Holmes placement, the
    Eq. 2 partition, the plain distributed optimizer); seeded faults, when
    drawn, are ``FaultPlan.random`` events within the default horizon."""
    from repro.api import Scenario

    env = rng.choice(sorted(ENV_BUILDERS))
    # even node counts keep hybrid/split (two equal cluster halves) valid
    nodes = rng.choice([2, 4])
    gpn = rng.choice([2, 4])
    world = nodes * gpn

    tensor = rng.choice([t for t in (1, 2) if gpn % t == 0])
    pipeline = rng.choice(_divisor_choices(world // tensor, [1, 2, 4]))
    data = world // (tensor * pipeline)

    schedule = rng.choice(["1f1b", "1f1b", "gpipe", "interleaved"])
    if schedule == "interleaved" and pipeline < 2:
        # the chunk wrap-around transfer needs a distinct next stage
        schedule = "1f1b"
    num_chunks = 1
    num_layers = rng.choice([4, 6, 8])
    if schedule == "interleaved":
        num_chunks = 2
        num_layers = max(num_layers, 2 * pipeline)
    else:
        num_layers = max(num_layers, pipeline)

    micro_batch = rng.choice([1, 2])
    m_choices = [2, 4, 8]
    if schedule == "interleaved" and num_chunks > 1:
        # interleaved_1f1b requires microbatches divisible by stages
        m_choices = [m for m in m_choices if m % pipeline == 0] or [pipeline * 2]
    num_microbatches = rng.choice(m_choices)

    hidden = rng.choice([256, 512])
    heads = rng.choice([4, 8])

    fault_seed = rng.randrange(1 << 16) if rng.random() < 0.35 else None

    return Scenario(
        env=env,
        nodes=nodes,
        gpus_per_node=gpn,
        num_layers=num_layers,
        hidden_size=hidden,
        num_attention_heads=heads,
        tensor=tensor,
        pipeline=pipeline,
        data=data,
        micro_batch_size=micro_batch,
        num_microbatches=num_microbatches,
        schedule=schedule,
        num_chunks=num_chunks,
        framework="holmes-no-overlap",
        fault_seed=fault_seed,
        label=f"s{index:03d}",
    )


def sample_scenarios(n: int, seed: int = 0) -> List["Scenario"]:
    """``n`` deterministic scenarios for ``seed`` (stdlib RNG only)."""
    rng = random.Random(seed)
    return [sample_scenario(rng, i) for i in range(n)]
