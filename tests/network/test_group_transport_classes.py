"""Class-based group transports vs. the all-pairs scan they replaced.

``Fabric.group_transport`` resolves one representative pair per pair of
node classes (cluster, NICs, NIC health) instead of every node pair.  On
random machines of every validation environment, with NICs taken down,
browned out, made lossy, crashed and restored between rounds, it must
return a transport equal to :class:`AllPairsFabric`'s and leave the same
rebuild charges and fallback bookkeeping behind.
"""

import random

import pytest

from repro.hardware.nic import NICType
from repro.network.fabric import Fabric
from repro.validate.scenarios import ENV_BUILDERS

from tests.network.group_transport_reference import AllPairsFabric

FAMILIES = (NICType.INFINIBAND, NICType.ROCE, NICType.ETHERNET)


def _groups(rng, world, gpn):
    """DP-style strided groups, node-aligned blocks and random subsets."""
    groups = [tuple(range(world))]
    stride = rng.choice([1, 2, gpn])
    groups += [tuple(range(o, world, stride)) for o in range(min(stride, 3))]
    groups += [tuple(range(0, world, gpn)), tuple(range(gpn - 1, world, gpn))]
    for _ in range(4):
        size = rng.randint(2, min(world, 40))
        groups.append(tuple(sorted(rng.sample(range(world), size))))
    return [g for g in groups if len(set(g)) >= 2]


def _mutate(rng, health, nodes):
    node = rng.randrange(nodes)
    family = rng.choice(FAMILIES)
    roll = rng.random()
    if roll < 0.3:
        health.set_down(node, family)
    elif roll < 0.45:
        health.set_bandwidth_factor(node, family, rng.choice([0.25, 0.5, 0.9]))
    elif roll < 0.6:
        health.set_loss_rate(node, family, rng.choice([0.01, 0.1]))
    elif roll < 0.7:
        health.crash_node(node)
    elif roll < 0.8:
        health.set_down(node, family, down=False)
    else:
        health.clear(node, family)


def _cases():
    rng = random.Random(19)
    cases = []
    for env in sorted(ENV_BUILDERS):
        two_clusters = env == "hybrid" or env.startswith("split")
        for _ in range(3):
            nodes = 2 * rng.randint(1, 32) if two_clusters else rng.randint(2, 64)
            cases.append((env, nodes, rng.choice([1, 2, 4]),
                          rng.random() < 0.25, rng.randrange(1 << 30)))
    return cases


@pytest.mark.parametrize("env,nodes,gpn,force_ethernet,seed", _cases())
def test_class_scan_matches_all_pairs(env, nodes, gpn, force_ethernet, seed):
    topo = ENV_BUILDERS[env](nodes, gpn)
    nodes = topo.num_nodes
    rng = random.Random(seed)
    groups = _groups(rng, topo.world_size, gpn)
    fabric = Fabric(topo, force_ethernet=force_ethernet)
    reference = AllPairsFabric(topo, force_ethernet=force_ethernet)
    fabric.establish(groups)
    reference.establish(groups)
    for _ in range(6):
        for _ in range(rng.randint(1, 3)):
            mutation = rng.getstate()
            _mutate(rng, fabric.health, nodes)
            rng.setstate(mutation)
            _mutate(rng, reference.health, nodes)
        for group in groups:
            assert fabric.group_rebuild_time(group) == reference.group_rebuild_time(group)
            assert fabric.group_transport(group) == reference.group_transport(group)
        assert fabric.fault_stats == reference.fault_stats


def test_node_classes_split_clusters_and_nics():
    topo = ENV_BUILDERS["hybrid"](4, 2)
    classes = topo.node_classes()
    assert len(classes) == topo.num_nodes
    clusters = [topo.device(r).cluster_id for r in range(0, topo.world_size, 2)]
    # nodes share a class exactly when they share a cluster (equal NICs)
    for a in range(topo.num_nodes):
        for b in range(topo.num_nodes):
            assert (classes[a] == classes[b]) == (clusters[a] == clusters[b])
