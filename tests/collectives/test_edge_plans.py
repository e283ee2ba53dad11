"""Per-edge send plans: exact under faults that land mid-pipeline.

A send reads its transport, NIC and latency from the edge plan current
when it starts and prices its occupancy from the plan current when its NIC
is granted.  A fault landing while a pipeline message queues for its NIC
is where a plan read at the wrong instant shows, so faults are placed
there and the runs held to the frozen send path of
:mod:`tests.collectives.stepwise_reference`, which prices through the
public :class:`~repro.network.fabric.Fabric` methods.
"""

import pytest

from repro.api import simulate
from repro.faults.plan import FaultEvent, FaultKind
from repro.hardware.nic import NICType
from repro.network.fabric import Fabric
from repro.simcore.engine import SimEngine
from repro.validate.scenarios import ENV_BUILDERS

from tests.collectives.test_fused_ring_differential import (
    assert_same_untraced_and_traced,
    curve_scenario,
)


def _queued_sends(scenario):
    """``(wait, rank, send start, NIC grant)`` of every pipeline send that
    queued for its NIC in a traced run, longest wait first."""
    spans = simulate(scenario).trace.spans
    starts = {
        (s.rank, s.label[len("send:"):]): s.start
        for s in spans if s.label.startswith(("send:act", "send:grad"))
    }
    queued = []
    for s in spans:
        if s.label.startswith(("nic-tx:act", "nic-tx:grad")):
            start = starts[(s.rank, s.label[len("nic-tx:"):])]
            if s.start > start:
                queued.append((s.start - start, s.rank, start, s.start))
    return sorted(queued, reverse=True)


FAULTS = {
    "flap": dict(kind=FaultKind.NIC_FLAP),
    "degrade": dict(kind=FaultKind.LINK_DEGRADE, factor=0.3),
    "loss": dict(kind=FaultKind.PACKET_LOSS, loss_rate=0.05),
}


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("env", ["ib", "roce"])
def test_fault_while_a_pipeline_send_queues(env, kind):
    """The fault lands between a queued send's start and its NIC grant:
    the send keeps the NIC and latency it started with and is priced on
    the transport current at the grant."""
    queued = _queued_sends(curve_scenario(32, env=env, trace_enabled=True))
    assert queued
    _, rank, start, grant = queued[0]
    event = FaultEvent(
        time=(start + grant) / 2, node=rank // 8, duration=(grant - start) * 4,
        **FAULTS[kind],
    )
    assert_same_untraced_and_traced(
        curve_scenario(32, env=env, fault_events=(event,), validate=True)
    )


@pytest.mark.parametrize("node", [0, 1, 2, 3])
def test_flap_mid_pipeline(node):
    """A flap partway through the pipeline phase, on every node of the
    hybrid curve (its cross-cluster pipeline edges ride TCP already)."""
    queued = _queued_sends(curve_scenario(32, trace_enabled=True))
    last = max(grant for _, _, _, grant in queued)
    event = FaultEvent(
        time=last * (0.3 + 0.15 * node), kind=FaultKind.NIC_FLAP, node=node,
        duration=last / 8,
    )
    assert_same_untraced_and_traced(
        curve_scenario(32, fault_events=(event,), validate=True)
    )


def test_plan_is_fresh_after_a_fault_and_after_attach_engine():
    fabric = Fabric(ENV_BUILDERS["ib"](2, 2), engine=SimEngine())
    nbytes = 1 << 20
    plan = fabric.p2p_edge(0, 2)
    assert fabric.p2p_edge(0, 2) is plan
    assert plan.transport.kind.is_rdma and plan.family == NICType.INFINIBAND
    assert plan.nic is fabric.nic_tx_resource(0, NICType.INFINIBAND)
    rdma = fabric.p2p_occupancy(0, 2, nbytes)

    fabric.health.set_down(1, NICType.INFINIBAND)
    fallen = fabric.p2p_edge(0, 2)
    assert fallen is not plan and fallen.epoch == fabric.health.epoch
    assert fallen.family == NICType.ETHERNET
    assert fallen.nic is fabric.nic_tx_resource(0, NICType.ETHERNET)
    assert fallen.transport == fabric.transport(0, 2)
    # pricing follows the epoch too, whoever holds the older plan
    tcp = fabric.p2p_occupancy(0, 2, nbytes)
    assert tcp > rdma
    assert tcp == fabric.cost_model.p2p_nic_occupancy(nbytes, fallen.transport)

    # a lossy edge books its retransmissions once per transfer, memo or not
    fabric.health.set_loss_rate(1, NICType.ETHERNET, 0.1)
    fabric.p2p_occupancy(0, 2, nbytes)
    once = fabric.fault_stats.retry_time
    fabric.p2p_occupancy(0, 2, nbytes)
    assert once > 0.0 and fabric.fault_stats.retry_time == 2 * once

    fabric.attach_engine(SimEngine())
    attached = fabric.p2p_edge(0, 2)
    assert attached is not fallen
    assert attached.nic is not fallen.nic
    assert attached.nic is fabric.nic_tx_resource(0, NICType.ETHERNET)
    assert fabric.p2p_edge(0, 1).intra and fabric.p2p_edge(0, 1).nic is None
