"""Unit tests for DES point-to-point transfers."""

import pytest

from repro.collectives.p2p import ChannelRegistry, recv, send
from repro.hardware.nic import NICType
from repro.hardware.presets import make_topology
from repro.network.fabric import Fabric
from repro.simcore.engine import SimEngine
from repro.simcore.trace import TraceRecorder


@pytest.fixture
def setup():
    engine = SimEngine()
    topo = make_topology(
        [(2, NICType.ROCE), (2, NICType.INFINIBAND)], inter_cluster_rdma=False
    )
    fabric = Fabric(topo, engine=engine)
    channels = ChannelRegistry(engine)
    return engine, fabric, channels


class TestSendRecv:
    def test_message_delivered(self, setup):
        engine, fabric, channels = setup

        def receiver():
            msg = yield from recv(channels, 0, 8, "act:0")
            return msg, engine.now

        engine.process(send(fabric, channels, 0, 8, "act:0", 1 << 20))
        proc = engine.process(receiver())
        engine.run()
        msg, arrival = proc.done.value
        assert msg.src == 0 and msg.dst == 8
        assert msg.nbytes == 1 << 20
        assert arrival > 0.0

    @pytest.mark.parametrize("dst", [1, 8], ids=["intra-node", "cross-cluster"])
    def test_deliver_callback_replaces_the_channel(self, setup, dst):
        """With ``deliver`` the message arrives at the same instant a
        channel receiver would see it, and no mailbox is filled."""
        engine, fabric, channels = setup

        def receiver():
            yield from recv(channels, 0, dst, "act:0")
            return engine.now

        engine.process(send(fabric, channels, 0, dst, "act:0", 1 << 20))
        proc = engine.process(receiver())
        engine.run()

        engine2 = SimEngine()
        fabric2 = Fabric(fabric.topology, engine=engine2)
        channels2 = ChannelRegistry(engine2)
        arrivals = []
        engine2.process(send(
            fabric2, channels2, 0, dst, "act:0", 1 << 20, payload=7,
            deliver=lambda msg: arrivals.append((msg.payload, engine2.now)),
        ))
        engine2.run()
        assert arrivals == [(7, proc.done.value)]
        assert not channels2._queued and not channels2._waiting

    def test_intra_node_faster_than_cross_cluster(self, setup):
        engine, fabric, channels = setup

        def receiver(src, dst, tag):
            yield from recv(channels, src, dst, tag)
            return engine.now

        engine.process(send(fabric, channels, 0, 1, "a", 1 << 20))
        engine.process(send(fabric, channels, 0, 16, "b", 1 << 20))
        p_local = engine.process(receiver(0, 1, "a"))
        p_cross = engine.process(receiver(0, 16, "b"))
        engine.run()
        assert p_local.done.value < p_cross.done.value

    def test_concurrent_sends_serialize_on_nic(self, setup):
        """Two inter-node sends from one node share the NIC: the second
        arrives roughly one occupancy later."""
        engine, fabric, channels = setup
        nbytes = 1 << 24

        def receiver(src, dst, tag):
            yield from recv(channels, src, dst, tag)
            return engine.now

        engine.process(send(fabric, channels, 0, 8, "x", nbytes))
        engine.process(send(fabric, channels, 1, 9, "y", nbytes))
        p1 = engine.process(receiver(0, 8, "x"))
        p2 = engine.process(receiver(1, 9, "y"))
        engine.run()
        occ = fabric.p2p_occupancy(0, 8, nbytes)
        assert abs(p2.done.value - p1.done.value - occ) < occ * 0.01

    def test_sends_from_different_nodes_overlap(self, setup):
        engine, fabric, channels = setup
        nbytes = 1 << 24

        def receiver(src, dst, tag):
            yield from recv(channels, src, dst, tag)
            return engine.now

        engine.process(send(fabric, channels, 0, 16, "x", nbytes))
        engine.process(send(fabric, channels, 8, 24, "y", nbytes))
        p1 = engine.process(receiver(0, 16, "x"))
        p2 = engine.process(receiver(8, 24, "y"))
        engine.run()
        # Different sender NICs... but both cross the same uplink, so the
        # second completes one uplink occupancy later, not a full NIC+uplink.
        gap = abs(p2.done.value - p1.done.value)
        assert gap <= fabric.uplink_occupancy(nbytes) * 1.01

    def test_messages_matched_by_tag(self, setup):
        engine, fabric, channels = setup

        def receiver():
            second = yield from recv(channels, 0, 8, "tag-b")
            first = yield from recv(channels, 0, 8, "tag-a")
            return first.tag, second.tag

        engine.process(send(fabric, channels, 0, 8, "tag-a", 100))
        engine.process(send(fabric, channels, 0, 8, "tag-b", 100))
        proc = engine.process(receiver())
        engine.run()
        assert proc.done.value == ("tag-a", "tag-b")

    def test_trace_records_send_span(self, setup):
        engine, fabric, channels = setup
        trace = TraceRecorder()
        engine.process(send(fabric, channels, 0, 8, "act:0", 1 << 20, trace))

        def receiver():
            yield from recv(channels, 0, 8, "act:0")

        engine.process(receiver())
        engine.run()
        spans = trace.by_label("send:act:0")
        assert len(spans) == 1
        assert spans[0].bytes == 1 << 20
