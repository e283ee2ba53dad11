"""Test-only reference: the step-by-step ring pass the executor replaced.

:class:`StepwiseExecutor` runs every ring step — intra-node hops and
NIC-crossing edges alike — as its own ``send``/``recv`` pair of events on
the member's process, the way the executed tier worked before ring passes
were fused.  The transfers go through :func:`send` / :func:`recv` /
:func:`_deliver` below, a frozen copy of the p2p path as it was then (a
spawned delivery process, a resume event on every NIC grant, a yield on
every receive), so the fused executor and the leaner send path are held to
one fixed reference rather than to themselves.  :func:`stepwise_engine`
makes a whole training simulation use it, pipeline transfers included.

The differential tests hold the fused executor to it: equal result
documents untraced, and an equal multiset of trace spans traced.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Generator, Iterator, Optional, Sequence

from repro.collectives.executor import CollectiveExecutor
from repro.collectives.p2p import ChannelRegistry, Message
from repro.errors import TransportError
from repro.network.fabric import Fabric
from repro.network.transport import nic_family_for
from repro.simcore.process import Timeout, Wait
from repro.simcore.trace import TraceRecorder


def _deliver(
    fabric: Fabric,
    channels: ChannelRegistry,
    src: int,
    dst: int,
    tag: str,
    nbytes: float,
    latency: float,
    payload: Any = None,
    trace: Optional[TraceRecorder] = None,
    deliver: Optional[Callable[[Message], None]] = None,
) -> Generator:
    """Network-side continuation of a send, as its own process."""
    uplink = fabric.uplink_resource(src, dst)
    if uplink is not None:
        yield Wait(uplink.acquire())
        held = fabric.engine.now
        yield Timeout(fabric.uplink_occupancy(nbytes))
        uplink.release()
        if trace is not None and trace.enabled:
            trace.record(
                src, "uplink", f"uplink:{tag}", held, fabric.engine.now, nbytes,
                src_cluster=fabric.topology.device(src).cluster_id,
                dst_cluster=fabric.topology.device(dst).cluster_id,
            )
    yield Timeout(latency)
    message = Message(src=src, dst=dst, tag=tag, nbytes=nbytes, payload=payload)
    if deliver is None:
        channels.channel(src, dst, tag).put(message)
    else:
        deliver(message)


def send(
    fabric: Fabric,
    channels: ChannelRegistry,
    src: int,
    dst: int,
    tag: str,
    nbytes: float,
    trace: Optional[TraceRecorder] = None,
    payload: Any = None,
    collective: bool = False,
    messages: int = 1,
    analytic: bool = False,
    deliver: Optional[Callable[[Message], None]] = None,
) -> Generator:
    """Process body: transmit ``nbytes`` from ``src`` to ``dst``, one event
    per resource grant and a spawned delivery process."""
    engine = fabric.engine
    if engine is None:
        raise TransportError("fabric has no simulation engine attached")
    tracing = trace is not None and trace.enabled
    transport = fabric.transport(src, dst)
    start = engine.now
    if transport.kind.is_intra_node:
        if collective:
            duration = fabric.collective_step_time(src, dst, nbytes, messages)
        else:
            duration = fabric.p2p_time(src, dst, nbytes)
        yield Timeout(duration)
        message = Message(src=src, dst=dst, tag=tag, nbytes=nbytes, payload=payload)
        if deliver is None:
            channels.channel(src, dst, tag).put(message)
        else:
            deliver(message)
    else:
        rebuild = fabric.pair_rebuild_time(src, dst)
        if rebuild > 0.0:
            rebuild_start = engine.now
            yield Timeout(rebuild)
            if tracing:
                trace.record(
                    src, "fault", "comm-rebuild", rebuild_start, engine.now,
                    dst=dst,
                )
        if analytic and rebuild == 0.0:
            if collective:
                occupancy = fabric.collective_step_occupancy(
                    src, dst, nbytes, messages
                )
            else:
                occupancy = fabric.p2p_occupancy(src, dst, nbytes)
            yield Timeout(occupancy)
        else:
            family = nic_family_for(transport.kind)
            nic = fabric.nic_tx_resource(src, family)
            yield Wait(nic.acquire())
            occupied = engine.now
            if collective:
                occupancy = fabric.collective_step_occupancy(
                    src, dst, nbytes, messages
                )
            else:
                occupancy = fabric.p2p_occupancy(src, dst, nbytes)
            yield Timeout(occupancy)
            nic.release()
            if tracing:
                trace.record(
                    src, "nic", f"nic-tx:{tag}", occupied, engine.now, nbytes,
                    dst=dst, family=family.value,
                    src_node=fabric.topology.device(src).node_global,
                    dst_node=fabric.topology.device(dst).node_global,
                )
        engine.process(
            _deliver(
                fabric, channels, src, dst, tag, nbytes,
                transport.latency, payload, trace if tracing else None,
                deliver,
            ),
            name=f"deliver[{src}->{dst}:{tag}]",
        )
    if tracing:
        if collective:
            trace.record(
                src, "p2p", f"send:{tag}", start, engine.now, nbytes,
                dst=dst, coll=1,
            )
        else:
            trace.record(src, "p2p", f"send:{tag}", start, engine.now, nbytes, dst=dst)


def recv(
    channels: ChannelRegistry,
    src: int,
    dst: int,
    tag: str,
    trace: Optional[TraceRecorder] = None,
) -> Generator:
    """Process body: block until a message arrives on (src, dst, tag),
    yielding even when it is already queued."""
    chan = channels.channel(src, dst, tag)
    tracing = trace is not None and trace.enabled
    start = channels.engine.now if tracing else 0.0
    msg = yield Wait(chan.get())
    if tracing:
        engine = channels.engine
        trace.record(
            dst, "idle", f"recv-wait:{tag}", start, engine.now, msg.nbytes,
            src=src,
        )
    return msg


class StepwiseExecutor(CollectiveExecutor):
    """:class:`CollectiveExecutor` with the per-step ring loop."""

    def _ring_phase(
        self,
        ring: Sequence[int],
        rank: int,
        chunk: float,
        messages: int,
        tag: str,
        phase: str,
    ) -> Generator:
        d = len(ring)
        i = list(ring).index(rank)
        nxt = ring[(i + 1) % d]
        prev = ring[(i - 1) % d]
        for s in range(d - 1):
            step_tag = f"{tag}:{phase}{s}"
            if self.hooks is not None:
                self.hooks.on_collective_step(tag, rank, chunk)
            yield from send(
                self.fabric, self.channels, rank, nxt, step_tag, chunk,
                self.trace, collective=True, messages=messages,
            )
            yield from recv(self.channels, prev, rank, step_tag, trace=self.trace)


@contextlib.contextmanager
def stepwise_engine() -> Iterator[None]:
    """Make training simulations built inside the block use the stepwise
    reference executor and the frozen pipeline send path."""
    import repro.core.engine as core_engine

    saved = (core_engine.CollectiveExecutor, core_engine.send, core_engine.recv)
    core_engine.CollectiveExecutor = StepwiseExecutor
    core_engine.send, core_engine.recv = send, recv
    try:
        yield
    finally:
        (
            core_engine.CollectiveExecutor, core_engine.send, core_engine.recv
        ) = saved
