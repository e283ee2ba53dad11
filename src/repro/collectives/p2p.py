"""Point-to-point transfers as discrete-event processes.

Pipeline parallelism exchanges activations (forward) and activation
gradients (backward) between adjacent stages; executed collectives
(:mod:`repro.collectives.executor`) move their per-step chunks over the
very same path.  Every transfer is simulated through per-node NIC transmit
resources, so concurrent sends — pipeline p2p and collective steps alike —
queue up realistically through the NIC a node actually has.

:func:`send` carries both traffic classes: with ``collective=True`` the
occupancy is priced by the collective step model (per-bucket software
overhead, ring-step latency pipelining) instead of the p2p message model,
but resource acquisition, fault-driven transport re-resolution, rebuild
charges, uplink sharing, tracing, and delivery are one shared code path.

The generator returned by :func:`send` is meant to be spawned as (or yielded
from) a :class:`~repro.simcore.process.Process`; the matching receiver calls
:func:`recv` on the same (src, dst, tag) mailbox of the
:class:`ChannelRegistry`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import TransportError
from repro.network.fabric import EdgePlan, Fabric
from repro.simcore.engine import SimEngine
from repro.simcore.event import SimEvent
from repro.simcore.process import Timeout
from repro.simcore.trace import TraceRecorder


class Message:
    """Payload descriptor delivered through a channel (no real data; the
    training simulation only needs sizes and tags)."""

    __slots__ = ("src", "dst", "tag", "nbytes", "payload")

    def __init__(
        self, src: int, dst: int, tag: str, nbytes: float, payload: Any = None
    ) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload


class Channel:
    """A named view of one (src, dst, tag) mailbox of a
    :class:`ChannelRegistry`."""

    def __init__(self, registry: "ChannelRegistry", src: int, dst: int, tag: str) -> None:
        self.registry = registry
        self.src = src
        self.dst = dst
        self.tag = tag

    def put(self, message: Message) -> None:
        self.registry.put(message)

    def get(self) -> SimEvent:
        return self.registry.get(self.src, self.dst, self.tag)


class ChannelRegistry:
    """Mailboxes keyed by (src, dst, tag): a FIFO of queued messages and a
    FIFO of waiting receivers each, made on first use and dropped once
    empty — the semantics of a :class:`~repro.simcore.resource.Store` per
    key, without building one per message tag."""

    def __init__(self, engine: SimEngine) -> None:
        self.engine = engine
        self._queued: Dict[Tuple[int, int, str], List[Message]] = {}
        self._waiting: Dict[Tuple[int, int, str], List[SimEvent]] = {}

    def channel(self, src: int, dst: int, tag: str) -> Channel:
        return Channel(self, src, dst, tag)

    def put(self, message: Message) -> None:
        """Deliver ``message``, waking the oldest receiver waiting for it."""
        key = (message.src, message.dst, message.tag)
        waiting = self._waiting.get(key)
        if waiting is None:
            self._queued.setdefault(key, []).append(message)
            return
        getter = waiting.pop(0)
        if not waiting:
            del self._waiting[key]
        getter.succeed(message)

    def take(self, src: int, dst: int, tag: str) -> Optional[Message]:
        """The oldest queued message, taken without an event (``None`` when
        nothing is queued)."""
        key = (src, dst, tag)
        queued = self._queued.get(key)
        if queued is None:
            return None
        message = queued.pop(0)
        if not queued:
            del self._queued[key]
        return message

    def get(self, src: int, dst: int, tag: str) -> SimEvent:
        """Request a message; the event fires with it when available."""
        ev = SimEvent(self.engine, tag)
        message = self.take(src, dst, tag)
        if message is None:
            self._waiting.setdefault((src, dst, tag), []).append(ev)
        else:
            ev.succeed(message)
        return ev


def _deliver(
    fabric: Fabric,
    channels: ChannelRegistry,
    edge: EdgePlan,
    tag: str,
    nbytes: float,
    payload: Any = None,
    trace: Optional[TraceRecorder] = None,
    deliver: Optional[Callable[[Message], None]] = None,
) -> None:
    """Network-side continuation of a send, started as bytes leave the
    sender's NIC: store-and-forward through the inter-cluster uplink (if
    any), then the propagation latency of ``edge`` (the plan the send
    started with), then delivery into the destination mailbox (or to
    ``deliver``).  Runs asynchronously as a chain of scheduled callbacks —
    the *sender* only blocks until bytes leave its NIC — with one event
    wherever a delivery process had one (its start, an uplink grant, each
    wait), so every event keeps its place in the kernel's order."""
    engine = fabric.engine
    src, dst = edge.src, edge.dst
    uplink = edge.uplink
    latency = edge.latency

    def land() -> None:
        message = Message(src, dst, tag, nbytes, payload)
        if deliver is None:
            channels.put(message)
        else:
            deliver(message)

    def hold() -> None:
        held = engine.now

        def leave() -> None:
            uplink.release()
            if trace is not None:
                trace.record(
                    src, "uplink", f"uplink:{tag}", held, engine.now, nbytes,
                    src_cluster=fabric.topology.device(src).cluster_id,
                    dst_cluster=fabric.topology.device(dst).cluster_id,
                )
            engine.call_at(engine.now + latency, land)

        engine.call_at(held + fabric.uplink_occupancy(nbytes), leave)

    def start() -> None:
        if uplink is None:
            engine.call_at(engine.now + latency, land)
        elif uplink.try_acquire():
            if engine.quiet():
                hold()
            else:
                engine.call_at(engine.now, hold)
        else:
            uplink.acquire().add_callback(
                lambda _granted: engine.call_at(engine.now, hold)
            )

    engine.call_at(engine.now, start)


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
    """Process body: transmit ``nbytes`` from ``src`` to ``dst``.

    Occupies the sender's NIC transmit resource for the serialization time
    (FIFO with other sends through the same NIC).  The generator returns
    once bytes have left the sender's NIC — Megatron's synchronous-send
    semantics; switch forwarding, uplink sharing, and propagation continue
    asynchronously via :func:`_deliver`.  Intra-node transfers skip the NIC
    entirely.

    With ``collective=True`` this is one *step* of an executed collective:
    the payload is one ring/tree chunk fused into ``messages`` buckets, and
    occupancy comes from the collective step model so that steps chained by
    :mod:`repro.collectives.executor` reproduce the closed-form alpha-beta
    costs on an uncontended fabric.  Everything else — NIC FIFO, fault
    re-resolution, rebuild charges, uplinks, tracing — is shared with p2p.

    ``analytic=True`` (set only when a
    :class:`~repro.network.contention.FidelityPolicy` proved the sender NIC
    exclusively held for this edge) skips the NIC resource acquire/release
    and its trace span: with no competitor the queue wait is zero by
    construction, so the transfer's timing is identical while the event
    count shrinks.  A pending rebuild charge (fault aftermath) always drops
    back to the executed path.

    ``deliver``, when given, is called with the arriving :class:`Message`
    instead of putting it into the ``(src, dst, tag)`` channel: a receiver
    that tracks arrivals itself (an executed ring pass) skips building a
    one-message channel per transfer.
    """
    engine = fabric.engine
    if engine is None:
        raise TransportError("fabric has no simulation engine attached")
    # A disabled recorder must be a true no-op on this hot path: skip even
    # the label f-strings and kwargs dicts, not just the append.
    tracing = trace is not None and trace.enabled
    # the transport, NIC and latency this send uses are the ones current
    # now; its occupancy is priced when its NIC is granted
    edge = fabric.p2p_edge(src, dst)
    start = engine.now
    if edge.intra:
        if collective:
            duration = fabric.collective_step_time(src, dst, nbytes, messages)
        else:
            duration = fabric.p2p_time(src, dst, nbytes)
        yield Timeout(duration)
        message = Message(src, dst, tag, nbytes, payload)
        if deliver is None:
            channels.put(message)
        else:
            deliver(message)
    else:
        # A NIC fault may have re-resolved this pair to a different
        # transport family since it last communicated; the first transfer
        # over the new channel pays the communicator rebuild.
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
            nic = edge.nic
            if not (engine.quiet() and nic.try_acquire()):
                yield nic.acquire()
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
                    dst=dst, family=edge.family.value,
                    src_node=fabric.topology.device(src).node_global,
                    dst_node=fabric.topology.device(dst).node_global,
                )
        _deliver(
            fabric, channels, edge, tag, nbytes, payload,
            trace if tracing else None, deliver,
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
    """Process body: block until a message arrives on (src, dst, tag).

    Returns the :class:`Message` as the generator's value, so callers can
    ``msg = yield from recv(...)`` inside their own process bodies.  With a
    recorder attached, the wait is recorded as an ``idle`` span (a
    receive-side pipeline bubble) — also the anchor the Chrome-trace
    exporter hangs p2p flow arrows on.
    """
    engine = channels.engine
    tracing = trace is not None and trace.enabled
    start = engine.now if tracing else 0.0
    # already queued, and nothing else due now: taken at once
    msg = channels.take(src, dst, tag) if engine.quiet() else None
    if msg is None:
        msg = yield channels.get(src, dst, tag)
    if tracing:
        trace.record(
            dst, "idle", f"recv-wait:{tag}", start, engine.now, msg.nbytes,
            src=src,
        )
    return msg
