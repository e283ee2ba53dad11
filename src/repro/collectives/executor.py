"""Executed collectives: ring/tree/hierarchical algorithms as DES processes.

Instead of pricing a collective as one closed-form lump sum, every member
rank runs a *program* — the per-step send/recv schedule of the algorithm —
over the same :mod:`repro.collectives.p2p` path pipeline parallelism uses.
Each NIC-crossing step chunk acquires the sender's per-node NIC transmit
resource and re-resolves its transport through the health overlay;
intra-node ring hops, which touch neither, and the steps of a NIC edge a
pass provably holds alone are computed exactly within a fused ring pass
(:class:`_RingPass`) instead of as events.  So the paper's headline
phenomena fall out of the event kernel instead of being asserted:

- **slowest-link dominance** (Holmes §2, Table 1): a node-contiguous ring
  chains every chunk through the slowest inter-node edge, so one degraded
  or heterogeneous NIC throttles the whole group;
- **contention**: DP-sync steps and pipeline p2p queue through the same
  NIC FIFO; concurrent rings through one NIC fair-share it emergently;
- **faults**: brownouts, packet loss, NIC flaps, and RDMA -> TCP fallback
  (with communicator rebuild charges) hit collectives mid-flight exactly
  as they hit p2p, because it is literally the same send path.

The closed forms in :mod:`repro.network.costmodel` are retained as an
*oracle*: on an uncontended homogeneous fabric the executed makespan must
match them within 1% (see ``tests/collectives/test_executor_oracle.py``).
The per-step price is chosen to make the decomposition exact — see
:meth:`CollectiveCostModel.collective_step_occupancy`.

Per-op window statistics (latest start to latest end over the members)
feed the engine's measured sync times, and each member's run is recorded
as an outer ``collective`` span so attribution charges genuine collective
time — or, when the op runs in the background behind backward compute,
lets COMPUTE shadow it, which is how hidden communication is *measured*.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, FrozenSet, Generator, List, Optional, Sequence, Tuple

from repro.collectives.p2p import ChannelRegistry, Message, recv, send
from repro.errors import CommunicatorError
from repro.network.contention import FidelityPolicy
from repro.network.fabric import Fabric
from repro.simcore.event import SimEvent
from repro.simcore.process import Wait
from repro.simcore.resource import Barrier
from repro.simcore.trace import TraceRecorder

#: Ops the executor knows how to run.
EXECUTABLE_OPS = (
    "reduce_scatter",
    "allgather",
    "allreduce",
    "broadcast",
    "hierarchical_allreduce",
)


@dataclass
class OpWindow:
    """Per-member start/end bookkeeping for one executed collective op.

    The *window* of the op is the interval every member participates in:
    it opens when the last member arrives (a collective cannot make
    progress before that) and closes when the last member finishes.  Its
    duration is what the engine reports as the measured op time.
    """

    tag: str
    op: str
    group_size: int
    starts: Dict[int, float] = field(default_factory=dict)
    ends: Dict[int, float] = field(default_factory=dict)

    @property
    def start(self) -> float:
        return max(self.starts.values()) if self.starts else 0.0

    @property
    def end(self) -> float:
        return max(self.ends.values()) if self.ends else 0.0

    @property
    def duration(self) -> float:
        # An aborted run can leave members without a recorded end; clamp.
        return max(0.0, self.end - self.start)

    @property
    def complete(self) -> bool:
        return len(self.ends) == self.group_size


#: Kinds of the step events a :class:`_RingPass` replays: a member's hop
#: (step start or completion) on its own arrival, any other hop, the end of
#: an intra-node send (which is also its chunk's arrival), the end of an
#: owned NIC-crossing send, and the arrival of such a send's chunk.
_JOIN, _HOP, _SENT, _DONE, _LANDED = range(5)

#: Kinds of the trace spans a :class:`_RingPass` holds per member.
_SEND_SPAN, _WAIT_SPAN, _NIC_SPAN = range(3)

#: Ring-pass phases whose NIC-crossing edges may be owned: the plain ring
#: ops' passes, over the rings the engine classified.
_OWNABLE_PHASES = ("rs", "ag")


class _RingPass:
    """One pass of a ring schedule (``d - 1`` steps), shared by its members.

    Member ``i`` sends its step-``s`` chunk to member ``i + 1``, then waits
    for member ``i - 1``'s step-``s`` chunk.  With ``S`` a step's start,
    ``E`` the end of its send and ``A`` the chunk's arrival at the
    successor, the step-by-step schedule obeys::

        S(i, 0) = arrival      E(i, s) = S(i, s) + step_time(i)
        R(i, s) = max(E(i, s), A(i - 1, s))      S(i, s + 1) = R(i, s)

    An intra-node hop touches no NIC, uplink or health state, so its ``E``
    (which is also its ``A``) is computed with exactly that float
    arithmetic instead of events, its edge priced once per pass.

    A NIC-crossing edge is computed the same way while the pass *owns* it:
    ``E = S + occupancy`` and ``A = E + latency``, as the send's NIC hold
    and delivery would time them, priced once when ownership starts.  The
    ownership test (:meth:`_owns`) runs at a step start, in the event at
    that time: the edge must be statically ownable
    (:func:`~repro.network.contention.ownable_ring_edges`: no faults or
    stragglers, no uplink, no other ring and no overlapped bucket pass on
    the NIC, blocking p2p from ring members only), every pipeline sender
    on the NIC must have joined this pass, no rebuild may be owed and the
    NIC must be idle.  Then nothing else can transmit through the NIC
    until the member's last step ends, and every later step of the edge is
    computed too.  An edge that fails the test sends that step as a real
    :func:`~repro.collectives.p2p.send` process started at ``S`` — NIC FIFO
    contention, fault re-resolution, rebuild charges and uplinks are
    untouched — whose ``E`` is when the process ends and whose ``A`` is
    when the send delivers the chunk (to the pass itself, not through a
    one-message channel); the test is retried at its next step.
    Actions the event kernel must see (a NIC send starting, a member
    completing) happen at their computed times: inside the current event
    when that is now, else from an event scheduled at that exact time.
    Each member waits on one event, fired at its completion ``R(i, d - 2)``.

    :meth:`_run` replays the computed steps in the order the per-step
    events had in the kernel, so members finishing at the same instant
    leave in that order too — it decides who reaches a shared NIC first
    (as the members of the hierarchical all-reduce's intra-node phases do).

    Trace spans of computed steps are held per member until it completes
    (or :meth:`CollectiveExecutor.settle` flushes the ones a stopped run
    reached), so a traced run records the same spans as a step-by-step one.
    """

    __slots__ = (
        "executor", "key", "ring", "index", "chunk", "messages", "tag",
        "phase", "step_time", "tally", "step", "sent", "inbox",
        "done", "spans", "remaining", "waiting", "order", "ownable", "owned",
    )

    def __init__(
        self,
        executor: "CollectiveExecutor",
        key: tuple,
        ring: Sequence[int],
        chunk: float,
        messages: int,
        tag: str,
        phase: str,
    ) -> None:
        d = len(ring)
        self.executor = executor
        self.key = key
        self.ring = ring
        self.index = {r: i for i, r in enumerate(ring)}
        self.chunk = chunk
        self.messages = messages
        self.tag = tag
        self.phase = phase
        #: per member: intra-node step time to its successor (None: NIC)
        self.step_time: List[Optional[float]] = [None] * d
        #: per member: what each intra-node step adds to the fabric's
        #: counters, (counters, bytes, seconds); None without a registry
        self.tally: List[Optional[tuple]] = [None] * d
        #: per member: current step and the end of its send in that step
        self.step = [0] * d
        self.sent: List[Optional[float]] = [None] * d
        #: per member: arrival time of the predecessor's chunk, per step
        self.inbox: List[Dict[int, float]] = [{} for _ in range(d)]
        #: per member: the step whose chunk it waits for, its send done
        self.waiting: List[Optional[int]] = [None] * d
        #: scheduling order of the replayed events (see :meth:`_run`)
        self.order = count()
        self.done: List[Optional[SimEvent]] = [None] * d
        self.spans: Optional[List[list]] = (
            [[] for _ in range(d)] if executor.trace is not None else None
        )
        self.remaining = d
        #: sending member -> pipeline senders on its NIC, per ownable edge
        self.ownable: Dict[int, FrozenSet[int]] = (
            executor.ownable.get(tuple(ring), {})
            if executor.ownable and phase in _OWNABLE_PHASES
            else {}
        )
        #: per member owning its NIC edge: (occupancy, latency, tally, NIC)
        self.owned: List[Optional[tuple]] = [None] * d

    def join(self, rank: int) -> SimEvent:
        """Member ``rank`` arrives now; returns its completion event."""
        fabric = self.executor.fabric
        i = self.index[rank]
        nxt = self.ring[(i + 1) % len(self.ring)]
        if fabric.p2p_edge(rank, nxt).intra:
            self.step_time[i] = fabric.collective_step_time(
                rank, nxt, self.chunk, self.messages
            )
            self.tally[i] = self._tally(rank, nxt, self.step_time[i])
        done = self.done[i] = SimEvent(fabric.engine, "ring-pass")
        self._run([(fabric.engine.now, next(self.order), _JOIN, i, 0)])
        return done

    def _run(self, heap: list) -> None:
        """Play the pass forward from the events on ``heap`` — ``(time,
        order, kind, member, step)`` — as far as known times allow.

        Replays the step-by-step events in their kernel order — by time,
        then in the order they were scheduled — on a private heap: member
        hops (a step starting, or the member completing), send ends and
        owned sends' chunk arrivals.  An intra-node send end hands the
        chunk to a successor already waiting for it before it lets its own
        member go on, as ``put`` then ``recv`` did.
        """
        executor = self.executor
        fabric = executor.fabric
        now = fabric.engine.now
        hooks = executor.hooks
        ring = self.ring
        last = len(ring) - 1
        step, sent, inbox, waiting = self.step, self.sent, self.inbox, self.waiting
        step_time, tally, spans = self.step_time, self.tally, self.spans
        owned = self.owned
        chunk = self.chunk
        order = self.order
        heappush, heappop = heapq.heappush, heapq.heappop
        heappushpop = heapq.heappushpop
        #: steps to count, in start order (heap order is time order)
        times = array("d")
        tallies: List[tuple] = []
        #: the last event the current one scheduled, pushed as the next is
        #: popped (at once, when it is itself the next)
        pending: Optional[tuple] = None
        while True:
            if pending is not None:
                entry = heappushpop(heap, pending)
                pending = None
            elif heap:
                entry = heappop(heap)
            else:
                break
            when, _, kind, i, s = entry
            if kind <= _HOP:
                if s == last:
                    self._finish(i, when, now)
                    continue
                if hooks is not None:
                    hooks.on_collective_step(self.tag, ring[i], chunk)
                t = step_time[i]
                if t is not None:
                    end = sent[i] = when + t
                    if s and tally[i] is not None:
                        times.append(when)
                        tallies.append(tally[i])
                    if spans is not None:
                        spans[i].append((_SEND_SPAN, s, when, end))
                    pending = (end, next(order), _SENT, i, s)
                    continue
                own = owned[i]
                if own is None:
                    if when > now or not self._owns(i):
                        self._send(i, s, when, now, kind == _JOIN)
                        continue
                    own = self._own(i)
                elif own[2] is not None:
                    times.append(when)
                    tallies.append(own[2])
                self._owned_step(i, s, when, own, heap)
                continue
            if kind != _DONE:
                # the chunk reaches the successor (an intra-node send's end
                # is also its arrival)
                j = i + 1 if i < last else 0
                if waiting[j] == s:
                    end = sent[j]
                    resume = when if when > end else end
                    if spans is not None:
                        spans[j].append((_WAIT_SPAN, s, end, resume))
                    waiting[j] = None
                    step[j] = s + 1
                    pending = (resume, next(order), _HOP, j, s + 1)
                else:
                    inbox[j][s] = when
                if kind == _LANDED:
                    continue
            # the member's own send is done: it goes on once its
            # predecessor's chunk is in, recording the wait
            arrival = inbox[i].pop(s, None)
            if arrival is None:
                waiting[i] = s
            else:
                end = sent[i]
                resume = arrival if arrival > end else end
                if spans is not None:
                    spans[i].append((_WAIT_SPAN, s, end, resume))
                waiting[i] = None
                step[i] = s + 1
                if pending is not None:
                    heappush(heap, pending)
                pending = (resume, next(order), _HOP, i, s + 1)
        if times:
            fabric.count_steps_at(times, tallies)

    def _owns(self, i: int) -> bool:
        """The ownership test for member ``i``'s NIC-crossing edge, at the
        start of one of its steps (now): statically ownable, every pipeline
        sender on the NIC joined, no rebuild owed, the NIC idle and owned by
        no other pass."""
        rank = self.ring[i]
        senders = self.ownable.get(rank)
        if senders is None:
            return False
        done, index = self.done, self.index
        if any(done[index[r]] is None for r in senders):
            return False
        fabric = self.executor.fabric
        nxt = self.ring[(i + 1) % len(self.ring)]
        if fabric.pair_rebuild_owed(rank, nxt):
            return False
        nic = fabric.p2p_edge(rank, nxt).nic
        return nic.in_use == 0 and nic not in self.executor._owners

    def _own(self, i: int) -> tuple:
        """Member ``i`` takes its NIC edge over, pricing it (and publishing
        the step about to run) once."""
        fabric = self.executor.fabric
        rank = self.ring[i]
        nxt = self.ring[(i + 1) % len(self.ring)]
        edge = fabric.p2p_edge(rank, nxt)
        nic = edge.nic
        occupancy = fabric.collective_step_occupancy(
            rank, nxt, self.chunk, self.messages
        )
        own = self.owned[i] = (
            occupancy,
            edge.latency,
            self._tally(rank, nxt, occupancy),
            nic,
        )
        self.executor._owners[nic] = self
        return own

    def _tally(self, rank: int, nxt: int, seconds: float) -> Optional[tuple]:
        """What one step over the edge adds to the fabric's counters, or
        ``None`` without a registry."""
        counters = self.executor.fabric.collective_step_counters(rank, nxt)
        return None if counters is None else (counters, self.chunk, seconds)

    def _owned_step(self, i: int, s: int, begin: float, own: tuple, heap: list) -> None:
        """Member ``i``'s owned step ``s``, starting at ``begin``: its NIC
        hold ends at ``E``, its chunk lands ``latency`` later."""
        end = self.sent[i] = begin + own[0]
        hooks = self.executor.hooks
        if hooks is not None:
            hooks.on_resource_claim(own[3], begin, end)
        if self.spans is not None:
            self.spans[i].append((_NIC_SPAN, s, begin, end))
            self.spans[i].append((_SEND_SPAN, s, begin, end))
        heapq.heappush(heap, (end, next(self.order), _DONE, i, s))
        heapq.heappush(heap, (end + own[1], next(self.order), _LANDED, i, s))

    def _send(self, i: int, s: int, begin: float, now: float, inline: bool) -> None:
        """Start member ``i``'s NIC-crossing step ``s`` at time ``begin``."""
        if begin > now:
            self.executor.fabric.engine.call_at(
                begin, lambda: self._begin_nic_step(i, s)
            )
        else:
            self._start_send(i, s, inline)

    def _begin_nic_step(self, i: int, s: int) -> None:
        """Member ``i``'s NIC-crossing step ``s``, not owned so far, starts
        now, in an event that did not start the member's program."""
        if self._owns(i):
            heap: list = []
            self._owned_step(
                i, s, self.executor.fabric.engine.now, self._own(i), heap
            )
            self._run(heap)
        else:
            self._start_send(i, s, False)

    def _start_send(self, i: int, s: int, inline: bool) -> None:
        engine = self.executor.fabric.engine
        # Started from the joining member's own event, the send runs inline
        # as the member's program did; otherwise the event that made its
        # start time known hands it to a fresh event at that time.
        if inline:
            engine.start(self._nic_step(i, s), "ring-step")
        else:
            engine.process(self._nic_step(i, s), "ring-step")

    def _nic_step(self, i: int, s: int) -> Generator:
        executor = self.executor
        ring = self.ring
        yield from send(
            executor.fabric, executor.channels, ring[i],
            ring[i + 1 if i < len(ring) - 1 else 0],
            f"{self.tag}:{self.phase}{s}", self.chunk, executor.trace,
            payload=s, collective=True, messages=self.messages,
            deliver=self._arrived,
        )
        now = self.sent[i] = executor.fabric.engine.now
        arrival = self.inbox[i].pop(s, None)
        if arrival is None:
            self.waiting[i] = s
        else:
            self._go_on(i, s, arrival, now)

    def _arrived(self, message: Message) -> None:
        """A NIC-crossing step's chunk reached its member, now."""
        j, s = self.index[message.dst], message.payload
        now = self.executor.fabric.engine.now
        if self.waiting[j] == s:
            self._go_on(j, s, now, now)
        else:
            self.inbox[j][s] = now

    def _go_on(self, i: int, s: int, arrival: float, now: float) -> None:
        """Member ``i`` has both its step-``s`` send done and the chunk
        (arrived at ``arrival``), learnt in an event at ``now``."""
        end = self.sent[i]
        resume = arrival if arrival > end else end
        if self.spans is not None:
            self.spans[i].append((_WAIT_SPAN, s, end, resume))
        self.waiting[i] = None
        s = self.step[i] = s + 1
        if resume == now and self.step_time[i] is None and self.owned[i] is None:
            # a NIC-crossing member going on now: no computed step to
            # replay, so act as :meth:`_run` would, without its heap
            if s == len(self.ring) - 1:
                self._complete(i)
                return
            hooks = self.executor.hooks
            if hooks is not None:
                hooks.on_collective_step(self.tag, self.ring[i], self.chunk)
            self._begin_nic_step(i, s)
        else:
            self._run([(resume, next(self.order), _HOP, i, s)])

    def _finish(self, i: int, end: float, now: float) -> None:
        if end > now:
            self.executor.fabric.engine.call_at(end, lambda: self._complete(i))
        else:
            self._complete(i)

    def _complete(self, i: int) -> None:
        if self.spans is not None:
            self._record(i, self.spans[i])
            self.spans[i] = []
        own = self.owned[i]
        if own is not None and self.executor._owners.get(own[3]) is self:
            del self.executor._owners[own[3]]
        self.remaining -= 1
        if self.remaining == 0:
            del self.executor._passes[self.key]
        done = self.done[i]
        assert done is not None
        done.succeed()

    def flush_spans(self, now: float) -> None:
        """Record every held span that ended by ``now``."""
        if self.spans is None:
            return
        for i, held in enumerate(self.spans):
            self._record(i, [span for span in held if span[3] <= now])
            self.spans[i] = [span for span in held if span[3] > now]

    def _record(self, i: int, held: list) -> None:
        trace = self.executor.trace
        assert trace is not None
        fabric = self.executor.fabric
        ring = self.ring
        rank = ring[i]
        nxt = ring[(i + 1) % len(ring)]
        prev = ring[i - 1]
        prefix = f"{self.tag}:{self.phase}"
        for kind, s, begin, end in held:
            if kind == _SEND_SPAN:
                trace.record(
                    rank, "p2p", f"send:{prefix}{s}", begin, end, self.chunk,
                    dst=nxt, coll=1,
                )
            elif kind == _WAIT_SPAN:
                trace.record(
                    rank, "idle", f"recv-wait:{prefix}{s}", begin, end,
                    self.chunk, src=prev,
                )
            else:
                topo = fabric.topology
                trace.record(
                    rank, "nic", f"nic-tx:{prefix}{s}", begin, end, self.chunk,
                    dst=nxt,
                    family=fabric.p2p_edge(rank, nxt).family.value,
                    src_node=topo.device(rank).node_global,
                    dst_node=topo.device(nxt).node_global,
                )


class CollectiveExecutor:
    """Builds and runs per-rank collective programs on one event fabric.

    One executor is shared by every rank process of a simulation; it owns
    the window registry keyed by op tag.  Tags must be unique per logical
    op instance (e.g. ``dp0:reduce_scatter0:b3``) — step channels derive
    their tags from it, and reuse would cross-wire messages.
    """

    def __init__(
        self,
        fabric: Fabric,
        channels: ChannelRegistry,
        trace: Optional[TraceRecorder] = None,
        fidelity: Optional[FidelityPolicy] = None,
    ) -> None:
        self.fabric = fabric
        self.channels = channels
        self.trace = trace
        self.windows: Dict[str, OpWindow] = {}
        #: sanitizer shared with the fabric (byte-conservation auditing)
        self.hooks = getattr(fabric, "hooks", None)
        #: tiered-fidelity span classifier; ``None`` means pure executed
        self.fidelity = fidelity
        #: per-tag rendezvous of in-flight aggregate (analytic) collectives
        self._aggregates: Dict[str, Barrier] = {}
        #: virtual time each ring's NICs next come free — serializes
        #: concurrent aggregate ops over one ring the way the NIC FIFO
        #: serializes their executed steps
        self._ring_free: Dict[tuple, float] = {}
        #: ring order and per-member node ids, per member set
        self._rings: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._nodes: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: in-flight ring passes by (op tag, phase, first ring member)
        self._passes: Dict[tuple, "_RingPass"] = {}
        #: per ring, its statically ownable NIC edges (sending member ->
        #: pipeline senders on its NIC); set by the engine, see
        #: :func:`~repro.network.contention.ownable_ring_edges`
        self.ownable: Dict[Tuple[int, ...], Dict[int, FrozenSet[int]]] = {}
        #: NIC transmit resources a ring pass currently owns
        self._owners: Dict[object, "_RingPass"] = {}

    # ------------------------------------------------------------------ #
    # ring construction
    # ------------------------------------------------------------------ #

    def ring_order(self, ranks: Sequence[int]) -> List[int]:
        """Node-contiguous deterministic ring (NCCL-style): members of one
        node are adjacent, so each node crosses its NIC exactly once per
        direction and the slowest inter-node edge bounds every step."""
        return list(self._ring(ranks))

    def _ring(self, ranks: Sequence[int]) -> Tuple[int, ...]:
        """Cached :meth:`ring_order` of one member set."""
        key = ranks if isinstance(ranks, tuple) else tuple(ranks)
        ring = self._rings.get(key)
        if ring is None:
            topo = self.fabric.topology
            ring = tuple(
                sorted(set(key), key=lambda r: (topo.device(r).node_global, r))
            )
            self._rings[key] = ring
        return ring

    def _node_ids(self, ring: Tuple[int, ...]) -> Tuple[int, ...]:
        """Cached node of every member of ``ring``, in ring order."""
        nodes = self._nodes.get(ring)
        if nodes is None:
            topo = self.fabric.topology
            nodes = tuple(topo.device(r).node_global for r in ring)
            self._nodes[ring] = nodes
        return nodes

    # ------------------------------------------------------------------ #
    # per-rank programs
    # ------------------------------------------------------------------ #

    def run_op(
        self,
        op: str,
        ranks: Sequence[int],
        rank: int,
        nbytes: float,
        tag: str,
        label: Optional[str] = None,
    ) -> Generator:
        """Process body: ``rank``'s program for one collective ``op``.

        Every member of ``ranks`` must run this with the same arguments
        (bar ``rank``); the programs synchronize through their step
        channels.  Records the member's window and an outer ``collective``
        trace span covering its whole participation.
        """
        if op not in EXECUTABLE_OPS:
            raise CommunicatorError(f"unknown executable collective: {op!r}")
        ring = self._ring(ranks)
        if rank not in ring:
            raise CommunicatorError(f"rank {rank} not in group {ring}")
        if len(ring) <= 1 or nbytes <= 0:
            return
        engine = self.fabric.engine
        window = self.windows.get(tag)
        if window is None:
            window = OpWindow(tag=tag, op=op, group_size=len(ring))
            self.windows[tag] = window
        window.starts[rank] = engine.now
        start = engine.now
        if self.hooks is not None:
            self.hooks.begin_collective(
                tag, op, rank, ring, nbytes, self._node_ids(ring)
            )
        d = len(ring)
        if self.fidelity is not None and self.fidelity.collective_analytic(ring):
            yield from self._aggregate(op, ring, rank, nbytes, tag)
            window.ends[rank] = engine.now
            if self.hooks is not None:
                self.hooks.end_collective_member(tag, rank, start, engine.now)
            if self.trace is not None and self.trace.enabled:
                self.trace.record(
                    rank, "collective", label or f"coll:{tag}", start,
                    engine.now, nbytes, op=op, group=d, analytic=1,
                )
            return
        messages = self.fabric.cost_model.num_buckets(nbytes)
        if op == "reduce_scatter":
            yield from self._ring_phase(ring, rank, nbytes / d, messages, tag, "rs")
        elif op == "allgather":
            yield from self._ring_phase(ring, rank, nbytes / d, messages, tag, "ag")
        elif op == "allreduce":
            yield from self._ring_phase(ring, rank, nbytes / d, messages, tag, "rs")
            yield from self._ring_phase(ring, rank, nbytes / d, messages, tag, "ag")
        elif op == "broadcast":
            yield from self._tree_broadcast(ring, rank, nbytes, tag)
        else:  # hierarchical_allreduce
            yield from self._hierarchical(ring, rank, nbytes, tag)
        window.ends[rank] = engine.now
        if self.hooks is not None:
            self.hooks.end_collective_member(tag, rank, start, engine.now)
        if self.trace is not None and self.trace.enabled:
            self.trace.record(
                rank, "collective", label or f"coll:{tag}", start, engine.now,
                nbytes, op=op, group=d,
            )

    def _aggregate(
        self, op: str, ring: Tuple[int, ...], rank: int, nbytes: float, tag: str
    ) -> Generator:
        """Analytic fast path: the whole collective as one aggregate event.

        Every member rendezvouses on a per-tag :class:`Barrier`; when the
        last member arrives, the closed-form oracle prices the op once and
        all members are released ``duration`` later — exactly the window an
        uncontended executed ring produces (the oracle-agreement tests pin
        executed-vs-closed-form to <1%, and the telescoping property test
        pins aggregate-vs-closed-form to float identity).  Concurrent ops
        over the *same* ring (overlapped gradient buckets) serialize through
        :attr:`_ring_free`, mirroring the NIC FIFO they would otherwise
        queue through.  Byte conservation is settled against the same
        closed forms the sanitizer telescopes executed steps to, so the
        :class:`~repro.validate.ValidationHooks` ledger stays coherent
        across tiers.
        """
        engine = self.fabric.engine
        if self.hooks is not None:
            from repro.validate.invariants import expected_member_step_bytes

            self.hooks.on_collective_step(
                tag, rank,
                expected_member_step_bytes(
                    op, ring, rank, nbytes, self._node_ids(ring)
                ),
            )
        barrier = self._aggregates.get(tag)
        if barrier is None:
            key = tuple(ring)

            def price(
                arrivals: List[float],
                _op: str = op,
                _ring: tuple = tuple(ring),
                _nbytes: float = nbytes,
                _key: tuple = key,
            ) -> float:
                start = max(arrivals)
                queue = max(0.0, self._ring_free.get(_key, 0.0) - start)
                if _op == "hierarchical_allreduce":
                    from repro.collectives.hierarchical import (
                        hierarchical_allreduce_time,
                    )

                    duration = hierarchical_allreduce_time(
                        self.fabric, list(_ring), _nbytes
                    )
                else:
                    duration = self.fabric.collective_time(_op, list(_ring), _nbytes)
                self._ring_free[_key] = start + queue + duration
                return queue + duration

            barrier = Barrier(
                engine, parties=len(ring), duration_fn=price, name=f"agg:{tag}"
            )
            self._aggregates[tag] = barrier
        yield Wait(barrier.arrive())

    def _ring_phase(
        self,
        ring: Sequence[int],
        rank: int,
        chunk: float,
        messages: int,
        tag: str,
        phase: str,
    ) -> Generator:
        """One ring pass: ``d - 1`` (send to successor, recv from
        predecessor) steps of one ``chunk`` each.  Data dependency per
        step: a rank cannot begin step ``s + 1`` before receiving its
        predecessor's step-``s`` chunk, which is what propagates a slow
        edge's pace around the whole ring.  The members share one
        :class:`_RingPass`; each waits once, for its own completion."""
        key = (tag, phase, ring[0])
        ring_pass = self._passes.get(key)
        if ring_pass is None:
            ring_pass = _RingPass(self, key, ring, chunk, messages, tag, phase)
            self._passes[key] = ring_pass
        yield Wait(ring_pass.join(rank))

    def settle(self) -> None:
        """Once the run has stopped: record the trace spans of ring steps
        that ended by now but whose members never completed, and publish
        the computed steps that started by now — a run stopped early (crash
        abort) keeps exactly the spans and counts a step-by-step execution
        would have recorded."""
        now = self.fabric.engine.now
        for ring_pass in self._passes.values():
            ring_pass.flush_spans(now)
        self.fabric.flush_step_counts(now)

    def _tree_broadcast(
        self, ring: Tuple[int, ...], rank: int, nbytes: float, tag: str
    ) -> Generator:
        """Binomial-tree broadcast from the ring's first member: a rank at
        relative position ``rel`` joins in round ``floor(log2(rel))`` and
        relays to ``rel + 2**r`` in every later round ``r``."""
        d = len(ring)
        rel = ring.index(rank)
        depth = max(1, (d - 1).bit_length())
        if rel > 0:
            joined = rel.bit_length() - 1
            parent = ring[rel - (1 << joined)]
            yield from recv(
                self.channels, parent, rank, f"{tag}:r{joined}", trace=self.trace
            )
        else:
            joined = -1
        for r in range(joined + 1, depth):
            target = rel + (1 << r)
            if target < d:
                if self.hooks is not None:
                    self.hooks.on_collective_step(tag, rank, nbytes)
                yield from send(
                    self.fabric, self.channels, rank, ring[target],
                    f"{tag}:r{r}", nbytes, self.trace,
                    collective=True, messages=1,
                )

    def _hierarchical(
        self, ring: Tuple[int, ...], rank: int, nbytes: float, tag: str
    ) -> Generator:
        """Two-level all-reduce: intra-node reduce-scatter, inter-node
        all-reduce of each shard slot (G concurrent rings sharing each
        node's NIC), intra-node all-gather."""
        by_node: Dict[int, List[int]] = {}
        node_of: Dict[int, int] = {}
        for r, node in zip(ring, self._node_ids(ring)):
            by_node.setdefault(node, []).append(r)
            node_of[r] = node
        nodes = sorted(by_node)
        locals_ = by_node[node_of[rank]]
        G = len(locals_)
        if any(len(by_node[n]) != G for n in nodes):
            raise CommunicatorError("hierarchical schedule needs equal ranks per node")
        messages = self.fabric.cost_model.num_buckets(nbytes)
        if len(nodes) == 1:
            yield from self._ring_phase(locals_, rank, nbytes / G, messages, tag, "rs")
            yield from self._ring_phase(locals_, rank, nbytes / G, messages, tag, "ag")
            return
        if G > 1:
            yield from self._ring_phase(locals_, rank, nbytes / G, messages, tag, "hrs")
        # Each local shard slot forms its own inter-node ring; the G rings
        # run concurrently and fair-share each node's NIC via its FIFO.
        slot = locals_.index(rank)
        slot_ring = [by_node[n][slot] for n in nodes]
        inter_bytes = nbytes / G
        inter_messages = self.fabric.cost_model.num_buckets(inter_bytes)
        n = len(slot_ring)
        yield from self._ring_phase(
            slot_ring, rank, inter_bytes / n, inter_messages, tag, "hir"
        )
        yield from self._ring_phase(
            slot_ring, rank, inter_bytes / n, inter_messages, tag, "hia"
        )
        if G > 1:
            yield from self._ring_phase(locals_, rank, nbytes / G, messages, tag, "hag")

    # ------------------------------------------------------------------ #
    # measured op times
    # ------------------------------------------------------------------ #

    def op_duration(self, tag: str) -> float:
        """Measured window duration of one op instance (0.0 if unknown)."""
        window = self.windows.get(tag)
        return window.duration if window is not None else 0.0

    def total_duration(self, prefix: str) -> float:
        """Summed window durations of ``prefix`` itself plus any of its
        per-bucket instances (``prefix:b<i>``)."""
        marker = prefix + ":b"
        return sum(
            w.duration
            for t, w in self.windows.items()
            if t == prefix or t.startswith(marker)
        )

    def intervals(self, prefix: str) -> List[tuple]:
        """In-flight ``(first member start, last member end)`` intervals of
        every window matching ``prefix`` (exact tag or per-bucket
        ``prefix:b<i>``).  Unlike :attr:`OpWindow.duration` — which opens
        at the *last* member's arrival — these span the whole time any
        member had the op in flight, so their wall-clock union measures
        how long the fabric actually carried the traffic."""
        marker = prefix + ":b"
        out: List[tuple] = []
        for t, w in self.windows.items():
            if (t == prefix or t.startswith(marker)) and w.starts and w.ends:
                lo = min(w.starts.values())
                hi = max(w.ends.values())
                if hi > lo:
                    out.append((lo, hi))
        return out
