"""The fabric: topology + cost model + (optionally) DES NIC resources.

:class:`Fabric` is the single object the collective library and training
engine consult for "how long does this communication take, and through what".
It caches pairwise transport resolution, computes the slowest-edge transport
of a rank group (which governs ring collectives), and — when attached to a
:class:`~repro.simcore.engine.SimEngine` — hands out per-node NIC transmit
resources so concurrent point-to-point transfers through one NIC serialize
naturally in the discrete-event simulation.

Resolution is *health-aware*: a :class:`~repro.network.health.FabricHealth`
overlay (mutated by the fault injector) can take NICs down, degrade link
bandwidth, or impose per-transfer loss.  When an RDMA NIC is down, affected
pairs re-resolve to the TCP/Ethernet fallback — the paper's §3.2 mechanics
applied dynamically — and the first communication over the changed transport
is charged a communicator rebuild.  Transport caches are epoch-keyed against
the health overlay, so resolution stays O(1) between faults.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CommunicatorError, TransportError
from repro.hardware.nic import NICType
from repro.hardware.topology import ClusterTopology
from repro.network.contention import group_node_span
from repro.network.costmodel import CollectiveCostModel, CostModelConfig
from repro.network.health import FabricHealth, FaultStats
from repro.network.transport import (
    Transport,
    TransportKind,
    nic_family_for,
    resolve_transport,
)
from repro.obs.registry import MetricsRegistry
from repro.simcore.engine import SimEngine
from repro.simcore.resource import Resource

#: Per-transfer loss probability modelling a *dead* destination (crashed
#: node, both NIC families down): every attempt times out, the bounded
#: retry budget is exhausted, and the transfer is abandoned — expensive but
#: finite, so the simulation cannot deadlock on a corpse.
DEAD_LINK_LOSS = 0.99

#: str(TransportKind) per enum member, computed once — the hot pricing
#: paths label every published sample with the transport kind.
_KIND_STR = {kind: str(kind) for kind in TransportKind}


class EdgePlan:
    """What transfers over one directed ``(src, dst)`` edge need from the
    fabric, resolved once per health epoch by :meth:`Fabric.p2p_edge`:
    the transport, whether it stays inside a node, the NIC family, the
    sender's NIC transmit resource and the inter-cluster uplink (``None``
    without an attached engine, inside a node or inside a cluster), the
    propagation latency, and whether both ends share a cluster.  It also
    memoises the edge's p2p occupancy per size (raw cost-model output and
    the lossless price) and the registry children its transfers publish
    into.

    A send reads the transport, family, NIC and latency from the plan
    current when it *starts*, and prices its occupancy from the plan
    current when its NIC is *granted* — a fault landing while a transfer
    queues changes its occupancy, not its NIC or its latency.
    """

    __slots__ = (
        "src", "dst", "epoch", "transport", "intra", "family", "nic",
        "uplink", "latency", "same_cluster", "occupancy", "counters", "hist",
    )

    def __init__(self, fabric: "Fabric", src: int, dst: int) -> None:
        transport = fabric.transport(src, dst)
        self.src = src
        self.dst = dst
        self.epoch = fabric.health.epoch
        self.transport = transport
        self.intra = transport.kind.is_intra_node
        self.latency = transport.latency
        self.same_cluster = fabric.topology.same_cluster(src, dst)
        self.family: Optional[NICType] = None
        self.nic: Optional[Resource] = None
        self.uplink: Optional[Resource] = None
        if not self.intra:
            self.family = nic_family_for(transport.kind)
            if fabric.engine is not None:
                self.nic = fabric.nic_tx_resource(src, self.family)
                if not self.same_cluster:
                    self.uplink = fabric.uplink_resource(src, dst)
        #: nbytes -> (occupancy, lossless occupancy or None)
        self.occupancy: Dict[float, Tuple[float, Optional[float]]] = {}
        #: (bytes, seconds) p2p counters and the occupancy histogram child,
        #: bound at the first transfer priced with a registry
        self.counters: Optional[tuple] = None
        self.hist: Optional[object] = None


class Fabric:
    """Communication oracle over one cluster topology.

    Everything beyond ``topology`` is keyword-only.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        cost_config: Optional[CostModelConfig] = None,
        engine: Optional[SimEngine] = None,
        force_ethernet: bool = False,
        metrics_registry: Optional[MetricsRegistry] = None,
        hooks: Optional[object] = None,
    ) -> None:
        """``force_ethernet=True`` reproduces the behaviour of NIC-oblivious
        frameworks in heterogeneous environments (paper §3.2): NCCL cannot
        negotiate RDMA consistently, so *all* inter-node traffic rides TCP
        over the Ethernet NICs.  ``metrics_registry`` (optional) is the
        observability registry every priced communication publishes into.
        ``hooks`` (optional) is a :class:`repro.validate.ValidationHooks`
        sanitizer; when set, every priced duration is audited for sanity at
        the event that consumes it."""
        metrics = metrics_registry
        self.topology = topology
        self.cost_model = CollectiveCostModel(cost_config)
        self.engine = engine
        self.force_ethernet = force_ethernet
        self.health = FabricHealth()
        self.fault_stats = FaultStats()
        self.metrics = metrics
        self.hooks = hooks
        if metrics is not None:
            self._m_bytes = metrics.counter(
                "comm_bytes_total", "bytes priced per transport kind and scope"
            )
            self._m_seconds = metrics.counter(
                "comm_seconds_total", "communication seconds per kind and scope"
            )
            self._m_retry = metrics.counter(
                "comm_retry_seconds_total",
                "expected retransmission seconds on lossy links",
            )
            self._m_rebuilds = metrics.counter(
                "comm_rebuilds_total", "communicator re-initialisations paid"
            )
            self._m_rebuild_s = metrics.counter(
                "comm_rebuild_seconds_total", "communicator rebuild seconds"
            )
            self._m_p2p_hist = metrics.histogram(
                "p2p_occupancy_seconds", "sender NIC occupancy per transfer"
            )
            # Pre-bound children for the hot pricing paths: binding pays the
            # label-key construction once per (kind, scope) instead of once
            # per priced transfer.
            self._bound_comm: Dict[tuple, tuple] = {}
            self._bound_hist: Dict[str, object] = {}
            self._bound_retry = {
                scope: self._m_retry.labels(scope=scope)
                for scope in ("collective", "p2p")
            }
        self._pair_cache: Dict[Tuple[int, int], Tuple[int, Transport]] = {}
        self._group_cache: Dict[Tuple[int, ...], Tuple[int, Transport]] = {}
        #: last transport family observed per pair / group, for rebuild charges
        self._pair_kind: Dict[Tuple[int, int], TransportKind] = {}
        self._group_kind: Dict[Tuple[int, ...], TransportKind] = {}
        self._nic_tx: Dict[Tuple[int, NICType], Resource] = {}
        self._uplinks: Dict[Tuple[int, int], Resource] = {}
        self._edges: Dict[Tuple[int, int], EdgePlan] = {}
        #: ring tuple -> its sorted member key (see :meth:`_group_key`)
        self._group_keys: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: (epoch, node -> NIC health states) for the node classes
        self._node_states: Tuple[int, Dict[int, tuple]] = (-1, {})
        #: step counts published ahead of the clock (see
        #: :meth:`count_steps_at`): [starts, tallies, next] per batch, in
        #: publication order, and the earliest start not yet counted
        self._deferred_counts: List[list] = []
        self._deferred_due = math.inf

    # ------------------------------------------------------------------ #
    # transport resolution
    # ------------------------------------------------------------------ #

    def transport(self, a: int, b: int) -> Transport:
        """Resolved (cached, health-aware) transport between two ranks."""
        key = (a, b) if a < b else (b, a)
        cached = self._pair_cache.get(key)
        if cached is not None and cached[0] == self.health.epoch:
            return cached[1]
        transport = self._resolve_pair(key[0], key[1])
        self._pair_cache[key] = (self.health.epoch, transport)
        return transport

    def _ethernet_fallback(self, a: int, b: int) -> Transport:
        """TCP over both endpoints' Ethernet NICs (slower end governs)."""
        eth_a = self.topology.node_of(a).ethernet_nic
        eth_b = self.topology.node_of(b).ethernet_nic
        return Transport(
            kind=TransportKind.TCP,
            bandwidth=min(eth_a.effective_bandwidth, eth_b.effective_bandwidth),
            latency=max(eth_a.latency, eth_b.latency),
        )

    def _resolve_pair(self, a: int, b: int) -> Transport:
        base = resolve_transport(self.topology, a, b)
        if base.kind.is_intra_node:
            return base
        if self.force_ethernet:
            base = self._ethernet_fallback(a, b)

        node_a = self.topology.device(a).node_global
        node_b = self.topology.device(b).node_global
        family = nic_family_for(base.kind)
        key = (a, b) if a < b else (b, a)

        if base.kind.is_rdma and (
            self.health.get(node_a, family).down
            or self.health.get(node_b, family).down
        ):
            # Graceful degradation: the RDMA path is gone, affected traffic
            # re-routes over TCP/Ethernet (and pays for it).
            base = self._ethernet_fallback(a, b)
            family = NICType.ETHERNET
            self.fault_stats.fallback_pairs.add(key)
        elif base.kind.is_rdma:
            self.fault_stats.fallback_pairs.discard(key)

        health_a = self.health.get(node_a, family)
        health_b = self.health.get(node_b, family)
        if health_a.down or health_b.down:
            # Even the fallback NIC is dead (node crash): transfers burn the
            # full bounded retry budget and are abandoned — finite, no hang.
            return Transport(
                kind=base.kind,
                bandwidth=base.bandwidth,
                latency=base.latency,
                loss_rate=DEAD_LINK_LOSS,
            )
        factor = min(health_a.bandwidth_factor, health_b.bandwidth_factor)
        loss = 1.0 - (1.0 - health_a.loss_rate) * (1.0 - health_b.loss_rate)
        if factor == 1.0 and loss == 0.0:
            return base
        return Transport(
            kind=base.kind,
            bandwidth=base.bandwidth * factor,
            latency=base.latency,
            loss_rate=min(loss, DEAD_LINK_LOSS),
        )

    def p2p_edge(self, src: int, dst: int) -> EdgePlan:
        """The :class:`EdgePlan` of the directed edge ``src -> dst``,
        current for the health epoch (rebuilt after a fault moves it, and
        dropped by :meth:`attach_engine`)."""
        key = (src, dst)
        plan = self._edges.get(key)
        if plan is None or plan.epoch != self.health.epoch:
            plan = self._edges[key] = EdgePlan(self, src, dst)
        return plan

    def _group_key(self, ranks: Sequence[int]) -> Tuple[int, ...]:
        """The sorted member tuple of a group, cached per ring tuple."""
        if type(ranks) is not tuple:
            return tuple(sorted(set(ranks)))
        key = self._group_keys.get(ranks)
        if key is None:
            key = self._group_keys[ranks] = tuple(sorted(set(ranks)))
        return key

    def group_transport(self, ranks: Sequence[int]) -> Transport:
        """The slowest edge a node-contiguous ring over ``ranks`` must cross.

        A ring visiting multiple nodes must include an inter-node edge
        between every "adjacent" pair of node blocks; whatever the ring
        order, if any two nodes in the group can only reach each other over
        a slow transport, at least one ring edge uses it.  We therefore take
        the minimum-bandwidth transport over all node pairs (conservative
        and order-independent; ties go to the higher loss, then to the
        first pair in order).  Single-node groups use the intra-node link.
        """
        key = self._group_key(ranks)
        if len(key) < 2:
            raise CommunicatorError(f"group transport needs >= 2 ranks: {key}")
        cached = self._group_cache.get(key)
        if cached is not None and cached[0] == self.health.epoch:
            return cached[1]
        transport = self._slowest_edge(key)
        self._group_cache[key] = (self.health.epoch, transport)
        return transport

    def _slowest_edge(self, ranks: Tuple[int, ...]) -> Transport:
        """:meth:`group_transport` over one representative per node class.

        Nodes of one class — same cluster, same NICs, same NIC health —
        resolve to one transport against any other node, so the node pairs
        fall into class pairs with one transport each, and the first node
        pair of a class pair (in the order of the nodes' first ranks) is
        its representative.  Scanning the representatives in pair order
        with the all-pairs rule picks the transport an all-pairs scan
        picks, at O(nodes + classes²) instead of O(nodes²).  A group on
        one or two nodes has a single pair to resolve."""
        rank_nodes = self.topology.rank_nodes
        #: node -> its first rank in the group, in rank order
        reps: Dict[int, int] = {}
        for r in ranks:
            reps.setdefault(rank_nodes[r], r)
        if len(reps) == 1:
            return self.transport(ranks[0], ranks[1])
        if len(reps) == 2:
            return self.transport(*reps.values())
        epoch, states = self._node_states
        if epoch != self.health.epoch:
            states = self.health.node_states()
            self._node_states = (self.health.epoch, states)
        hw_class = self.topology.node_classes()
        #: class -> its nodes' representatives, in rank order
        classes: Dict[object, List[int]] = {}
        for node, r in reps.items():
            state = states.get(node)
            cls = hw_class[node] if state is None else (hw_class[node], state)
            classes.setdefault(cls, []).append(r)
        # classes come in order of first rank: each pair (a, b) has a < b
        groups = list(classes.values())
        pairs = sorted(
            [(g[0], g[1], i, i) for i, g in enumerate(groups) if len(g) > 1]
            + [(g[0], h[0], i, j) for i, g in enumerate(groups)
               for j, h in enumerate(groups) if i < j]
        )
        worst: Optional[Transport] = None
        for a, b, _, _ in pairs:
            t = self.transport(a, b)
            if (
                worst is None
                or t.bandwidth < worst.bandwidth
                or (t.bandwidth == worst.bandwidth and t.loss_rate > worst.loss_rate)
            ):
                worst = t
        if self.fault_stats.fallback_pairs:
            self._track_fallback_pairs(groups, pairs)
        assert worst is not None
        return worst

    def _track_fallback_pairs(self, groups: List[List[int]], pairs: list) -> None:
        """Leave the fallback-pair set as an all-pairs scan would: resolving
        a pair adds it while its RDMA path is down and drops it otherwise,
        and every node pair of a class pair shares its representative's
        state."""
        fallback = self.fault_stats.fallback_pairs
        fell = {(i, j) for a, b, i, j in pairs if (a, b) in fallback}
        for i, j in fell:
            fallback.update(
                (a, b) if a < b else (b, a)
                for a in groups[i] for b in groups[j] if a != b
            )
        index = {r: i for i, group in enumerate(groups) for r in group}
        for a, b in list(fallback):
            i, j = index.get(a), index.get(b)
            if i is not None and j is not None and (min(i, j), max(i, j)) not in fell:
                fallback.discard((a, b))

    # ------------------------------------------------------------------ #
    # communicator rebuild charges
    # ------------------------------------------------------------------ #

    def _rebuild_charge(
        self,
        kinds: Dict[Tuple[int, ...], TransportKind],
        key: Tuple[int, ...],
        kind: TransportKind,
    ) -> float:
        """Seconds of communicator re-init owed because the transport family
        of ``key`` changed since it last communicated (0.0 otherwise)."""
        prev = kinds.get(key)
        kinds[key] = kind
        if prev is None or prev == kind:
            return 0.0
        charge = self.cost_model.config.comm_rebuild_time
        self.fault_stats.rebuild_count += 1
        self.fault_stats.rebuild_time += charge
        if self.metrics is not None:
            self._m_rebuilds.inc(kind=str(kind))
            self._m_rebuild_s.inc(charge, kind=str(kind))
        return charge

    def pair_rebuild_time(self, src: int, dst: int) -> float:
        """Rebuild charge owed by the (src, dst) channel right now."""
        key = (src, dst) if src < dst else (dst, src)
        return self._rebuild_charge(
            self._pair_kind, key, self.p2p_edge(src, dst).transport.kind
        )

    def pair_rebuild_owed(self, src: int, dst: int) -> bool:
        """Whether the (src, dst) channel's next transfer pays a rebuild
        (its transport family changed since it last communicated).  Unlike
        :meth:`pair_rebuild_time` this charges and records nothing."""
        key = (src, dst) if src < dst else (dst, src)
        prev = self._pair_kind.get(key)
        return prev is not None and prev != self.transport(src, dst).kind

    def establish(self, groups: Sequence[Sequence[int]]) -> None:
        """Model startup communicator creation: resolve the transport of
        every group (and every pair inside it) against the *current* fabric
        state and remember the families.  A fault that later changes a
        family is then recognised as a transition — charged a rebuild and
        tracked as a fallback — even if the group had not yet communicated
        when the fault hit."""
        for group in groups:
            members = tuple(sorted(set(group)))
            if len(members) < 2:
                continue
            self._group_kind[members] = self.group_transport(members).kind
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    self._pair_kind[(a, b)] = self.transport(a, b).kind

    # ------------------------------------------------------------------ #
    # analytic timing
    # ------------------------------------------------------------------ #

    def _comm_counters(self, kind: str, scope: str) -> tuple:
        """(bytes, seconds) bound counters for one (kind, scope) label set."""
        key = (kind, scope)
        pair = self._bound_comm.get(key)
        if pair is None:
            pair = (
                self._m_bytes.labels(kind=kind, scope=scope),
                self._m_seconds.labels(kind=kind, scope=scope),
            )
            self._bound_comm[key] = pair
        return pair

    def _occupancy_hist(self, kind: str):
        hist = self._bound_hist.get(kind)
        if hist is None:
            hist = self._m_p2p_hist.labels(kind=kind)
            self._bound_hist[kind] = hist
        return hist

    def _audit(self, seconds: float, what: str, **context: object) -> float:
        """Pass a priced duration through the sanitizer (identity when no
        hooks are attached)."""
        if self.hooks is not None:
            return self.hooks.check_duration(seconds, what, **context)
        return seconds

    def collective_time(
        self, op: str, ranks: Sequence[int], nbytes: int, concurrent: int = 1
    ) -> float:
        """Duration of one collective over ``ranks`` moving ``nbytes``,
        including retransmission cost on lossy edges and a communicator
        rebuild when the group's transport family changed since its last
        collective."""
        ranks = list(ranks)
        if len(ranks) <= 1 or nbytes == 0:
            return 0.0
        key = self._group_key(ranks)
        edge = self.group_transport(key)
        prev_kind = self._group_kind.get(key)
        rebuild = self._rebuild_charge(self._group_kind, key, edge.kind)
        if prev_kind is not None and prev_kind != edge.kind:
            if prev_kind.is_rdma and not edge.kind.is_rdma:
                self.fault_stats.fallback_groups.add(key)
            elif edge.kind.is_rdma:
                self.fault_stats.fallback_groups.discard(key)
        span = group_node_span(self.topology, ranks)
        duration = self._audit(
            self.cost_model.collective(
                op, nbytes, len(ranks), edge, concurrent=concurrent, node_span=span
            ),
            "collective",
            op=op,
            nbytes=nbytes,
            ranks=len(ranks),
        )
        if edge.loss_rate > 0.0:
            clean = self.cost_model.collective(
                op,
                nbytes,
                len(ranks),
                Transport(edge.kind, edge.bandwidth, edge.latency),
                concurrent=concurrent,
                node_span=span,
            )
            self.fault_stats.retry_time += duration - clean
            if self.metrics is not None:
                self._m_retry.inc(duration - clean, scope="collective")
        if self.metrics is not None:
            kind = str(edge.kind)
            self._m_bytes.inc(nbytes, kind=kind, scope="collective", op=op)
            self._m_seconds.inc(duration, kind=kind, scope="collective", op=op)
        return duration + rebuild

    def p2p_time(self, src: int, dst: int, nbytes: int, concurrent: int = 1) -> float:
        """End-to-end duration of one point-to-point transfer."""
        plan = self.p2p_edge(src, dst)
        duration = self._audit(
            self.cost_model.p2p(
                nbytes, plan.transport, concurrent,
                cross_cluster=not plan.same_cluster,
            ),
            "p2p",
            src=src,
            dst=dst,
            nbytes=nbytes,
        )
        if self.metrics is not None:
            m_bytes, m_seconds = self._p2p_counters(plan)
            m_bytes.inc(nbytes)
            m_seconds.inc(duration)
        return duration

    def _p2p_counters(self, plan: EdgePlan) -> tuple:
        counters = plan.counters
        if counters is None:
            counters = plan.counters = self._comm_counters(
                _KIND_STR[plan.transport.kind], "p2p"
            )
        return counters

    def p2p_occupancy(self, src: int, dst: int, nbytes: int) -> float:
        """Sender NIC busy time for one transfer (DES serialization),
        including the expected retransmissions on a lossy link."""
        plan = self.p2p_edge(src, dst)
        priced = plan.occupancy.get(nbytes)
        if priced is None:
            edge = plan.transport
            cross = not plan.same_cluster
            occupancy = self.cost_model.p2p_nic_occupancy(
                nbytes, edge, cross_cluster=cross
            )
            clean = None
            if edge.loss_rate > 0.0:
                clean = self.cost_model.p2p_nic_occupancy(
                    nbytes,
                    Transport(edge.kind, edge.bandwidth, edge.latency),
                    cross_cluster=cross,
                )
            priced = plan.occupancy[nbytes] = (occupancy, clean)
        occupancy, clean = priced
        if self.hooks is not None:
            occupancy = self._audit(
                occupancy, "p2p_occupancy", src=src, dst=dst, nbytes=nbytes
            )
        if clean is not None:
            self.fault_stats.retry_time += occupancy - clean
            if self.metrics is not None:
                self._bound_retry["p2p"].inc(occupancy - clean)
        if self.metrics is not None:
            m_bytes, m_seconds = self._p2p_counters(plan)
            m_bytes.inc(nbytes)
            m_seconds.inc(occupancy)
            hist = plan.hist
            if hist is None:
                hist = plan.hist = self._occupancy_hist(
                    _KIND_STR[plan.transport.kind]
                )
            hist.observe(occupancy)
        return occupancy

    def collective_step_occupancy(
        self, src: int, dst: int, nbytes: float, messages: int = 1
    ) -> float:
        """Sender NIC busy time for one executed collective step from
        ``src`` to ``dst`` (health-aware edge resolution, expected
        retransmissions included — mirrors :meth:`p2p_occupancy`)."""
        edge = self.transport(src, dst)
        occupancy = self._audit(
            self.cost_model.collective_step_occupancy(nbytes, edge, messages),
            "collective_step_occupancy",
            src=src,
            dst=dst,
            nbytes=nbytes,
        )
        if edge.loss_rate > 0.0:
            clean = self.cost_model.collective_step_occupancy(
                nbytes, Transport(edge.kind, edge.bandwidth, edge.latency), messages
            )
            self.fault_stats.retry_time += occupancy - clean
            if self.metrics is not None:
                self._bound_retry["collective"].inc(occupancy - clean)
        if self.metrics is not None:
            if self._deferred_counts:
                self.flush_step_counts(self.engine.now)
            m_bytes, m_seconds = self._comm_counters(
                _KIND_STR[edge.kind], "collective"
            )
            m_bytes.inc(nbytes)
            m_seconds.inc(occupancy)
        return occupancy

    def collective_step_time(
        self, src: int, dst: int, nbytes: float, messages: int = 1
    ) -> float:
        """End-to-end duration of one executed collective step (used on
        intra-node edges, which bypass the NIC resource)."""
        edge = self.transport(src, dst)
        duration = self._audit(
            self.cost_model.collective_step_time(nbytes, edge, messages),
            "collective_step_time",
            src=src,
            dst=dst,
            nbytes=nbytes,
        )
        if edge.loss_rate > 0.0:
            clean = self.cost_model.collective_step_time(
                nbytes, Transport(edge.kind, edge.bandwidth, edge.latency), messages
            )
            self.fault_stats.retry_time += duration - clean
            if self.metrics is not None:
                self._bound_retry["collective"].inc(duration - clean)
        if self.metrics is not None:
            if self._deferred_counts:
                self.flush_step_counts(self.engine.now)
            m_bytes, m_seconds = self._comm_counters(
                _KIND_STR[edge.kind], "collective"
            )
            m_bytes.inc(nbytes)
            m_seconds.inc(duration)
        return duration

    def collective_step_counters(self, src: int, dst: int) -> Optional[tuple]:
        """The (bytes, seconds) counters one executed collective step from
        ``src`` to ``dst`` publishes into, or ``None`` without a registry.
        Lets a caller that priced an edge once with
        :meth:`collective_step_time` still count every further step."""
        if self.metrics is None:
            return None
        return self._comm_counters(
            _KIND_STR[self.transport(src, dst).kind], "collective"
        )

    def count_steps_at(self, times: Sequence[float], tallies: List[tuple]) -> None:
        """Publish executed collective steps a fused ring pass computed,
        possibly ahead of the clock: step ``k`` starts at ``times[k]``
        (non-decreasing) and adds ``tallies[k]`` — ``(counters, bytes,
        seconds)``, ``counters`` being the pair
        :meth:`collective_step_counters` returned.  Steps are counted in
        start order (ties in publication order) among themselves and with
        the steps priced as they happen, so the float totals add up as a
        step-by-step run adds them; :meth:`flush_step_counts` counts what
        is left when the run stops."""
        self._deferred_counts.append([times, tallies, 0])
        if times[0] < self._deferred_due:
            self._deferred_due = times[0]

    def flush_step_counts(self, upto: float = math.inf) -> None:
        """Count the deferred steps that start by ``upto``."""
        if self._deferred_due > upto:
            return
        starts: List[float] = []
        tallies: List[tuple] = []
        pending = []
        due = math.inf
        for batch in self._deferred_counts:
            times, counts, pos = batch
            stop = bisect.bisect_right(times, upto, pos)
            starts += times[pos:stop]
            tallies += counts[pos:stop]
            if stop < len(times):
                batch[2] = stop
                pending.append(batch)
                due = min(due, times[stop])
        self._deferred_counts = pending
        self._deferred_due = due
        # a stable sort by start keeps ties in publication order; each
        # series is summed onto its total one step at a time
        sums: Dict[tuple, list] = {}
        for k in sorted(range(len(starts)), key=starts.__getitem__):
            counters, nbytes, seconds = tallies[k]
            acc = sums.get(counters)
            if acc is None:
                acc = sums[counters] = [counters[0].total, counters[1].total]
            acc[0] += nbytes
            acc[1] += seconds
        for (m_bytes, m_seconds), (total_bytes, total_seconds) in sums.items():
            m_bytes.advance_to(total_bytes)
            m_seconds.advance_to(total_seconds)

    def group_rebuild_time(self, ranks: Sequence[int]) -> float:
        """Communicator rebuild charge for a group whose transport family
        changed since its last sync (executed-collective counterpart of the
        bookkeeping :meth:`collective_time` performs inline).  Also tracks
        the RDMA -> TCP fallback set for fault reports."""
        key = self._group_key(ranks)
        if len(key) < 2:
            return 0.0
        edge = self.group_transport(key)
        prev_kind = self._group_kind.get(key)
        rebuild = self._rebuild_charge(self._group_kind, key, edge.kind)
        if prev_kind is not None and prev_kind != edge.kind:
            if prev_kind.is_rdma and not edge.kind.is_rdma:
                self.fault_stats.fallback_groups.add(key)
            elif edge.kind.is_rdma:
                self.fault_stats.fallback_groups.discard(key)
        return self._audit(rebuild, "group_rebuild", ranks=len(key))

    # ------------------------------------------------------------------ #
    # DES resources
    # ------------------------------------------------------------------ #

    def attach_engine(self, engine: SimEngine) -> None:
        """Bind a fresh simulation engine (drops previous NIC resources)."""
        self.engine = engine
        self._nic_tx.clear()
        self._uplinks.clear()
        self._edges.clear()

    def nic_tx_resource(self, rank: int, family: NICType) -> Resource:
        """The transmit-side resource of the NIC ``rank``'s node uses for
        ``family`` traffic.  All ranks of a node share it."""
        if self.engine is None:
            raise TransportError("fabric has no simulation engine attached")
        node = self.topology.device(rank).node_global
        key = (node, family)
        res = self._nic_tx.get(key)
        if res is None:
            res = Resource(self.engine, capacity=1, name=f"nic-tx[n{node},{family.value}]")
            self._nic_tx[key] = res
        return res

    def uplink_resource(self, src: int, dst: int) -> Optional[Resource]:
        """The shared inter-cluster uplink resource between the clusters of
        two ranks, or ``None`` when they share a cluster."""
        if self.engine is None:
            raise TransportError("fabric has no simulation engine attached")
        ca = self.topology.device(src).cluster_id
        cb = self.topology.device(dst).cluster_id
        if ca == cb:
            return None
        key = (min(ca, cb), max(ca, cb))
        res = self._uplinks.get(key)
        if res is None:
            res = Resource(
                self.engine, capacity=1, name=f"uplink[c{key[0]}<->c{key[1]}]"
            )
            self._uplinks[key] = res
        return res

    def uplink_occupancy(self, nbytes: int) -> float:
        """Time one transfer holds the inter-cluster uplink."""
        return self._audit(
            nbytes / self.cost_model.config.inter_cluster_uplink,
            "uplink_occupancy",
            nbytes=nbytes,
        )
