"""Alpha-beta communication cost models for collectives and point-to-point.

All collective costs follow the classic alpha-beta formulation over the
*slowest edge* of the (node-contiguous) ring NCCL would build:

- ring all-reduce of ``S`` bytes over ``d`` ranks moves ``2*S*(d-1)/d``
  bytes across every ring edge and takes ``2*(d-1)`` latency steps per
  serialized bucket;
- ring reduce-scatter and all-gather each move ``S*(d-1)/d`` bytes in
  ``d-1`` steps.

Contention enters as a fair-share divisor on the edge bandwidth
(``concurrent`` rings through one NIC) and an optional congestion factor
that grows with the number of nodes a ring spans — modelling switch-level
incast degradation that RDMA fabrics (especially RoCE) exhibit at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import ConfigurationError
from repro.network.reliability import (
    RetryPolicy,
    expected_attempts,
    expected_retry_overhead,
)
from repro.network.transport import Transport, TransportKind
from repro.units import MB


@dataclass(frozen=True)
class CostModelConfig:
    """Tunable constants of the communication cost model.

    The defaults are the calibration output against the paper's Table 1
    anchors; see :mod:`repro.bench.calibration`.
    """

    #: Gradient bucket size for chunked collectives (Megatron-style fusion).
    bucket_bytes: int = 128 * MB
    #: Software overhead added to the wire latency per ring step, by kind.
    step_overhead: Dict[TransportKind, float] = field(
        default_factory=lambda: {
            TransportKind.NVLINK: 3e-6,
            TransportKind.PCIE: 5e-6,
            TransportKind.RDMA_IB: 8e-6,
            TransportKind.RDMA_ROCE: 12e-6,
            TransportKind.TCP: 40e-6,
        }
    )
    #: Per-message software overhead for point-to-point sends, by kind
    #: (TCP pays kernel/copy costs that RDMA avoids).
    p2p_overhead: Dict[TransportKind, float] = field(
        default_factory=lambda: {
            TransportKind.NVLINK: 4e-6,
            TransportKind.PCIE: 6e-6,
            TransportKind.RDMA_IB: 10e-6,
            TransportKind.RDMA_ROCE: 15e-6,
            TransportKind.TCP: 60e-6,
        }
    )
    #: Bandwidth degradation per extra node spanned by one ring
    #: (effective_bw /= 1 + beta * (node_span - 1)); models switch incast.
    congestion_beta: float = 0.0
    #: Bandwidth factor applied to point-to-point transfers that cross
    #: cluster boundaries (per-flow goodput loss through aggregation
    #: switches, before uplink sharing).
    inter_cluster_p2p_factor: float = 1.0
    #: Aggregate bandwidth (bytes/s) of the Ethernet uplink joining two
    #: clusters.  All cross-cluster flows share this pipe; in the DES they
    #: serialize through one resource per cluster pair.  Modelling this is
    #: what makes the Hybrid environment trail the pure-RoCE environment by
    #: a growing margin as compute shrinks (paper Table 3).
    inter_cluster_uplink: float = 4.5e9
    #: Bounded-retry reliability parameters for lossy links; see
    #: :mod:`repro.network.reliability`.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seconds to tear down and rebuild a communicator when a rank pair or
    #: group re-resolves to a different transport family mid-run (NCCL
    #: re-init after a NIC fault forces the RDMA -> TCP fallback).
    comm_rebuild_time: float = 0.25

    def __post_init__(self) -> None:
        if self.bucket_bytes <= 0:
            raise ConfigurationError(f"bucket_bytes must be positive: {self.bucket_bytes}")
        if self.congestion_beta < 0:
            raise ConfigurationError(
                f"congestion_beta must be >= 0: {self.congestion_beta}"
            )
        if not 0.0 < self.inter_cluster_p2p_factor <= 1.0:
            raise ConfigurationError(
                f"inter_cluster_p2p_factor must be in (0, 1]: "
                f"{self.inter_cluster_p2p_factor}"
            )
        if self.inter_cluster_uplink <= 0:
            raise ConfigurationError(
                f"inter_cluster_uplink must be positive: {self.inter_cluster_uplink}"
            )
        if self.comm_rebuild_time < 0:
            raise ConfigurationError(
                f"comm_rebuild_time must be >= 0: {self.comm_rebuild_time}"
            )

    def with_congestion(self, beta: float) -> "CostModelConfig":
        return replace(self, congestion_beta=beta)


class CollectiveCostModel:
    """Prices collectives and p2p transfers over a resolved edge transport."""

    def __init__(self, config: CostModelConfig | None = None) -> None:
        self.config = config or CostModelConfig()
        # Price memoization.  All pricing functions are pure in (transport,
        # size, step shape) given a fixed config, and the DES re-prices the
        # same (channel, chunk size, messages) key tens of thousands of
        # times per iteration; Transport is a frozen dataclass, so the keys
        # hash on exact field values and a health change (new bandwidth /
        # loss rate) naturally misses.  Values are the exact floats the
        # uncached computation returns — replay digests are unaffected.
        self._step_occupancy_cache: Dict[tuple, float] = {}
        self._step_time_cache: Dict[tuple, float] = {}
        self._p2p_cache: Dict[tuple, float] = {}

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _edge_bandwidth(
        self, edge: Transport, concurrent: int, node_span: int
    ) -> float:
        """Fair-shared, congestion-degraded bandwidth of the slowest edge."""
        if concurrent < 1:
            raise ConfigurationError(f"concurrent must be >= 1: {concurrent}")
        if node_span < 1:
            raise ConfigurationError(f"node_span must be >= 1: {node_span}")
        congestion = 1.0 + self.config.congestion_beta * max(0, node_span - 1)
        # Intra-node links do not suffer switch congestion.
        if edge.kind.is_intra_node:
            congestion = 1.0
        return edge.bandwidth / (concurrent * congestion)

    def _step_latency(self, edge: Transport) -> float:
        return edge.latency + self.config.step_overhead[edge.kind]

    def _num_buckets(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.config.bucket_bytes))

    def num_buckets(self, nbytes: float) -> int:
        """Number of fused gradient buckets a payload is split into."""
        return max(1, math.ceil(nbytes / self.config.bucket_bytes))

    def _reliability_overhead(
        self, edge: Transport, msg_time: float, num_messages: float
    ) -> float:
        """Expected retransmission cost of ``num_messages`` wire messages of
        ``msg_time`` each over a lossy edge (0.0 on healthy links)."""
        if edge.loss_rate == 0.0:
            return 0.0
        return num_messages * expected_retry_overhead(
            msg_time, edge.loss_rate, self.config.retry_policy
        )

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #

    def ring_allreduce(
        self, nbytes: int, group_size: int, edge: Transport,
        concurrent: int = 1, node_span: int = 1,
    ) -> float:
        """Ring all-reduce (reduce-scatter + all-gather phases fused)."""
        if group_size < 1 or nbytes < 0:
            raise ConfigurationError(
                f"bad allreduce args: size={group_size} bytes={nbytes}"
            )
        if group_size == 1 or nbytes == 0:
            return 0.0
        d = group_size
        bw = self._edge_bandwidth(edge, concurrent, node_span)
        bandwidth_term = 2.0 * nbytes * (d - 1) / d / bw
        num_messages = 2.0 * (d - 1) * self._num_buckets(nbytes)
        latency_term = num_messages * self._step_latency(edge)
        retry_term = self._reliability_overhead(
            edge, bandwidth_term / num_messages, num_messages
        )
        return bandwidth_term + latency_term + retry_term

    def ring_reduce_scatter(
        self, nbytes: int, group_size: int, edge: Transport,
        concurrent: int = 1, node_span: int = 1,
    ) -> float:
        """Ring reduce-scatter: each rank ends with a 1/d reduced shard."""
        if group_size < 1 or nbytes < 0:
            raise ConfigurationError(
                f"bad reduce-scatter args: size={group_size} bytes={nbytes}"
            )
        if group_size == 1 or nbytes == 0:
            return 0.0
        d = group_size
        bw = self._edge_bandwidth(edge, concurrent, node_span)
        bandwidth_term = nbytes * (d - 1) / d / bw
        num_messages = (d - 1) * self._num_buckets(nbytes)
        latency_term = num_messages * self._step_latency(edge)
        retry_term = self._reliability_overhead(
            edge, bandwidth_term / num_messages, num_messages
        )
        return bandwidth_term + latency_term + retry_term

    def ring_allgather(
        self, nbytes: int, group_size: int, edge: Transport,
        concurrent: int = 1, node_span: int = 1,
    ) -> float:
        """Ring all-gather of a full ``nbytes`` result from 1/d shards."""
        # Symmetric to reduce-scatter: same volume, same steps.
        return self.ring_reduce_scatter(nbytes, group_size, edge, concurrent, node_span)

    def tree_broadcast(
        self, nbytes: int, group_size: int, edge: Transport,
        concurrent: int = 1, node_span: int = 1,
    ) -> float:
        """Binary-tree broadcast (used for initial weight sync)."""
        if group_size < 1 or nbytes < 0:
            raise ConfigurationError(
                f"bad broadcast args: size={group_size} bytes={nbytes}"
            )
        if group_size == 1 or nbytes == 0:
            return 0.0
        bw = self._edge_bandwidth(edge, concurrent, node_span)
        depth = math.ceil(math.log2(group_size))
        retry_term = self._reliability_overhead(edge, nbytes / bw, depth)
        return depth * (self._step_latency(edge) + nbytes / bw) + retry_term

    def collective(
        self, op: str, nbytes: int, group_size: int, edge: Transport,
        concurrent: int = 1, node_span: int = 1,
    ) -> float:
        """Dispatch by operation name (``allreduce`` | ``reduce_scatter`` |
        ``allgather`` | ``broadcast``)."""
        table = {
            "allreduce": self.ring_allreduce,
            "reduce_scatter": self.ring_reduce_scatter,
            "allgather": self.ring_allgather,
            "broadcast": self.tree_broadcast,
        }
        if op not in table:
            raise ConfigurationError(f"unknown collective op: {op!r}")
        return table[op](nbytes, group_size, edge, concurrent, node_span)

    # ------------------------------------------------------------------ #
    # executed collective steps (DES primitives)
    # ------------------------------------------------------------------ #
    #
    # The executed collectives in :mod:`repro.collectives.executor` price
    # one ring/tree step at a time instead of a whole lump-sum op.  The
    # decomposition is exact: a chunk of ``chunk_bytes`` split into
    # ``messages`` fused buckets costs
    #
    #     occupancy = messages * step_overhead
    #               + (messages - 1) * latency
    #               + chunk_bytes / bandwidth  (+ retries)
    #
    # on the sender's NIC, and delivery pays one more ``edge.latency`` in
    # flight — so occupancy + delivery = messages * (latency + overhead)
    # + wire + retries, and ``steps`` such steps reproduce the closed-form
    # ring formulas above exactly on an uncontended edge.  Contention and
    # fair sharing are NOT priced here: they emerge from the DES resources
    # (per-node NIC FIFO, cluster uplinks) the steps flow through.

    def collective_step_occupancy(
        self, chunk_bytes: float, edge: Transport, messages: int = 1
    ) -> float:
        """Sender-side NIC busy time for one executed collective step."""
        key = (edge, chunk_bytes, messages)
        cached = self._step_occupancy_cache.get(key)
        if cached is not None:
            return cached
        if chunk_bytes < 0:
            raise ConfigurationError(f"negative chunk size: {chunk_bytes}")
        if messages < 1:
            raise ConfigurationError(f"messages must be >= 1: {messages}")
        wire = chunk_bytes / edge.bandwidth
        busy = (
            messages * self.config.step_overhead[edge.kind]
            + (messages - 1) * edge.latency
            + wire
        )
        result = busy + self._reliability_overhead(edge, wire / messages, messages)
        self._step_occupancy_cache[key] = result
        return result

    def collective_step_time(
        self, chunk_bytes: float, edge: Transport, messages: int = 1
    ) -> float:
        """Full duration of one executed collective step (occupancy plus
        the single in-flight propagation latency the receiver observes)."""
        key = (edge, chunk_bytes, messages)
        cached = self._step_time_cache.get(key)
        if cached is not None:
            return cached
        result = (
            self.collective_step_occupancy(chunk_bytes, edge, messages)
            + edge.latency
        )
        self._step_time_cache[key] = result
        return result

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def p2p(
        self, nbytes: int, edge: Transport, concurrent: int = 1,
        cross_cluster: bool = False,
    ) -> float:
        """One point-to-point transfer (pipeline activation / gradient)."""
        key = (edge, nbytes, concurrent, cross_cluster)
        cached = self._p2p_cache.get(key)
        if cached is not None:
            return cached
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size: {nbytes}")
        overhead = self.config.p2p_overhead[edge.kind]
        bw = self._edge_bandwidth(edge, concurrent, node_span=1)
        if cross_cluster:
            bw *= self.config.inter_cluster_p2p_factor
        attempt = edge.latency + overhead + nbytes / bw
        result = attempt + self._reliability_overhead(edge, attempt, 1)
        self._p2p_cache[key] = result
        return result

    def p2p_nic_occupancy(
        self, nbytes: int, edge: Transport, cross_cluster: bool = False
    ) -> float:
        """Sender-side NIC busy time for one p2p transfer (no propagation
        latency; used for FIFO NIC serialization in the DES)."""
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size: {nbytes}")
        bw = edge.bandwidth
        if cross_cluster:
            bw *= self.config.inter_cluster_p2p_factor
        attempt = self.config.p2p_overhead[edge.kind] + nbytes / bw
        # Retransmissions re-occupy the sender's NIC for a full attempt.
        return attempt * expected_attempts(
            edge.loss_rate, self.config.retry_policy.max_retries
        )
