"""Fault handling — the paper's second stated future-work item
("figure out how to handle faults", §1).

The paper assumes all devices stay online.  This module models what happens
when they do not:

- :func:`surviving_topology` removes failed nodes and rebuilds the machine
  (whole-node failures — the common blast radius when a NIC or PSU dies).
- :func:`replan_after_failure` runs the auto-planner (:mod:`repro.plan`)
  on the surviving machine to find the best degraded configuration.
- :class:`CheckpointPolicy` prices periodic checkpointing: given a mean
  time between failures and per-checkpoint cost, the classic Young/Daly
  interval and the resulting goodput fraction, so the simulated TFLOPS can
  be converted into *effective* TFLOPS under churn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigurationError, TopologyError
from repro.hardware.cluster import Cluster
from repro.hardware.topology import ClusterTopology
from repro.model.config import GPTConfig

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.plan import PlanResult


def surviving_topology(
    topology: ClusterTopology, failed_nodes: Sequence[int]
) -> ClusterTopology:
    """The machine after removing the given global node indices.

    Clusters that lose all nodes disappear; at least one node must survive.
    """
    failed = set(failed_nodes)
    for node in failed:
        if not 0 <= node < topology.num_nodes:
            raise TopologyError(f"failed node {node} out of range")
    clusters: List[Cluster] = []
    node_global = 0
    for cluster in topology.clusters:
        survivors = []
        for node in cluster.nodes:
            if node_global not in failed:
                survivors.append(node)
            node_global += 1
        if survivors:
            clusters.append(
                Cluster(cluster_id=cluster.cluster_id, nodes=tuple(survivors))
            )
    if not clusters:
        raise TopologyError("no nodes survive the failure set")
    return ClusterTopology(
        clusters, inter_cluster_rdma=topology.inter_cluster_rdma
    )


def replan_after_failure(
    topology: ClusterTopology,
    failed_nodes: Sequence[int],
    model: GPTConfig,
    global_batch_size: int,
    micro_batch_size: int = 4,
    **kwargs: object,
) -> "PlanResult":
    """Plan Holmes (``holmes-full``, 1F1B) on the surviving machine:
    :func:`repro.api.plan` over the survivors as an inline machine.
    Remaining keyword arguments pass through to it (``budget``,
    ``top_k``, ``jobs``, ``cache``, ...).

    The best Holmes layout is ``.discovered[0]``.  ``.best`` may instead
    be one of the framework presets that the planner confirms as
    baselines at the base layout."""
    from repro import api
    from repro.hardware.config_io import topology_to_dict
    from repro.plan import planning_base

    survivors = surviving_topology(topology, failed_nodes)
    base = planning_base(
        global_batch_size,
        env="custom",
        machine=topology_to_dict(survivors),
        nodes=survivors.num_nodes,
        gpus_per_node=survivors.gpus_per_node,
        num_layers=model.num_layers,
        hidden_size=model.hidden_size,
        num_attention_heads=model.num_attention_heads,
        seq_length=model.seq_length,
        vocab_size=model.vocab_size,
        micro_batch_size=micro_batch_size,
        framework="holmes-full",
        trace_enabled=False,
        label=f"replan:{survivors.num_nodes}x{survivors.gpus_per_node}",
    )
    return api.plan(
        base, frameworks=("holmes-full",), schedules=("1f1b",), **kwargs
    )


@dataclass(frozen=True)
class CheckpointPolicy:
    """Periodic checkpointing against node churn.

    ``checkpoint_time``: seconds to write one checkpoint (blocking).
    ``restart_time``: seconds to detect a failure, reschedule, and reload.
    ``mtbf``: mean time between failures of the whole job, seconds.
    """

    checkpoint_time: float
    restart_time: float
    mtbf: float

    def __post_init__(self) -> None:
        if min(self.checkpoint_time, self.restart_time, self.mtbf) <= 0:
            raise ConfigurationError(
                "checkpoint_time, restart_time, and mtbf must be positive"
            )
        if self.checkpoint_time >= self.mtbf:
            raise ConfigurationError(
                "checkpointing as slow as the failure rate cannot make progress"
            )

    @property
    def optimal_interval(self) -> float:
        """Young/Daly first-order optimum: sqrt(2 * C * MTBF)."""
        return math.sqrt(2.0 * self.checkpoint_time * self.mtbf)

    def goodput_fraction(self, interval: Optional[float] = None) -> float:
        """Fraction of wall time spent on useful training.

        Losses: writing checkpoints (C / T), redoing work lost since the
        last checkpoint (T / 2 per failure), and restarting (R per failure).
        """
        T = interval if interval is not None else self.optimal_interval
        if T <= 0:
            raise ConfigurationError(f"interval must be positive: {T}")
        checkpoint_overhead = self.checkpoint_time / T
        failure_overhead = (T / 2.0 + self.restart_time) / self.mtbf
        fraction = 1.0 - checkpoint_overhead - failure_overhead
        if fraction <= 0.0:
            warnings.warn(
                f"checkpoint interval {T:.1f}s yields goodput "
                f"{fraction:.3f} <= 0: the job cannot make forward progress "
                f"(checkpoint overhead {checkpoint_overhead:.3f}, failure "
                f"overhead {failure_overhead:.3f})",
                RuntimeWarning,
                stacklevel=2,
            )
        return max(0.0, fraction)

    def effective_tflops(
        self, tflops: float, interval: Optional[float] = None
    ) -> float:
        """Sustained TFLOPS after checkpoint/restart losses."""
        if tflops < 0:
            raise ConfigurationError(f"negative tflops: {tflops}")
        return tflops * self.goodput_fraction(interval)
