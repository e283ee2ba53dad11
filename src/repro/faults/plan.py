"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a validated, time-ordered script of
:class:`FaultEvent` instances.  Plans are *data*, not behaviour: the same
plan applied to the same simulation produces byte-identical results, which
is what makes degraded runs debuggable and regression-testable.

Plans come from three places: hand-written event lists (tests, targeted
what-if studies), :meth:`FaultPlan.random` (seeded stochastic churn for
campaign studies), and the ``repro faults`` CLI.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hardware.topology import ClusterTopology


class FaultKind(enum.Enum):
    """The fault classes the injector knows how to apply."""

    #: A node's RDMA NIC goes down for ``duration``; affected pairs fall
    #: back to TCP/Ethernet (and return to RDMA when the flap ends).
    NIC_FLAP = "nic-flap"
    #: A node's NIC delivers only ``factor`` of its healthy bandwidth.
    LINK_DEGRADE = "link-degrade"
    #: A node's NIC develops per-transfer ``loss_rate``; transfers pay
    #: bounded retries with exponential backoff.
    PACKET_LOSS = "packet-loss"
    #: The whole node dies; the iteration aborts after crash detection.
    NODE_CRASH = "node-crash"
    #: One rank's compute slows by ``factor`` from ``time`` on.
    STRAGGLER = "straggler"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.

    ``node`` is a global node index (NIC/link/crash faults); ``rank`` a
    global GPU rank (stragglers).  ``duration`` bounds transient faults —
    ``math.inf`` means the condition persists to the end of the run.
    """

    time: float
    kind: FaultKind
    node: Optional[int] = None
    rank: Optional[int] = None
    duration: float = math.inf
    factor: float = 1.0  # LINK_DEGRADE bandwidth fraction / STRAGGLER slowdown
    loss_rate: float = 0.0  # PACKET_LOSS probability

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"fault time must be >= 0: {self.time}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"fault duration must be positive: {self.duration}"
            )
        node_faults = (
            FaultKind.NIC_FLAP,
            FaultKind.LINK_DEGRADE,
            FaultKind.PACKET_LOSS,
            FaultKind.NODE_CRASH,
        )
        if self.kind in node_faults and self.node is None:
            raise ConfigurationError(f"{self.kind} requires a target node")
        if self.kind == FaultKind.STRAGGLER and self.rank is None:
            raise ConfigurationError("straggler fault requires a target rank")
        if self.kind == FaultKind.LINK_DEGRADE and not 0.0 < self.factor < 1.0:
            raise ConfigurationError(
                f"link-degrade factor must be in (0, 1): {self.factor}"
            )
        if self.kind == FaultKind.STRAGGLER and self.factor <= 1.0:
            raise ConfigurationError(
                f"straggler factor must be > 1: {self.factor}"
            )
        if self.kind == FaultKind.PACKET_LOSS and not 0.0 < self.loss_rate < 1.0:
            raise ConfigurationError(
                f"packet-loss rate must be in (0, 1): {self.loss_rate}"
            )

    @property
    def end_time(self) -> float:
        return self.time + self.duration

    def describe(self) -> str:
        target = f"node {self.node}" if self.node is not None else f"rank {self.rank}"
        extra = ""
        if self.kind == FaultKind.LINK_DEGRADE:
            extra = f" to {self.factor:.0%} bandwidth"
        elif self.kind == FaultKind.PACKET_LOSS:
            extra = f" at loss {self.loss_rate:.1%}"
        elif self.kind == FaultKind.STRAGGLER:
            extra = f" slowed {self.factor:.1f}x"
        until = "" if math.isinf(self.duration) else f" for {self.duration:.2f}s"
        return f"t={self.time:.2f}s {self.kind} on {target}{extra}{until}"


@dataclass(frozen=True)
class FaultPlan:
    """A time-ordered, validated script of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None  # provenance of randomly generated plans

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.time))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate_against(self, topology: ClusterTopology) -> None:
        """Check every target exists in the machine and NIC faults hit nodes
        that actually have an RDMA NIC (Ethernet-only nodes can only crash,
        degrade, or drop packets)."""
        for event in self.events:
            if event.node is not None and not (
                0 <= event.node < topology.num_nodes
            ):
                raise ConfigurationError(
                    f"fault targets node {event.node}, machine has "
                    f"{topology.num_nodes} nodes"
                )
            if event.rank is not None and not (
                0 <= event.rank < topology.world_size
            ):
                raise ConfigurationError(
                    f"fault targets rank {event.rank}, machine has "
                    f"{topology.world_size} ranks"
                )
            if event.kind == FaultKind.NIC_FLAP:
                assert event.node is not None
                node = topology.ranks_of_node(event.node)[0]
                if topology.node_of(node).rdma_nic is None:
                    raise ConfigurationError(
                        f"nic-flap targets node {event.node}, which has no "
                        "RDMA NIC to flap"
                    )

    @property
    def crash_times(self) -> List[float]:
        return [e.time for e in self.events if e.kind == FaultKind.NODE_CRASH]

    def first_crash(self) -> Optional[float]:
        times = self.crash_times
        return min(times) if times else None

    def describe(self) -> str:
        if not self.events:
            return "FaultPlan(empty)"
        head = f"FaultPlan({len(self.events)} events"
        head += f", seed={self.seed})" if self.seed is not None else ")"
        return "\n  ".join([head] + [e.describe() for e in self.events])

    def extended(self, extra: Iterable[FaultEvent]) -> "FaultPlan":
        """A new plan with additional events merged in."""
        return FaultPlan(events=self.events + tuple(extra), seed=self.seed)

    @classmethod
    def random(
        cls,
        topology: ClusterTopology,
        horizon: float,
        seed: int = 0,
        num_events: int = 3,
        kinds: Tuple[FaultKind, ...] = (
            FaultKind.NIC_FLAP,
            FaultKind.LINK_DEGRADE,
            FaultKind.PACKET_LOSS,
            FaultKind.STRAGGLER,
        ),
        mean_duration: Optional[float] = None,
    ) -> "FaultPlan":
        """A seeded random plan of ``num_events`` faults in ``[0, horizon)``.

        Node crashes are excluded by default (they abort the iteration);
        include :data:`FaultKind.NODE_CRASH` in ``kinds`` explicitly to
        study crash behaviour.  Durations are exponential with mean
        ``mean_duration`` (default: a quarter of the horizon).
        """
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive: {horizon}")
        if num_events < 0:
            raise ConfigurationError(f"num_events must be >= 0: {num_events}")
        if not kinds:
            raise ConfigurationError("at least one fault kind required")
        import numpy as np

        rng = np.random.default_rng(seed)
        mean = mean_duration if mean_duration is not None else horizon / 4.0
        rdma_nodes = [
            n
            for n in range(topology.num_nodes)
            if topology.node_of(topology.ranks_of_node(n)[0]).rdma_nic is not None
        ]
        events: List[FaultEvent] = []
        for _ in range(num_events):
            choices = list(kinds)
            if not rdma_nodes and FaultKind.NIC_FLAP in choices:
                choices.remove(FaultKind.NIC_FLAP)
            kind = choices[int(rng.integers(len(choices)))]
            time = float(rng.uniform(0.0, horizon))
            duration = max(1e-6, float(rng.exponential(mean)))
            if kind == FaultKind.NIC_FLAP:
                node = rdma_nodes[int(rng.integers(len(rdma_nodes)))]
                events.append(FaultEvent(time, kind, node=node, duration=duration))
            elif kind == FaultKind.LINK_DEGRADE:
                node = int(rng.integers(topology.num_nodes))
                factor = float(rng.uniform(0.1, 0.9))
                events.append(
                    FaultEvent(time, kind, node=node, duration=duration, factor=factor)
                )
            elif kind == FaultKind.PACKET_LOSS:
                node = int(rng.integers(topology.num_nodes))
                loss = float(rng.uniform(0.005, 0.2))
                events.append(
                    FaultEvent(
                        time, kind, node=node, duration=duration, loss_rate=loss
                    )
                )
            elif kind == FaultKind.NODE_CRASH:
                node = int(rng.integers(topology.num_nodes))
                events.append(FaultEvent(time, kind, node=node))
            else:
                rank = int(rng.integers(topology.world_size))
                factor = float(rng.uniform(1.2, 3.0))
                events.append(
                    FaultEvent(time, kind, rank=rank, duration=duration, factor=factor)
                )
        plan = cls(events=tuple(events), seed=seed)
        plan.validate_against(topology)
        return plan
