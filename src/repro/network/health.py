"""Mutable link-health overlay for the fabric.

A :class:`ClusterTopology` is immutable — the hardware doesn't change when a
NIC flaps.  What changes is the *health* of its links, tracked here as an
overlay keyed by ``(global node index, NIC family)``:

- ``down`` — the NIC is unusable; RDMA traffic of affected pairs must
  re-resolve to the TCP/Ethernet fallback (paper §3.2 mechanics, triggered
  dynamically instead of at planning time);
- ``bandwidth_factor`` — a degraded link delivers only this fraction of its
  healthy rate (flaky optics, a renegotiated lane width);
- ``loss_rate`` — per-transfer loss probability; the cost model converts it
  into bounded-retry retransmission time.

Every mutation bumps ``epoch`` so the fabric's transport caches invalidate
lazily: nothing re-resolves until someone actually communicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.errors import ConfigurationError
from repro.hardware.nic import NICType


@dataclass
class NicHealth:
    """Health of one node's NIC of one family."""

    down: bool = False
    bandwidth_factor: float = 1.0
    loss_rate: float = 0.0

    @property
    def pristine(self) -> bool:
        return (
            not self.down
            and self.bandwidth_factor == 1.0
            and self.loss_rate == 0.0
        )


class FabricHealth:
    """Epoch-counted health state for every (node, NIC family) in a machine."""

    def __init__(self) -> None:
        self.epoch = 0
        self._state: Dict[Tuple[int, NICType], NicHealth] = {}

    def _entry(self, node: int, family: NICType) -> NicHealth:
        key = (node, family)
        entry = self._state.get(key)
        if entry is None:
            entry = NicHealth()
            self._state[key] = entry
        return entry

    def get(self, node: int, family: NICType) -> NicHealth:
        """Current health (a pristine default if never touched)."""
        return self._state.get((node, family), NicHealth())

    # ------------------------------------------------------------------ #
    # mutators (each bumps the epoch)
    # ------------------------------------------------------------------ #

    def set_down(self, node: int, family: NICType, down: bool = True) -> None:
        self._entry(node, family).down = down
        self.epoch += 1

    def set_bandwidth_factor(
        self, node: int, family: NICType, factor: float
    ) -> None:
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"bandwidth factor must be in (0, 1]: {factor}"
            )
        self._entry(node, family).bandwidth_factor = factor
        self.epoch += 1

    def set_loss_rate(self, node: int, family: NICType, loss_rate: float) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(f"loss_rate must be in [0, 1): {loss_rate}")
        self._entry(node, family).loss_rate = loss_rate
        self.epoch += 1

    def crash_node(self, node: int) -> None:
        """Mark every NIC family of a node unusable (whole-node blast radius)."""
        for family in NICType:
            self._entry(node, family).down = True
        self.epoch += 1

    def clear(self, node: int, family: NICType) -> None:
        """Restore one NIC to pristine health."""
        self._state.pop((node, family), None)
        self.epoch += 1

    def node_states(self) -> Dict[int, tuple]:
        """Per node with a non-pristine NIC: its NIC states as one hashable
        tuple of ``(family, down, bandwidth_factor, loss_rate)``, by
        family.  Nodes missing here are pristine."""
        states: Dict[int, list] = {}
        for (node, family), h in self._state.items():
            if not h.pristine:
                states.setdefault(node, []).append(
                    (family.value, h.down, h.bandwidth_factor, h.loss_rate)
                )
        return {node: tuple(sorted(entries)) for node, entries in states.items()}

    @property
    def any_faults(self) -> bool:
        return any(not h.pristine for h in self._state.values())


@dataclass
class FaultStats:
    """Degradation accounting one fabric accumulates during a simulation.

    ``retry_time`` is the summed expected retransmission overhead priced
    into transfers and collectives over lossy links; ``rebuild_time`` the
    summed communicator re-initialisation charges; ``fallback_pairs`` /
    ``fallback_groups`` the rank pairs and collective groups currently
    riding a transport family other than their fault-free resolution.
    """

    retry_time: float = 0.0
    rebuild_time: float = 0.0
    rebuild_count: int = 0
    fallback_pairs: Set[Tuple[int, int]] = field(default_factory=set)
    fallback_groups: Set[Tuple[int, ...]] = field(default_factory=set)

    @property
    def degraded(self) -> bool:
        return bool(
            self.retry_time
            or self.rebuild_count
            or self.fallback_pairs
            or self.fallback_groups
        )
