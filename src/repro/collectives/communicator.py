"""Timed communicators: functional collectives priced by the fabric.

A :class:`Communicator` owns an ordered rank group.  Its collective methods
accept per-rank NumPy buffers, execute the real algorithm from
:mod:`repro.collectives.ring` / :mod:`repro.collectives.tree`, and return a
:class:`CollectiveResult` carrying both the data and the simulated duration
over the group's negotiated transport.

NumPy and the array algorithms load when a collective method first runs:
the simulator builds communicators only to audit transports
(:class:`~repro.collectives.nccl.CommunicatorPool`), and that path stays
free of NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import CommunicatorError
from repro.network.contention import group_node_span
from repro.network.fabric import Fabric
from repro.network.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np


@dataclass(frozen=True)
class CollectiveResult:
    """Outcome of one timed collective."""

    op: str
    duration: float  # seconds
    nbytes: int  # payload size per rank (pre-operation)
    transport: Optional[Transport]  # None for trivial (size-1) groups
    buffers: tuple  # per-rank result arrays, in group order


class Communicator:
    """An ordered group of global ranks sharing collectives.

    Rank order matters: buffers are supplied and returned in group order
    (ring position = index in ``ranks``).
    """

    def __init__(self, fabric: Fabric, ranks: Sequence[int], name: str = "comm") -> None:
        ranks = list(ranks)
        if not ranks:
            raise CommunicatorError("communicator needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise CommunicatorError(f"duplicate ranks in communicator: {ranks}")
        world = fabric.topology.world_size
        for r in ranks:
            if not 0 <= r < world:
                raise CommunicatorError(f"rank {r} outside world [0, {world})")
        self.fabric = fabric
        self.ranks = ranks
        self.name = name

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def transport(self) -> Optional[Transport]:
        """The slowest-edge transport of this group (None for size-1)."""
        if self.size < 2:
            return None
        return self.fabric.group_transport(self.ranks)

    @property
    def node_span(self) -> int:
        return group_node_span(self.fabric.topology, self.ranks)

    def _check_buffers(self, buffers: Sequence[np.ndarray]) -> List[np.ndarray]:
        import numpy as np

        if len(buffers) != self.size:
            raise CommunicatorError(
                f"{self.name}: expected {self.size} buffers, got {len(buffers)}"
            )
        return [np.asarray(b) for b in buffers]

    def _timed(self, op: str, nbytes: int, concurrent: int) -> float:
        return self.fabric.collective_time(op, self.ranks, nbytes, concurrent)

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #

    def allreduce(
        self, buffers: Sequence[np.ndarray], op: str = "sum", concurrent: int = 1
    ) -> CollectiveResult:
        """Ring all-reduce; every rank receives the full reduction."""
        from repro.collectives import ring

        arrays = self._check_buffers(buffers)
        nbytes = int(arrays[0].nbytes)
        results = ring.ring_allreduce(arrays, op=op) if self.size > 1 else [arrays[0].copy()]
        return CollectiveResult(
            op="allreduce",
            duration=self._timed("allreduce", nbytes, concurrent),
            nbytes=nbytes,
            transport=self.transport,
            buffers=tuple(results),
        )

    def reduce_scatter(
        self, buffers: Sequence[np.ndarray], op: str = "sum", concurrent: int = 1
    ) -> CollectiveResult:
        """Ring reduce-scatter; rank ``i`` receives reduced shard ``(i+1)%d``
        (ring-native placement; see :func:`ring.ring_reduce_scatter`)."""
        from repro.collectives import ring

        arrays = self._check_buffers(buffers)
        nbytes = int(arrays[0].nbytes)
        results = (
            ring.ring_reduce_scatter(arrays, op=op)
            if self.size > 1
            else [arrays[0].copy()]
        )
        return CollectiveResult(
            op="reduce_scatter",
            duration=self._timed("reduce_scatter", nbytes, concurrent),
            nbytes=nbytes,
            transport=self.transport,
            buffers=tuple(results),
        )

    def allgather(
        self, shards: Sequence[np.ndarray], concurrent: int = 1
    ) -> CollectiveResult:
        """Ring all-gather; every rank receives the shard concatenation."""
        from repro.collectives import ring

        arrays = self._check_buffers(shards)
        total_bytes = int(sum(a.nbytes for a in arrays))
        results = ring.ring_allgather(arrays) if self.size > 1 else [arrays[0].copy()]
        return CollectiveResult(
            op="allgather",
            duration=self._timed("allgather", total_bytes, concurrent),
            nbytes=total_bytes,
            transport=self.transport,
            buffers=tuple(results),
        )

    def broadcast(
        self, buffer: np.ndarray, root: int = 0, concurrent: int = 1
    ) -> CollectiveResult:
        """Tree broadcast from group position ``root``."""
        import numpy as np

        from repro.collectives import tree

        if not 0 <= root < self.size:
            raise CommunicatorError(f"broadcast root {root} outside group")
        arr = np.asarray(buffer)
        nbytes = int(arr.nbytes)
        results = tree.tree_broadcast(arr, self.size, root=root)
        return CollectiveResult(
            op="broadcast",
            duration=self._timed("broadcast", nbytes, concurrent),
            nbytes=nbytes,
            transport=self.transport,
            buffers=tuple(results),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.name!r} ranks={self.ranks}>"
