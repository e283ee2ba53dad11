"""Simulated NCCL: communicators and collective algorithms.

Two layers live here:

- :mod:`repro.collectives.ring` / :mod:`repro.collectives.tree` implement the
  *data movement* of the classic algorithms step by step on NumPy buffers,
  so correctness is testable against ``np.sum``/``np.concatenate`` oracles
  (including the property-based suite).
- :class:`repro.collectives.communicator.Communicator` binds a rank group to
  a :class:`~repro.network.fabric.Fabric` and prices each operation with the
  alpha-beta cost model, returning both the mathematically correct result
  and the simulated duration.

:class:`repro.collectives.nccl.CommunicatorPool` is the stand-in for the
paper's *modified NCCL*: it builds communicators for parallel groups and
reports which transport each group actually negotiated (the mechanism that
Automatic NIC Selection exploits).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ring_allreduce",
    "ring_reduce_scatter",
    "ring_allgather",
    "tree_broadcast",
    "tree_reduce",
    "Communicator",
    "CollectiveResult",
    "CommunicatorPool",
    "GroupTransportReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.collectives.ring": ("ring_allreduce", "ring_reduce_scatter", "ring_allgather"),
    "repro.collectives.tree": ("tree_broadcast", "tree_reduce"),
    "repro.collectives.communicator": ("Communicator", "CollectiveResult"),
    "repro.collectives.nccl": ("CommunicatorPool", "GroupTransportReport"),
})
