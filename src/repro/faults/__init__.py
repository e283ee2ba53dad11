"""In-simulation fault injection.

The paper's own future-work list (§1) names fault handling as the open
problem: Holmes assumes every NIC and node stays healthy for the whole run.
:mod:`repro.core.faults` prices failures analytically (Young/Daly);
this package makes them *happen inside the discrete-event simulation*:

- :class:`~repro.faults.plan.FaultPlan` — a deterministic, seeded script of
  timed fault events (NIC flap, link degradation, packet-loss onset, node
  crash, straggler onset);
- :class:`~repro.faults.injector.FaultInjector` — applies the plan to a
  live :class:`~repro.network.fabric.Fabric` mid-iteration, mutating its
  health overlay so transports re-resolve, retries get priced, and RDMA
  faults re-route traffic over TCP/Ethernet;
- :class:`~repro.faults.injector.FaultReport` — what the degradation cost:
  time lost to retries, communicator rebuilds, pairs/groups in fallback.

Replaying the same plan through the same simulation yields byte-identical
metrics — faults are part of the deterministic script, not hidden RNG state.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultInjector",
    "FaultRecord",
    "FaultReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.plan": ("FaultEvent", "FaultKind", "FaultPlan"),
    "repro.faults.injector": ("FaultInjector", "FaultRecord", "FaultReport"),
})
