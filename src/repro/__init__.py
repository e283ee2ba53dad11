"""Holmes: distributed LLM training across clusters with heterogeneous NICs.

A simulation-based reproduction of *Holmes: Towards Distributed Training
Across Clusters with Heterogeneous NIC Environment* (ICPP 2024).  The
package models the full stack — hardware topology, network transports,
NCCL-style collectives, Megatron-style parallelism, pipeline schedules —
and implements the paper's contributions on top:

- Cross-Cluster Pipeline Parallelism (:mod:`repro.core.scheduler`)
- Automatic NIC Selection (:mod:`repro.core.nic_selection`)
- Self-Adapting Pipeline Partition (:mod:`repro.core.partition`)
- Overlapped Distributed Optimizer (:mod:`repro.core.optimizer`)

Quickstart::

    from repro import quick_simulate
    from repro.bench.paramgroups import PARAM_GROUPS
    from repro.bench.scenarios import hybrid2_env

    result = quick_simulate(hybrid2_env(4), PARAM_GROUPS[1])
    print(result.metrics)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.engine import IterationResult

__version__ = "1.0.0"


def quick_simulate(topology, group, full: bool = False) -> IterationResult:
    """Simulate one Holmes training iteration of a parameter group.

    ``topology`` runs as an inline machine
    (:func:`repro.hardware.config_io.topology_to_dict`); ``group`` is a
    :class:`~repro.bench.paramgroups.ParameterGroup`; ``full=True`` enables
    the Eq. 2 partition and overlapped optimizer.
    """
    from repro import api
    from repro.hardware.config_io import topology_to_dict

    return api.simulate(api.Scenario.from_group(
        "custom", topology.num_nodes, group,
        gpus_per_node=topology.gpus_per_node,
        framework="holmes-full" if full else "holmes-base",
        machine=topology_to_dict(topology),
    ))


__all__ = [
    "__version__",
    "GPTConfig",
    "ParallelConfig",
    "NICType",
    "HolmesScheduler",
    "TrainingPlan",
    "TrainingSimulation",
    "IterationResult",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FRAMEWORKS",
    "HOLMES",
    "quick_simulate",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.engine": ("IterationResult", "TrainingSimulation"),
    "repro.core.scheduler": ("HolmesScheduler", "TrainingPlan"),
    "repro.faults.plan": ("FaultEvent", "FaultKind", "FaultPlan"),
    "repro.frameworks.holmes": ("HOLMES",),
    "repro.frameworks.registry": ("FRAMEWORKS",),
    "repro.hardware.nic": ("NICType",),
    "repro.model.config": ("GPTConfig",),
    "repro.parallel.degrees": ("ParallelConfig",),
})
