"""Holmes core: the paper's primary contribution.

- :mod:`repro.core.scheduler` — NIC-aware placement (Cross-Cluster Pipeline
  Parallelism): pipeline groups span clusters over Ethernet so data-parallel
  groups stay inside homogeneous-RDMA clusters.
- :mod:`repro.core.nic_selection` — Automatic NIC Selection: per-group
  transport audits and the homogeneity guarantee for DP groups.
- :mod:`repro.core.partition` — Self-Adapting Pipeline Partition (Eq. 2).
- :mod:`repro.core.optimizer` — gradient synchronisation strategies,
  including the Overlapped Distributed Optimizer.
- :mod:`repro.core.engine` — the discrete-event training-step simulator.
- :mod:`repro.core.metrics` — TFLOPS / throughput exactly as the paper
  reports them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "MemoryEstimate",
    "estimate_memory",
    "fits_in_memory",
    "PlanCandidate",
    "plan_best",
    "CheckpointPolicy",
    "replan_after_failure",
    "surviving_topology",
    "CampaignResult",
    "ElasticPolicy",
    "ElasticCampaignResult",
    "elastic_goodput_analytic",
    "simulate_campaign",
    "simulate_elastic_campaign",
    "IterationAnalysis",
    "analyze",
    "uniform_partition",
    "self_adapting_partition",
    "stage_speed_from_nic",
    "NICSelectionAudit",
    "audit_parallel_groups",
    "OptimizerStrategy",
    "STRATEGIES",
    "HolmesScheduler",
    "TrainingPlan",
    "TrainingSimulation",
    "IterationResult",
    "IterationMetrics",
    "compute_metrics",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.partition": (
        "uniform_partition",
        "self_adapting_partition",
        "stage_speed_from_nic",
    ),
    "repro.core.nic_selection": ("NICSelectionAudit", "audit_parallel_groups"),
    "repro.core.optimizer": ("OptimizerStrategy", "STRATEGIES"),
    "repro.core.scheduler": ("HolmesScheduler", "TrainingPlan"),
    "repro.core.engine": ("TrainingSimulation", "IterationResult"),
    "repro.core.metrics": ("IterationMetrics", "compute_metrics"),
    "repro.core.memory_model": ("MemoryEstimate", "estimate_memory", "fits_in_memory"),
    "repro.core.planner": ("PlanCandidate", "plan_best"),
    "repro.core.faults": ("CheckpointPolicy", "replan_after_failure", "surviving_topology"),
    "repro.core.longrun": (
        "CampaignResult",
        "ElasticPolicy",
        "ElasticCampaignResult",
        "elastic_goodput_analytic",
        "simulate_campaign",
        "simulate_elastic_campaign",
    ),
    "repro.core.analysis": ("IterationAnalysis", "analyze"),
})
