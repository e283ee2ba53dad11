"""Experiment runner: one call per (scenario, parameter group, framework).

Holmes's Table 1/3/4 and Figure 3/4 rows run the *base* Holmes
configuration — Cross-Cluster Pipeline Parallelism and Automatic NIC
Selection with uniform partition and the plain distributed optimizer —
because the paper's own numbers tie out that way (Table 5's "w/o Above Two"
row equals Table 3's Hybrid entry).  Figures 5-7 and Table 5 use the full
configuration with the Eq. 2 partition (alpha = 1.05) and the overlapped
optimizer, as stated in §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.frameworks.base import FrameworkSpec, simulate_framework
from repro.frameworks.holmes import HOLMES, holmes_ablation
from repro.bench.paramgroups import ParameterGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import RunResult, Scenario
    from repro.core.engine import IterationResult
    from repro.exec.cache import ResultCache
    from repro.hardware.topology import ClusterTopology
    from repro.network.costmodel import CostModelConfig

#: display spellings used by the paper tables -> canonical ``Scenario.env``
ENV_ALIASES: Dict[str, str] = {
    "InfiniBand": "ib",
    "RoCE": "roce",
    "Ethernet": "ethernet",
    "Hybrid": "hybrid",
}

#: Base Holmes (Tables 1/3/4, Figures 3/4): NIC selection + cross-cluster
#: pipeline only.
HOLMES_BASE = holmes_ablation(self_adapting_partition=False, overlapped_optimizer=False)
#: Full Holmes (Figures 5-7, Table 5).
HOLMES_FULL = HOLMES


@dataclass(frozen=True)
class CaseResult:
    """One experiment cell: metrics plus provenance."""

    scenario: str
    framework: str
    group_id: int
    num_gpus: int
    tflops: float
    throughput: float
    iteration_time: float
    reduce_scatter_time: float
    dp_rdma_fraction: float

    def row(self) -> dict:
        return {
            "scenario": self.scenario,
            "framework": self.framework,
            "group": self.group_id,
            "gpus": self.num_gpus,
            "TFLOPS": round(self.tflops),
            "throughput": round(self.throughput, 2),
        }


def run_framework_case(
    spec: FrameworkSpec,
    topology: ClusterTopology,
    group: ParameterGroup,
    scenario: str = "",
    cost_config: Optional[CostModelConfig] = None,
    trace_enabled: bool = False,
    fidelity: str = "executed",
) -> CaseResult:
    """Simulate one cell and summarise it."""
    parallel = group.parallel_for(topology.world_size)
    result = simulate_framework(
        spec, topology, parallel, group.model,
        cost_config=cost_config, trace_enabled=trace_enabled,
        fidelity=fidelity,
    )
    return summarize(result, scenario, spec.name, group.group_id)


def run_holmes_case(
    topology: ClusterTopology,
    group: ParameterGroup,
    scenario: str = "",
    full: bool = False,
    cost_config: Optional[CostModelConfig] = None,
    trace_enabled: bool = False,
    fidelity: str = "executed",
) -> CaseResult:
    """Simulate Holmes (base or full configuration) on one cell."""
    spec = HOLMES_FULL if full else HOLMES_BASE
    return run_framework_case(
        spec, topology, group, scenario=scenario,
        cost_config=cost_config, trace_enabled=trace_enabled,
        fidelity=fidelity,
    )


def case_scenario(
    env: str,
    nodes: int,
    group: Union[int, ParameterGroup],
    full: bool = False,
    gpus_per_node: int = 8,
    **overrides: object,
) -> "Scenario":
    """The :class:`repro.api.Scenario` for one paper table cell.

    ``env`` accepts both the canonical short names (``ib``, ``hybrid``,
    ...) and the tables' display spellings (``InfiniBand``, ``Hybrid``).
    Tracing defaults off, matching :func:`run_holmes_case`.
    """
    from repro.api import Scenario

    framework = "holmes-full" if full else "holmes-base"
    overrides.setdefault("trace_enabled", False)
    return Scenario.from_group(
        ENV_ALIASES.get(env, env),
        nodes,
        group,
        gpus_per_node=gpus_per_node,
        framework=framework,
        **overrides,
    )


def run_batch(
    scenarios: Sequence["Scenario"],
    jobs: int = 1,
    cache: Union["ResultCache", str, None] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 2,
    on_error: str = "raise",
    resume: bool = False,
    journal: Union[str, None] = None,
) -> List["RunResult"]:
    """Run experiment cells through the batch executor
    (:func:`repro.api.sweep`): parallel workers and the result cache with
    serial-identical results.  This is the path the paper-table benchmarks
    and ``repro bench`` use.  The resilience knobs (per-cell ``timeout``,
    bounded ``retries``, ``on_error="collect"`` quarantine, journal-backed
    ``resume``) pass straight through to the executor."""
    from repro.api import sweep

    return sweep(
        scenarios,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        on_error=on_error,
        resume=resume,
        journal=journal,
    )


def summarize(
    result: IterationResult, scenario: str, framework: str, group_id: int
) -> CaseResult:
    return CaseResult(
        scenario=scenario,
        framework=framework,
        group_id=group_id,
        num_gpus=result.plan.topology.world_size,
        tflops=result.tflops,
        throughput=result.throughput,
        iteration_time=result.iteration_time,
        reduce_scatter_time=result.reduce_scatter_time(),
        dp_rdma_fraction=result.audit.dp_rdma_fraction,
    )
