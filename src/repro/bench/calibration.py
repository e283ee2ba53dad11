"""Calibration of the simulator's free parameters against paper anchors.

The model has a small set of free constants that the paper does not publish
directly; everything else (FLOPs, volumes, group structures, schedules) is
derived.  The free set:

=====================  =====================================  =========
constant               meaning                                fitted
=====================  =====================================  =========
``A100.base_mfu``      sustained fraction of fp16 peak        0.78
``IB_200.efficiency``  achieved fraction of IB line rate      0.90
``ROCE_200.efficiency``achieved fraction of RoCE line rate    0.55
``ROCE_200.compute_drag`` backward slowdown behind RoCE       0.22
``ETH_25.efficiency``  achieved fraction of Ethernet rate     0.70
``inter_cluster_uplink`` shared cross-cluster pipe (bytes/s)  4e9
``ITERATION_OVERHEAD`` fixed per-iteration framework cost     0.45 s
=====================  =====================================  =========

**Calibration firewall**: the fit minimises mean relative TFLOPS error over
the Table 1 / Table 3 cells only; Table 4, Table 5, and every figure are
*predictions*.  :func:`evaluate_against_table3` recomputes the residual for
the current defaults so tests can pin the calibration quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.bench.paper_data import TABLE3
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.errors import CalibrationError

#: The Table 3 cells used as calibration anchors (all of them).
ANCHOR_KEYS: Tuple[Tuple[int, int, str], ...] = tuple(sorted(TABLE3.keys()))

#: Maximum acceptable mean relative TFLOPS error for the shipped defaults.
ACCEPTABLE_MEAN_ERROR = 0.08


@dataclass(frozen=True)
class CellResidual:
    """Paper-vs-measured for one Table 3 cell."""

    group: int
    nodes: int
    environment: str
    paper_tflops: float
    measured_tflops: float

    @property
    def relative_error(self) -> float:
        return abs(self.measured_tflops - self.paper_tflops) / self.paper_tflops


@dataclass(frozen=True)
class CalibrationReport:
    """Residuals of the current model constants over all anchors."""

    residuals: Tuple[CellResidual, ...]

    @property
    def mean_relative_error(self) -> float:
        return sum(r.relative_error for r in self.residuals) / len(self.residuals)

    @property
    def max_relative_error(self) -> float:
        return max(r.relative_error for r in self.residuals)

    def worst(self, k: int = 5) -> List[CellResidual]:
        return sorted(self.residuals, key=lambda r: -r.relative_error)[:k]


def evaluate_against_table3(
    keys: Optional[Iterable[Tuple[int, int, str]]] = None,
) -> CalibrationReport:
    """Run the simulator over the anchor cells and report residuals."""
    from repro.api import run

    residuals: List[CellResidual] = []
    for group, nodes, env in keys or ANCHOR_KEYS:
        paper_tflops, _ = TABLE3[(group, nodes, env)]
        if paper_tflops is None:
            continue
        result = run(case_scenario(env, nodes, PARAM_GROUPS[group]))
        residuals.append(
            CellResidual(
                group=group,
                nodes=nodes,
                environment=env,
                paper_tflops=float(paper_tflops),
                measured_tflops=result.tflops,
            )
        )
    if not residuals:
        raise CalibrationError("no anchor cells evaluated")
    return CalibrationReport(residuals=tuple(residuals))


def verify_calibration(threshold: float = ACCEPTABLE_MEAN_ERROR) -> CalibrationReport:
    """Assert the shipped defaults meet the calibration quality bar."""
    report = evaluate_against_table3()
    if report.mean_relative_error > threshold:
        worst = ", ".join(
            f"PG{r.group}/{r.nodes}n/{r.environment}: "
            f"{r.measured_tflops:.0f} vs {r.paper_tflops:.0f}"
            for r in report.worst(3)
        )
        raise CalibrationError(
            f"calibration drifted: mean error "
            f"{report.mean_relative_error * 100:.1f}% > "
            f"{threshold * 100:.1f}% (worst: {worst})"
        )
    return report
