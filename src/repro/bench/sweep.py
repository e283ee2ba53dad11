"""Node-scaling axes as scenarios, and their scaling efficiency.

Backs the scaling-study example and gives downstream users a one-call way
to produce Table-3-style grids for their own models; the scenarios run
through :func:`repro.api.sweep` (parallel workers, the result cache).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Union

from repro.bench.runner import case_scenario
from repro.errors import ConfigurationError
from repro.bench.paramgroups import ParameterGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import RunResult, Scenario


def node_scaling_scenarios(
    env: str,
    node_counts: Sequence[int],
    group: Union[int, ParameterGroup],
    full: bool = False,
    gpus_per_node: int = 8,
) -> List["Scenario"]:
    """Scenario-based node-scaling axis for one named environment."""
    if not node_counts:
        raise ConfigurationError("need at least one node count")
    return [
        case_scenario(env, n, group, full=full, gpus_per_node=gpus_per_node)
        for n in node_counts
    ]


def scaling_efficiency(results: Sequence["RunResult"]) -> List[float]:
    """Throughput scaling efficiency relative to the first point.

    efficiency[i] = (throughput_i / throughput_0) / (gpus_i / gpus_0);
    1.0 is perfect linear scaling.
    """
    if not results:
        raise ConfigurationError("no results to analyse")
    base = results[0]
    if base.throughput <= 0 or base.world_size <= 0:
        raise ConfigurationError("degenerate base point")
    return [
        (r.throughput / base.throughput) / (r.world_size / base.world_size)
        for r in results
    ]
