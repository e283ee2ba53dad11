"""Paper-table cells as :class:`repro.api.Scenario` values.

Holmes's Table 1/3/4 and Figure 3/4 rows run the *base* Holmes
configuration — Cross-Cluster Pipeline Parallelism and Automatic NIC
Selection with uniform partition and the plain distributed optimizer —
because the paper's own numbers tie out that way (Table 5's "w/o Above Two"
row equals Table 3's Hybrid entry).  Figures 5-7 and Table 5 use the full
configuration with the Eq. 2 partition (alpha = 1.05) and the overlapped
optimizer, as stated in §4.1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Union

from repro.frameworks.holmes import HOLMES, holmes_ablation
from repro.bench.paramgroups import ParameterGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Scenario

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
    Tracing defaults off: table cells need only the headline metrics.
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
