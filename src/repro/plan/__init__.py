"""NIC-aware auto-planner: search the strategy space the simulator prices.

``plan_scenario`` takes a base :class:`repro.api.Scenario` (machine, model,
workload) and discovers the best parallel layout and policy preset by
enumerating candidates (:mod:`repro.plan.candidates`), pruning with the
closed-form oracle (:mod:`repro.plan.oracle`), and running the two-phase
simulated search (:mod:`repro.plan.search`).  The result serialises to the
schema-gated ``repro.plan.report/v1`` document (:mod:`repro.plan.report`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "PLAN_FIDELITY_RTOL",
    "PLAN_RANK_RTOL",
    "PLAN_SCHEMA",
    "OracleEstimate",
    "PlanResult",
    "RankedLayout",
    "SEARCH_FRAMEWORKS",
    "SEARCH_SCHEDULES",
    "build_plan_report",
    "enumerate_candidates",
    "enumerate_layouts",
    "oracle_estimate",
    "plan_scenario",
    "preset_scenarios",
    "render_plan_report",
    "validate_plan_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.plan.candidates": (
        "SEARCH_FRAMEWORKS",
        "SEARCH_SCHEDULES",
        "enumerate_candidates",
        "enumerate_layouts",
        "preset_scenarios",
    ),
    "repro.plan.oracle": ("OracleEstimate", "oracle_estimate"),
    "repro.plan.report": (
        "PLAN_SCHEMA",
        "build_plan_report",
        "render_plan_report",
        "validate_plan_report",
    ),
    "repro.plan.search": (
        "PLAN_FIDELITY_RTOL",
        "PLAN_RANK_RTOL",
        "PlanResult",
        "RankedLayout",
        "plan_scenario",
    ),
})
