"""Benchmark support: parameter groups, NIC scenarios, table cells, calibration.

Everything the ``benchmarks/`` tree uses to regenerate the paper's tables
and figures lives here, so the benchmark files themselves stay declarative.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PARAM_GROUPS",
    "ParameterGroup",
    "ethernet_env",
    "homogeneous_env",
    "hybrid2_env",
    "hybrid3_env",
    "split_env",
    "case_scenario",
    "format_table",
    "format_row",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.paramgroups": ("PARAM_GROUPS", "ParameterGroup"),
    "repro.bench.scenarios": (
        "ethernet_env",
        "homogeneous_env",
        "hybrid2_env",
        "hybrid3_env",
        "split_env",
    ),
    "repro.bench.runner": ("case_scenario",),
    "repro.bench.tables": ("format_table", "format_row"),
})
