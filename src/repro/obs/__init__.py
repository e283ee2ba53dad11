"""Observability: metrics, critical-path attribution, network timelines.

The simulator can tell you *how long* an iteration took; this package tells
you *why*.  Three pillars:

- :mod:`repro.obs.registry` — a structured metrics registry (counters,
  gauges, histograms with labels) the fabric, engine, and fault injector
  publish into, with JSON and Prometheus-text exporters;
- :mod:`repro.obs.attribution` — critical-path analysis over the executed
  span timeline, producing a time-loss budget that attributes the makespan
  to compute / p2p / collective / pipeline-bubble / straggler / fault
  categories (and names the slowest links);
- :mod:`repro.obs.timeline` — per-link and per-NIC utilization over virtual
  time, exportable as Chrome-trace counter tracks.

:mod:`repro.obs.report` assembles all three into the self-contained profile
report emitted by ``repro profile`` and ``benchmarks/emit_bench.py``.

Two campaign-level pillars (PR 7) look *across* iterations and runs:

- :mod:`repro.obs.flight` — the sweep flight recorder: an append-only
  event log narrating a whole campaign (dispatch / retry / respawn /
  quarantine / heartbeat), the live ``--progress`` renderer, and the
  Prometheus textfile exporter refreshed mid-sweep;
- :mod:`repro.obs.ledger` — the persistent run ledger behind ``repro
  runs`` and the cross-run BENCH trend view behind ``repro report
  --trend``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Category",
    "AttributionReport",
    "EdgeCost",
    "attribute_iteration",
    "attribute_result",
    "CampaignState",
    "FlightLog",
    "FlightRecorder",
    "SweepProgress",
    "TextfileExporter",
    "events_path_for",
    "read_events",
    "scenario_story",
    "summarize_events",
    "RunLedger",
    "RunRecord",
    "bench_trend",
    "load_bench_history",
    "record_run",
    "render_trend",
    "trend_regressions",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "build_report",
    "render_report",
    "validate_report",
    "UtilizationSeries",
    "link_utilization",
    "nic_utilization",
    "utilization_counter_events",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.attribution": (
        "Category",
        "AttributionReport",
        "EdgeCost",
        "attribute_iteration",
        "attribute_result",
    ),
    "repro.obs.flight": (
        "CampaignState",
        "FlightLog",
        "FlightRecorder",
        "SweepProgress",
        "TextfileExporter",
        "events_path_for",
        "read_events",
        "scenario_story",
        "summarize_events",
    ),
    "repro.obs.ledger": (
        "RunLedger",
        "RunRecord",
        "bench_trend",
        "load_bench_history",
        "record_run",
        "render_trend",
        "trend_regressions",
    ),
    "repro.obs.registry": ("Counter", "Gauge", "HistogramMetric", "MetricsRegistry"),
    "repro.obs.report": ("build_report", "render_report", "validate_report"),
    "repro.obs.timeline": (
        "UtilizationSeries",
        "link_utilization",
        "nic_utilization",
        "utilization_counter_events",
    ),
})
