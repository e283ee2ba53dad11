"""`repro.validate` — the simulation conformance subsystem.

Every headline number this reproduction reports is the makespan of a
discrete-event simulation, so the credibility of the whole repository rests
on properties that must hold for *every* run, not just the ones unit tests
happen to pin.  This package makes those properties first-class:

- :class:`ValidationHooks` (:mod:`repro.validate.hooks`) — an opt-in
  invariant sanitizer threaded through the event engine, the fabric, and
  the collective executor.  Causality, resource capacity, byte
  conservation, and trace well-formedness are checked *as events execute*;
  violations raise structured
  :class:`~repro.errors.InvariantViolation` errors carrying the offending
  event context.
- the deterministic-replay differ (:mod:`repro.validate.replay`) — stable
  digests of executed traces and :class:`IterationMetrics`, plus
  :func:`diff_runs`, which reruns a scenario and reports the first
  divergent event, turning "replays are byte-identical" into a checked
  property.
- the metamorphic harness (:mod:`repro.validate.metamorphic` /
  :mod:`repro.validate.scenarios`) — a pure-stdlib property runner over
  seeded random scenarios with a registry of metamorphic relations
  (bandwidth monotonicity, straggler monotonicity, slowest-link lower
  bounds, relabeling invariance, replay determinism), runnable both as
  pytest parametrizations and via the ``repro validate`` CLI, which emits
  a schema-versioned ``repro.validate.report/v1`` document.
"""

from repro._lazy import lazy_exports

__all__ = [
    "InvariantViolation",
    "ValidationHooks",
    "RELATIONS",
    "Relation",
    "RelationResult",
    "check_relation",
    "run_validation",
    "ReplayReport",
    "RunFingerprint",
    "diff_runs",
    "fingerprint",
    "metrics_digest",
    "trace_digest",
    "VALIDATION_SCHEMA",
    "build_validation_report",
    "render_validation_report",
    "validate_validation_report",
    "sample_scenarios",
    "scaled_topology",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ("InvariantViolation",),
    "repro.validate.hooks": ("ValidationHooks",),
    "repro.validate.metamorphic": (
        "RELATIONS",
        "Relation",
        "RelationResult",
        "check_relation",
        "run_validation",
    ),
    "repro.validate.replay": (
        "ReplayReport",
        "RunFingerprint",
        "diff_runs",
        "fingerprint",
        "metrics_digest",
        "trace_digest",
    ),
    "repro.validate.report": (
        "VALIDATION_SCHEMA",
        "build_validation_report",
        "render_validation_report",
        "validate_validation_report",
    ),
    "repro.validate.scenarios": ("sample_scenarios", "scaled_topology"),
})
