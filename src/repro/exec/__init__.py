"""Scenario-batch execution: resilient workers, result cache, microbench.

The execution layer sits between :mod:`repro.api` (which defines *what* a
run is) and the simulator (which defines what a run *does*):

- :mod:`repro.exec.digest` — canonical scenario digests, salted with the
  code version (:data:`~repro.exec.digest.CODE_VERSION_SALT`);
- :mod:`repro.exec.cache` — content-addressed :class:`ResultCache` with
  corrupt-entry quarantine and temp-debris pruning;
- :mod:`repro.exec.engine` — :func:`run_sweep` and :func:`pmap`, the
  deterministic serial/parallel batch executors;
- :mod:`repro.exec.resilience` — the supervised worker pool beneath them:
  per-scenario timeouts with hung-worker kill/respawn, bounded retries
  with deterministic backoff, and quarantine into
  :class:`SweepOutcome`/:class:`ScenarioFailure` manifests;
- :mod:`repro.exec.journal` — the durable append-only
  :class:`SweepJournal` behind ``sweep(..., resume=True)``;
- :mod:`repro.exec.chaos` — seeded executor fault injection (worker
  crashes, hangs, poison scenarios, supervisor interrupts) for tests;
- :mod:`repro.exec.microbench` — the DES hot-path benchmark suite and its
  CI regression gate.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CODE_VERSION_SALT",
    "MICROBENCHES",
    "ResultCache",
    "ScenarioFailure",
    "SweepError",
    "SweepJournal",
    "SweepOutcome",
    "SweepPolicy",
    "check_regression",
    "exec_metrics",
    "format_resilience_summary",
    "partition",
    "pmap",
    "resilience_summary",
    "resolve_jobs",
    "run_microbenches",
    "run_sweep",
    "scenario_digest",
    "sweep_digest",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exec.cache": ("ResultCache",),
    "repro.exec.digest": ("CODE_VERSION_SALT", "scenario_digest"),
    "repro.exec.engine": ("partition", "pmap", "resolve_jobs", "run_sweep"),
    "repro.exec.journal": ("SweepJournal", "sweep_digest"),
    "repro.exec.microbench": ("MICROBENCHES", "check_regression", "run_microbenches"),
    "repro.exec.resilience": (
        "ScenarioFailure",
        "SweepError",
        "SweepOutcome",
        "SweepPolicy",
        "exec_metrics",
        "format_resilience_summary",
        "resilience_summary",
    ),
})
