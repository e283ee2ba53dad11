"""Parallel scenario-batch execution with deterministic results.

:func:`run_sweep` is the one batch executor behind
:func:`repro.api.sweep`, the benchmark harness, the metamorphic nightly
sweep, and the ``repro bench`` CLI.  Its contract:

- **Input order is output order.**  Results come back positionally,
  regardless of worker count or completion order.
- **Parallel equals serial, byte for byte.**  Every scenario is seeded
  data (:class:`repro.api.Scenario`), every simulation builds its own
  engine, and :func:`_isolate_seeds` re-seeds the process-global RNGs from
  the scenario digest before *every* run — serial and parallel alike — so
  no result can depend on which worker ran it, what ran before it, or the
  interleaving of the pool.  ``tests/exec/test_parallel.py`` asserts
  replay-digest equality between ``jobs=1`` and ``jobs=4`` sweeps.
- **Fault tolerance.**  Work is dispatched one scenario at a time to a
  supervised worker pool (:mod:`repro.exec.resilience`): a hung scenario is
  killed at its wall-clock ``timeout`` and its worker respawned, a crashed
  worker (SIGKILL, OOM) costs only the scenario it was running — which is
  retried with deterministic backoff — and a scenario that exhausts its
  retries is either raised (:class:`~repro.exec.resilience.SweepError`,
  default) or quarantined into the failure manifest of a
  :class:`~repro.exec.resilience.SweepOutcome` (``on_error="collect"``).
  Because results are reassembled by input index and every run re-seeds
  from the scenario digest, none of this machinery can change a result.
- **Crash-safe resume.**  With ``resume=True`` (or an explicit ``journal``
  root) every completed scenario is appended to a durable sweep journal
  (:mod:`repro.exec.journal`); an interrupted sweep — Ctrl-C, SIGTERM, or a
  dead supervisor — re-executes only unjournaled scenarios on the next
  ``resume=True`` run, byte-identically.
- **Cache transparency.**  With a :class:`~repro.exec.cache.ResultCache`,
  hits are served without simulating and misses are stored as they
  complete; a cached sweep returns results equal to an uncached one.
  Sweep startup prunes the cache's stale temp-file debris.

Workers are separate processes, so the GIL never serializes simulation;
each worker imports the package fresh and receives pickled ``Scenario``
values, returning pickled ``RunResult`` values.
"""

from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.exec.resilience import (
    SweepOutcome,
    SweepPolicy,
    _inc,
    new_stats,
    resilient_map,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import RunResult, Scenario
    from repro.exec.cache import ResultCache


def _isolate_seeds(digest: str) -> None:
    """Pin the process-global RNGs to a function of the scenario digest.

    The simulator itself never draws from global RNG state (fault plans
    carry their own seeds), but user hooks or future code might; deriving
    the global seeds from the scenario — not from the worker — makes any
    such draw identical under serial, parallel, and re-ordered execution.

    NumPy's global RNG is reseeded only when ``numpy`` is already in
    ``sys.modules``: a process that never imported NumPy holds no NumPy
    state an earlier scenario could have advanced, and importing NumPy
    here would load it into every process that runs a sweep cell (each
    worker of a ``-j N`` pool too) for nothing.  A hook that draws from
    NumPy's global RNG should import NumPy before the sweep starts.
    """
    seed = int(digest[:16], 16)
    random.seed(seed)
    np = sys.modules.get("numpy")
    if np is not None:
        np.random.seed(seed % (2**32))


def _run_one(scenario: "Scenario") -> "RunResult":
    from repro.api import run

    digest = scenario.digest()
    if os.environ.get("REPRO_CHAOS_PLAN"):  # chaos harness (tests only)
        from repro.exec.chaos import maybe_inject

        maybe_inject(digest)
    _isolate_seeds(digest)
    return run(scenario)


def partition(count: int, jobs: int) -> List[List[int]]:
    """Round-robin index partition: worker ``w`` owns ``w, w+jobs, ...``.

    A pure function of ``(count, jobs)``.  The resilient executor now
    dispatches per scenario rather than per chunk (so a hung scenario
    cannot hold a whole chunk hostage), but this remains the reference
    spec for deterministic dealing and is kept as public API.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1: {jobs}")
    return [
        [i for i in range(count) if i % jobs == w]
        for w in range(min(jobs, count))
    ]


def resolve_jobs(jobs: int) -> int:
    """``jobs=0`` means "one per CPU"."""
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0: {jobs}")
    return jobs


def pmap(
    fn,
    items: Sequence[object],
    jobs: int = 1,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    on_error: str = "raise",
    progress: bool = False,
) -> Union[List[object], SweepOutcome]:
    """Order-preserving process map on the same resilient executor as
    :func:`run_sweep` (per-item dispatch, wall-clock ``timeout`` with
    hung-worker kill/respawn, bounded ``retries``, ``on_error`` quarantine).

    ``fn`` must be picklable (a module-level function); items and results
    cross process boundaries by pickle.  Used by the metamorphic harness to
    fan relation checks out across workers.  Returns a plain list under the
    default ``on_error="raise"``; with ``on_error="collect"`` returns a
    :class:`~repro.exec.resilience.SweepOutcome` whose ``results`` holds
    ``None`` at quarantined indices.  ``progress=True`` renders a live
    completed/failed/ETA line to stderr as items finish.
    """
    jobs = resolve_jobs(jobs)
    policy = SweepPolicy(
        timeout=timeout, retries=retries, backoff=backoff, on_error=on_error
    )
    tasks = [
        (index, item, "", f"item[{index}]") for index, item in enumerate(items)
    ]
    flight = None
    if progress:
        from repro.obs.flight import FlightLog, SweepProgress

        flight = FlightLog([SweepProgress()])
        flight.emit("sweep-begin", total=len(items), jobs=jobs, pending=len(items))
    try:
        by_index, failures, stats = resilient_map(
            fn, tasks, jobs=jobs, policy=policy, flight=flight
        )
        if flight is not None:
            flight.emit("sweep-end", **stats)
    except KeyboardInterrupt:
        if flight is not None:
            flight.emit("sweep-interrupted")
        raise
    finally:
        if flight is not None:
            flight.close()
    results = [by_index.get(index) for index in range(len(items))]
    if on_error == "collect":
        return SweepOutcome(results=results, failures=failures, stats=stats)
    return results


def _as_cache(cache: Union["ResultCache", str, "Path", None]):
    if cache is None:
        return None
    from repro.exec.cache import ResultCache

    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def run_sweep(
    scenarios: Sequence["Scenario"],
    jobs: int = 1,
    cache: Union["ResultCache", str, "Path", None] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.05,
    on_error: str = "raise",
    resume: bool = False,
    journal: Union[str, "Path", None] = None,
    events: Union[bool, str, "Path", None] = None,
    progress: bool = False,
    textfile: Union[str, "Path", None] = None,
    ledger: Union[bool, str, "Path", None] = None,
) -> Union[List["RunResult"], SweepOutcome]:
    """Execute a scenario batch; results in input order.

    ``jobs=1`` runs inline (no pool, no pickling) unless a ``timeout`` is
    set, which needs a killable worker process; ``jobs=0`` uses one worker
    per CPU.  ``cache`` may be a :class:`ResultCache` or a directory path;
    hits skip simulation entirely and misses are written back as they
    complete.

    Fault handling (see :class:`~repro.exec.resilience.SweepPolicy`):
    ``timeout`` bounds each scenario's wall clock, ``retries``/``backoff``
    govern transient-failure re-execution, and ``on_error="collect"``
    returns a :class:`~repro.exec.resilience.SweepOutcome` (partial results
    + failure manifest) instead of raising on the first exhausted scenario.

    ``resume=True`` journals every completed scenario to
    ``<journal or cache root>/journal/<sweep-digest>.jsonl`` and, on a
    re-run after a crash or interrupt, replays journaled results instead of
    re-executing them.  Passing ``journal`` alone (without ``resume``)
    writes the journal but replays nothing.

    Telemetry (:mod:`repro.obs.flight`) is strictly an observer — none of
    it feeds result bytes:

    - ``events`` controls the flight-recorder event log.  ``None``
      (default) records iff a journal is active, alongside it
      (``<digest>.events.jsonl``); ``True`` forces recording (under the
      journal/cache root); ``False`` disables; a path records there.
    - ``progress=True`` renders a live completed/failed/ETA line to
      stderr.
    - ``textfile`` names a Prometheus textfile refreshed mid-campaign
      from the executor's :class:`~repro.obs.registry.MetricsRegistry`.
    - ``ledger`` appends one :class:`~repro.obs.ledger.RunRecord` to the
      cross-run ledger when done (``True`` for the default location, or a
      path).
    """
    policy = SweepPolicy(
        timeout=timeout, retries=retries, backoff=backoff, on_error=on_error
    )
    store = _as_cache(cache)
    corrupt_before = 0
    if store is not None:
        store.prune()
        corrupt_before = store.corrupt
    jobs = resolve_jobs(jobs)
    stats = new_stats()

    digests = [scenario.digest() for scenario in scenarios]
    jrnl = None
    replayed = {}
    if resume or journal is not None:
        from repro.exec.journal import SweepJournal

        root = (
            Path(journal)
            if journal is not None
            else (store.root if store is not None else _default_journal_root())
        )
        jrnl = SweepJournal.for_sweep(root, digests)
        if resume:
            replayed = jrnl.replay()

    flight = _build_flight(
        events=events,
        progress=progress,
        textfile=textfile,
        jrnl=jrnl,
        store=store,
        digests=digests,
    )
    started_iso = None
    started_clock = 0.0
    if ledger:
        from repro.obs.ledger import now_iso

        started_iso = now_iso()
        started_clock = time.monotonic()

    results: List[Optional["RunResult"]] = [None] * len(scenarios)
    pending: List[Tuple[int, "Scenario", str, str]] = []
    for index, (scenario, digest) in enumerate(zip(scenarios, digests)):
        hit = store.get(scenario) if store is not None else None
        if hit is not None:
            results[index] = hit
            stats["cache_hits"] += 1
            if flight is not None:
                flight.emit("cache-hit", digest=digest, index=index)
            continue
        journaled = replayed.get(digest)
        if journaled is not None:
            results[index] = journaled
            stats["journal_replayed"] += 1
            _inc("exec_journal_replayed_total")
            if store is not None:
                store.put(scenario, journaled)
            if flight is not None:
                flight.emit("journal-replay", digest=digest, index=index)
            continue
        if flight is not None:
            flight.emit("cache-miss", digest=digest, index=index)
        pending.append(
            (index, scenario, digest, scenario.label or scenario.describe())
        )

    fidelity = _sweep_fidelity(scenarios)
    if flight is not None:
        from repro.exec.journal import sweep_digest

        flight.emit(
            "sweep-begin",
            total=len(scenarios),
            pending=len(pending),
            jobs=jobs,
            sweep_digest=sweep_digest(digests),
            resumed=bool(resume),
            fidelity=fidelity,
        )

    interrupt_after = None
    if os.environ.get("REPRO_CHAOS_PLAN"):
        from repro.exec.chaos import active_interrupt_after

        interrupt_after = active_interrupt_after()
    newly_completed = 0

    def on_result(index: int, result: "RunResult") -> None:
        nonlocal newly_completed
        results[index] = result
        if store is not None:
            store.put(scenarios[index], result)
        if jrnl is not None:
            jrnl.append_ok(digests[index], result)
        newly_completed += 1
        if interrupt_after is not None and newly_completed >= interrupt_after:
            raise KeyboardInterrupt("chaos: injected supervisor interrupt")

    def on_failure(failure) -> None:
        if jrnl is not None:
            jrnl.append_failure(failure)

    failures = []
    outcome = "ok"
    try:
        if pending:
            _, failures, stats = resilient_map(
                _run_one,
                pending,
                jobs=jobs,
                policy=policy,
                on_result=on_result,
                on_failure=on_failure,
                stats=stats,
                flight=flight,
            )
        if failures:
            outcome = "partial"
        if flight is not None:
            flight.emit("sweep-end", **stats)
    except KeyboardInterrupt:
        outcome = "interrupted"
        if flight is not None:
            flight.emit("sweep-interrupted", **stats)
        raise
    except BaseException:
        outcome = "failed"
        raise
    finally:
        if flight is not None:
            flight.close()
        if jrnl is not None:
            jrnl.close()
        if store is not None and store.corrupt > corrupt_before:
            _inc("exec_cache_corrupt_total", store.corrupt - corrupt_before)
        if ledger:
            from repro.exec.journal import sweep_digest
            from repro.obs.ledger import record_run

            record_run(
                "sweep",
                started=started_iso or "",
                wall_seconds=time.monotonic() - started_clock,
                outcome=outcome,
                sweep_digest=sweep_digest(digests),
                counts={
                    "total": len(scenarios),
                    "executed": stats.get("executed", 0),
                    "cache_hits": stats.get("cache_hits", 0),
                    "journal_replayed": stats.get("journal_replayed", 0),
                    "quarantined": len(failures),
                    "retries": stats.get("retries", 0),
                },
                summary={"fidelity": fidelity},
                ledger=None if ledger is True else ledger,
            )

    if on_error == "collect":
        return SweepOutcome(results=results, failures=failures, stats=stats)
    return results  # type: ignore[return-value]


def _sweep_fidelity(scenarios: Sequence["Scenario"]) -> str:
    """The batch's common fidelity tier, or ``"mixed"`` when scenarios
    disagree (recorded in the sweep-begin event and the run ledger so
    ``repro runs`` / ``repro tail`` show which tier produced a campaign)."""
    tiers = {getattr(s, "fidelity", "executed") for s in scenarios}
    if not tiers:
        return "executed"
    return tiers.pop() if len(tiers) == 1 else "mixed"


def _build_flight(
    *, events, progress: bool, textfile, jrnl, store, digests: Sequence[str]
):
    """Assemble the sweep's :class:`~repro.obs.flight.FlightLog`, or
    ``None`` when every telemetry surface is off (the executor's zero-cost
    fast path)."""
    if events is None:
        record = jrnl is not None
    elif isinstance(events, bool):
        record = events
    else:
        record = True
    if not (record or progress or textfile is not None):
        return None

    from repro.exec.resilience import exec_metrics
    from repro.obs.flight import (
        FlightLog,
        FlightRecorder,
        SweepProgress,
        TextfileExporter,
        events_path_for,
    )

    sinks: List[object] = []
    if record:
        if events is not None and not isinstance(events, bool):
            events_path = Path(events)
        elif jrnl is not None:
            events_path = events_path_for(jrnl.path)
        else:
            from repro.exec.journal import sweep_digest

            root = store.root if store is not None else _default_journal_root()
            events_path = events_path_for(
                Path(root) / "journal" / f"{sweep_digest(digests)}.jsonl"
            )
        sinks.append(FlightRecorder(events_path, registry=exec_metrics()))
    if progress:
        sinks.append(SweepProgress())
    if textfile is not None:
        sinks.append(TextfileExporter(textfile, exec_metrics()))
    return FlightLog(sinks)


def _default_journal_root() -> Path:
    from repro.exec.cache import default_cache_dir

    return default_cache_dir()
