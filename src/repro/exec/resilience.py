"""Fault-tolerant task execution: the supervised worker pool behind
:func:`repro.exec.run_sweep` and :func:`repro.exec.pmap`.

The original executor handed each worker one round-robin chunk via
``ProcessPoolExecutor.map``; a single hung scenario held its whole chunk
hostage forever, and a single OOM-killed worker surfaced as
``BrokenProcessPool`` with every completed result discarded.  This module
replaces that with a small supervised pool:

- **Per-task dispatch.**  Each worker runs exactly one task at a time over
  its own pipe; the supervisor reassembles results by input index, so
  completion order (and which worker ran what) can never change the output.
- **Wall-clock timeouts.**  A task that exceeds ``SweepPolicy.timeout`` gets
  its worker killed (SIGKILL) and a fresh worker spawned; the other workers
  keep draining the queue.
- **Bounded retries with deterministic backoff.**  Transient failures —
  a killed/OOM worker, a raised exception — are retried up to
  ``SweepPolicy.retries`` times with a ``backoff * 2**attempt`` delay
  schedule (the *schedule* is a pure function of the attempt number; only
  wall-clock interleaving varies, and results never depend on it).
- **Quarantine, not abort.**  With ``on_error="collect"``, a task that
  exhausts its retries becomes a structured :class:`ScenarioFailure` in the
  outcome's failure manifest while every other task completes; with the
  default ``on_error="raise"``, the first exhausted task raises
  :class:`SweepError` (completed work is still journaled by the caller).
- **Graceful interruption.**  SIGINT/SIGTERM (and the chaos harness's
  injected interrupt) stop dispatch, terminate workers, and propagate
  ``KeyboardInterrupt`` — after the caller's per-result callbacks have run,
  so a journaling caller loses nothing that finished.

Counters for every recovery action (retries, timeouts, crashes, respawns,
quarantines, journal replays) are published to a module-level
:class:`~repro.obs.registry.MetricsRegistry` (:func:`exec_metrics`) so
``repro bench`` and ``repro validate`` can surface them.

With a :class:`~repro.obs.flight.FlightLog` attached (``flight=``), every
dispatch/finish/retry/timeout/quarantine and worker crash/respawn is also
narrated to the sweep flight recorder; workers inherit the event-log path
via :data:`~repro.obs.flight.ENV_EVENT_LOG` and add their own spawn,
start, and heartbeat events.  Telemetry is strictly an observer: with
``flight=None`` (the default) each site costs one ``is not None`` guard,
and nothing the recorder does can reach a result.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.obs.registry import MetricsRegistry

#: Environment flag set inside pool worker processes.  The chaos harness
#: keys worker-only injections (crash, hang) on it so that inline (jobs=1)
#: execution never kills the caller's own process.
WORKER_ENV = "REPRO_EXEC_WORKER"

#: Stats keys every resilient execution reports (all present, zero-filled).
STAT_KEYS = (
    "executed",
    "cache_hits",
    "journal_replayed",
    "retries",
    "timeouts",
    "worker_crashes",
    "worker_respawns",
    "quarantined",
    "interrupted",
)

#: Supervisor poll granularity (seconds): the upper bound on how long the
#: supervisor sleeps between deadline/backoff checks.
_TICK = 0.25

#: Grace period for worker shutdown before escalating TERM -> KILL.
_JOIN_GRACE = 1.0

_registry = MetricsRegistry()


def exec_metrics() -> MetricsRegistry:
    """The process-wide executor metrics registry (counters cumulative over
    every sweep/pmap run in this process)."""
    return _registry


def _inc(name: str, amount: float = 1.0) -> None:
    _registry.counter(name).inc(amount)


def resilience_summary() -> Dict[str, float]:
    """Executor recovery counters as a plain dict (for reports/CLI)."""
    out: Dict[str, float] = {}
    for name in (
        "exec_scenarios_executed_total",
        "exec_retries_total",
        "exec_timeouts_total",
        "exec_worker_crashes_total",
        "exec_worker_respawns_total",
        "exec_quarantined_total",
        "exec_journal_replayed_total",
        "exec_cache_corrupt_total",
    ):
        out[name] = _registry.counter(name).total()
    return out


def format_resilience_summary() -> str:
    """One human line for CLI summaries: only the interesting counters."""
    s = resilience_summary()
    parts = [
        f"executed={s['exec_scenarios_executed_total']:.0f}",
        f"retries={s['exec_retries_total']:.0f}",
        f"timeouts={s['exec_timeouts_total']:.0f}",
        f"crashes={s['exec_worker_crashes_total']:.0f}",
        f"respawns={s['exec_worker_respawns_total']:.0f}",
        f"quarantined={s['exec_quarantined_total']:.0f}",
        f"journal-replays={s['exec_journal_replayed_total']:.0f}",
    ]
    return "executor: " + " ".join(parts)


def new_stats() -> Dict[str, int]:
    return {key: 0 for key in STAT_KEYS}


@dataclass(frozen=True)
class SweepPolicy:
    """Fault-handling knobs for one resilient execution.

    ``timeout`` is per-task wall-clock seconds (``None`` = unbounded; a
    timeout requires worker processes, so it forces the pool path even for
    ``jobs=1``).  ``retries`` bounds *re*-executions after the first attempt;
    ``backoff`` is the base of the deterministic ``backoff * 2**attempt``
    delay schedule.  ``on_error`` selects abort-on-first-failure
    (``"raise"``, the default) or quarantine-and-continue (``"collect"``).
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be positive: {self.timeout}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0: {self.retries}")
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0: {self.backoff}")
        if self.on_error not in ("raise", "collect"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'collect': {self.on_error!r}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before re-running attempt ``attempt`` (1-based): a pure
        function of the attempt number, never of timing."""
        return self.backoff * (2 ** max(0, attempt - 1))


@dataclass(frozen=True)
class ScenarioFailure:
    """One quarantined task: the failure manifest entry.

    ``kind`` is ``"error"`` (the task raised), ``"timeout"`` (exceeded the
    per-task wall clock and its worker was killed), or ``"worker-crash"``
    (the worker process died — SIGKILL, OOM, hard crash).  For
    :func:`repro.exec.pmap` tasks ``digest`` is empty and ``scenario`` is the
    item's ``repr``.
    """

    index: int
    scenario: str
    digest: str
    kind: str
    error: str
    attempts: int

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioFailure":
        extra = sorted(set(data) - {f.name for f in fields(cls)})
        if extra:
            raise ValueError(
                f"ScenarioFailure.from_dict: unknown keys {extra} — a newer "
                f"failure document cannot be parsed as this version"
            )
        return cls(**{f.name: data[f.name] for f in fields(cls)})  # type: ignore[arg-type]

    def describe(self) -> str:
        return (
            f"[{self.kind}] #{self.index} {self.scenario or self.digest[:12]}: "
            f"{self.error} (after {self.attempts} attempt(s))"
        )


class SweepError(ReproError):
    """A task exhausted its retries under ``on_error="raise"``."""

    def __init__(self, failure: ScenarioFailure) -> None:
        self.failure = failure
        super().__init__(failure.describe())


@dataclass
class SweepOutcome:
    """Partial results plus the failure manifest (``on_error="collect"``).

    ``results`` is positionally aligned with the input (``None`` at
    quarantined indices); ``failures`` lists one :class:`ScenarioFailure`
    per quarantined task; ``stats`` tallies every recovery action.
    """

    results: List[Optional[object]]
    failures: List[ScenarioFailure] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=new_stats)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def completed(self) -> List[object]:
        return [r for r in self.results if r is not None]

    def failed_indices(self) -> List[int]:
        return sorted(f.index for f in self.failures)

    def manifest(self) -> Dict[str, object]:
        """JSON-safe failure manifest."""
        return {
            "failures": [f.to_dict() for f in self.failures],
            "stats": dict(self.stats),
        }

    def to_document(self) -> Dict[str, object]:
        """The ``repro.api.result/v1`` wire document for a collected sweep:
        positionally aligned results (``null`` at quarantined indices), the
        failure manifest, and the recovery stats."""
        from repro.api.schema import build_result

        return build_result("sweep", {
            "results": [
                None if result is None else result.to_dict()
                for result in self.results
            ],
            "failures": [failure.to_dict() for failure in self.failures],
            "stats": dict(self.stats),
        })

    @classmethod
    def from_document(cls, doc: Mapping[str, object]) -> "SweepOutcome":
        """Exact inverse of :meth:`to_document` (strict: unknown keys in
        the envelope, the payload, or any embedded result raise)."""
        from repro.api import RunResult
        from repro.api.schema import SchemaError, check_keys, validate_result

        payload = validate_result(doc, kind="sweep")
        check_keys(payload, required=("results", "failures", "stats"),
                   where="sweep result payload")
        try:
            results: List[Optional[object]] = [
                None if entry is None else RunResult.from_dict(entry)
                for entry in payload["results"]  # type: ignore[union-attr]
            ]
            failures = [
                ScenarioFailure.from_dict(entry)
                for entry in payload["failures"]  # type: ignore[union-attr]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"sweep result payload: {exc}") from exc
        stats = payload["stats"]
        if not isinstance(stats, Mapping):
            raise SchemaError("sweep result stats is not a mapping")
        return cls(
            results=results,
            failures=failures,
            stats={str(k): int(v) for k, v in stats.items()},  # type: ignore[call-overload]
        )


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #


def _worker_main(conn) -> None:
    """Pool worker loop: receive ``(index, fn, item, key)``, send back
    ``(index, "ok", value)`` or ``(index, "error", message)``."""
    os.environ[WORKER_ENV] = "1"
    # The supervisor owns interruption: a Ctrl-C goes to the whole process
    # group, and workers must not die mid-protocol before the supervisor
    # drains; they are terminated explicitly during shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from repro.obs.flight import install_worker_flight

    recorder, flight_state = install_worker_flight()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        index, fn, item, key = message
        if recorder is not None:
            flight_state.begin(key)
            recorder.emit("scenario-started", digest=key, index=index)
        try:
            payload = (index, "ok", fn(item))
        except KeyboardInterrupt:  # pragma: no cover - race with shutdown
            return
        except BaseException as exc:
            payload = (index, "error", f"{type(exc).__name__}: {exc}")
        if recorder is not None:
            flight_state.finish()
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):  # supervisor went away
            return
        except BaseException as exc:  # unpicklable result
            try:
                conn.send((index, "error", f"unpicklable result: {exc}"))
            except (BrokenPipeError, OSError):
                return


# --------------------------------------------------------------------- #
# supervisor side
# --------------------------------------------------------------------- #


@dataclass
class _Task:
    index: int
    item: object
    key: str
    label: str
    attempts: int = 0
    dispatched: float = 0.0  #: monotonic stamp of the latest dispatch


class _Worker:
    __slots__ = ("proc", "conn", "task", "deadline")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[_Task] = None
        self.deadline: float = math.inf

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
        self.proc.join(_JOIN_GRACE)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """Polite stop: sentinel, short join, then escalate."""
        if self.task is None:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        self.proc.join(0.1 if self.task is not None else _JOIN_GRACE)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(_JOIN_GRACE)
        if self.proc.is_alive():  # pragma: no cover - stuck in a syscall
            self.proc.kill()
            self.proc.join(_JOIN_GRACE)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


def _raise_keyboard_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt(f"signal {signum}")


class _SigtermAsInterrupt:
    """Route SIGTERM through the same graceful drain as Ctrl-C (main thread
    only; a no-op anywhere signals cannot be installed)."""

    def __enter__(self):
        self._previous = None
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(
                    signal.SIGTERM, _raise_keyboard_interrupt
                )
            except (ValueError, OSError):  # pragma: no cover
                self._previous = None
        return self

    def __exit__(self, *exc):
        if self._previous is not None:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return False


def resilient_map(
    fn: Callable[[object], object],
    tasks: Sequence[Tuple[int, object, str, str]],
    *,
    jobs: int,
    policy: SweepPolicy,
    on_result: Optional[Callable[[int, object], None]] = None,
    on_failure: Optional[Callable[[ScenarioFailure], None]] = None,
    stats: Optional[Dict[str, int]] = None,
    flight=None,
) -> Tuple[Dict[int, object], List[ScenarioFailure], Dict[str, int]]:
    """Run ``fn`` over ``tasks`` (``(index, item, key, label)`` tuples) with
    the policy's timeout/retry/quarantine semantics.

    Returns ``(results_by_index, failures, stats)``.  ``on_result`` fires in
    completion order as each task finishes (journaling hook); ``on_failure``
    fires when a task exhausts its retries, *before* ``SweepError`` is
    raised under ``on_error="raise"``.  ``flight`` is an optional
    :class:`~repro.obs.flight.FlightLog` narrating every dispatch, finish,
    retry, and recovery action (pure observer — never touches results).
    """
    if stats is None:
        stats = new_stats()
    failures: List[ScenarioFailure] = []
    results: Dict[int, object] = {}
    queue = deque(_Task(*t) for t in tasks)

    def record_success(task: _Task, value: object) -> None:
        results[task.index] = value
        stats["executed"] += 1
        _inc("exec_scenarios_executed_total")
        if flight is not None:
            flight.emit(
                "scenario-finished",
                digest=task.key,
                index=task.index,
                attempt=task.attempts + 1,
                seconds=round(time.monotonic() - task.dispatched, 6),
            )
        if on_result is not None:
            on_result(task.index, value)

    def record_failure(task: _Task, kind: str, message: str) -> None:
        failure = ScenarioFailure(
            index=task.index,
            scenario=task.label,
            digest=task.key,
            kind=kind,
            error=message,
            attempts=task.attempts,
        )
        stats["quarantined"] += 1
        _inc("exec_quarantined_total")
        if flight is not None:
            flight.emit(
                "scenario-quarantined",
                digest=task.key,
                index=task.index,
                kind=kind,
                error=message,
                attempts=task.attempts,
            )
        if on_failure is not None:
            on_failure(failure)
        if policy.on_error == "raise":
            raise SweepError(failure)
        failures.append(failure)

    if not queue:
        return results, failures, stats

    if policy.timeout is None and (jobs == 1 or len(queue) == 1):
        _inline_map(
            fn, queue, policy, stats, record_success, record_failure, flight
        )
        return results, failures, stats

    with _SigtermAsInterrupt(), _flight_env(flight):
        try:
            _pool_map(
                fn, queue, jobs, policy, stats, record_success,
                record_failure, flight,
            )
        except KeyboardInterrupt:
            stats["interrupted"] = 1
            raise
    return results, failures, stats


class _flight_env:
    """Export the event-log path to forked workers for the duration of a
    pool run (mirrors the chaos plan's env transport)."""

    def __init__(self, flight) -> None:
        self._path = (
            str(flight.record_path)
            if flight is not None and flight.record_path is not None
            else None
        )
        self._previous: Optional[str] = None

    def __enter__(self) -> "_flight_env":
        from repro.obs.flight import ENV_EVENT_LOG

        if self._path is not None:
            self._previous = os.environ.get(ENV_EVENT_LOG)
            os.environ[ENV_EVENT_LOG] = self._path
        return self

    def __exit__(self, *exc) -> None:
        from repro.obs.flight import ENV_EVENT_LOG

        if self._path is not None:
            if self._previous is None:
                os.environ.pop(ENV_EVENT_LOG, None)
            else:
                os.environ[ENV_EVENT_LOG] = self._previous


def _inline_map(fn, queue, policy, stats, record_success, record_failure,
                flight=None):
    """Serial fast path (no pool, no pickling): same retry/quarantine
    semantics; timeouts are a pool-only feature by construction."""
    for task in queue:
        while True:
            task.dispatched = time.monotonic()
            if flight is not None:
                flight.emit(
                    "scenario-dispatched",
                    digest=task.key,
                    index=task.index,
                    attempt=task.attempts + 1,
                    worker=0,  # inline: the caller's own process
                )
            try:
                value = fn(task.item)
            except KeyboardInterrupt:
                stats["interrupted"] = 1
                raise
            except Exception as exc:
                task.attempts += 1
                message = f"{type(exc).__name__}: {exc}"
                if task.attempts <= policy.retries:
                    stats["retries"] += 1
                    _inc("exec_retries_total")
                    if flight is not None:
                        flight.emit(
                            "scenario-retried",
                            digest=task.key,
                            index=task.index,
                            attempt=task.attempts,
                            kind="error",
                            error=message,
                        )
                    time.sleep(policy.delay(task.attempts))
                    continue
                record_failure(task, "error", message)
                break
            record_success(task, value)
            break


def _pool_map(fn, queue, jobs, policy, stats, record_success, record_failure,
              flight=None):
    ctx = mp.get_context()
    num_workers = max(1, min(jobs, len(queue)))
    workers = [_Worker(ctx) for _ in range(num_workers)]
    delayed: List[Tuple[float, int, _Task]] = []  # backoff heap
    sequence = 0  # heap tiebreaker

    def respawn(worker: _Worker) -> _Worker:
        stats["worker_respawns"] += 1
        _inc("exec_worker_respawns_total")
        if flight is not None:
            # Before the replacement starts, so that its own
            # ``worker-spawn`` (which carries its pid) follows this event.
            flight.emit("worker-respawn", replaces=worker.proc.pid)
        replacement = _Worker(ctx)
        workers[workers.index(worker)] = replacement
        return replacement

    def dispatch(worker: _Worker, task: _Task) -> None:
        task.dispatched = time.monotonic()
        if flight is not None:
            flight.emit(
                "scenario-dispatched",
                digest=task.key,
                index=task.index,
                attempt=task.attempts + 1,
                worker=worker.proc.pid,
            )

    def requeue_or_fail(task: _Task, kind: str, message: str) -> None:
        task.attempts += 1
        if task.attempts <= policy.retries:
            nonlocal sequence
            stats["retries"] += 1
            _inc("exec_retries_total")
            if flight is not None:
                flight.emit(
                    "scenario-retried",
                    digest=task.key,
                    index=task.index,
                    attempt=task.attempts,
                    kind=kind,
                    error=message,
                )
            sequence += 1
            heapq.heappush(
                delayed,
                (time.monotonic() + policy.delay(task.attempts), sequence, task),
            )
        else:
            record_failure(task, kind, message)

    try:
        while queue or delayed or any(w.task is not None for w in workers):
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[2])
            # dispatch one task to each idle worker
            for worker in list(workers):
                if worker.task is not None or not queue:
                    continue
                task = queue.popleft()
                # Narrate the dispatch *before* the task goes down the pipe:
                # a fast worker's ``scenario-started`` must never land in
                # the shared log ahead of it.
                dispatch(worker, task)
                try:
                    worker.conn.send((task.index, fn, task.item, task.key))
                except (BrokenPipeError, OSError):
                    # worker died while idle: replace it and try once more
                    worker.kill()
                    stats["worker_crashes"] += 1
                    _inc("exec_worker_crashes_total")
                    worker = respawn(worker)
                    dispatch(worker, task)
                    worker.conn.send((task.index, fn, task.item, task.key))
                worker.task = task
                worker.deadline = (
                    now + policy.timeout if policy.timeout is not None else math.inf
                )
            busy = [w for w in workers if w.task is not None]
            if not busy:
                if delayed:  # everything is backing off; sleep to the next
                    time.sleep(
                        min(_TICK, max(0.0, delayed[0][0] - time.monotonic()))
                    )
                continue
            wait_timeout = _TICK
            next_deadline = min(w.deadline for w in busy)
            if next_deadline < math.inf:
                wait_timeout = min(wait_timeout, max(0.0, next_deadline - now))
            if delayed:
                wait_timeout = min(
                    wait_timeout, max(0.0, delayed[0][0] - now)
                )
            ready = mp_connection.wait(
                [w.conn for w in busy], timeout=wait_timeout
            )
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn[conn]
                task = worker.task
                if task is None:  # pragma: no cover - already handled
                    continue
                try:
                    index, status, payload = conn.recv()
                except (EOFError, OSError):
                    # the worker process died mid-task (SIGKILL, OOM, ...)
                    worker.kill()
                    stats["worker_crashes"] += 1
                    _inc("exec_worker_crashes_total")
                    if flight is not None:
                        flight.emit(
                            "worker-crash",
                            worker=worker.proc.pid,
                            digest=task.key,
                            index=task.index,
                        )
                    respawn(worker)
                    requeue_or_fail(
                        task,
                        "worker-crash",
                        f"worker died while running task #{task.index}",
                    )
                    continue
                worker.task = None
                worker.deadline = math.inf
                if status == "ok":
                    record_success(task, payload)
                else:
                    requeue_or_fail(task, "error", str(payload))
            # hung-task sweep: kill any worker past its deadline
            now = time.monotonic()
            for worker in busy:
                task = worker.task
                if task is None or now < worker.deadline:
                    continue
                worker.kill()
                stats["timeouts"] += 1
                _inc("exec_timeouts_total")
                if flight is not None:
                    flight.emit(
                        "scenario-timed-out",
                        digest=task.key,
                        index=task.index,
                        attempt=task.attempts + 1,
                        timeout=policy.timeout,
                        worker=worker.proc.pid,
                    )
                respawn(worker)
                requeue_or_fail(
                    task,
                    "timeout",
                    f"exceeded {policy.timeout:.3g}s wall-clock timeout",
                )
    finally:
        for worker in workers:
            worker.shutdown()
