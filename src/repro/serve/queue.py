"""Multi-tenant priority job queue for the serve daemon.

Admission control and ordering live here, independent of HTTP and of the
runner threads:

- **Priority** within a tenant: lower ``priority`` runs first; ties break
  by admission order (a global monotone sequence number), so the queue is
  deterministic for a given submission order.
- **Fairness** across tenants: dequeue round-robins over tenants with
  queued work, starting after the tenant served last — one chatty tenant
  cannot starve the others no matter how many jobs it stacks up.
- **Shedding**: a full total backlog raises :class:`BacklogFull`, a
  tenant over its queued-job quota raises :class:`QuotaExceeded` — the
  HTTP layer maps both to ``429``.

All methods are thread-safe; :meth:`JobQueue.take` blocks runner threads
until work arrives or the queue is closed.  The queue also counts the jobs
taken but not yet :meth:`~JobQueue.done`, so :meth:`JobQueue.wait_idle`
can block until no job is queued or running without polling.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


class QueueRejection(ReproError):
    """Base of the two admission-control rejections (HTTP 429)."""


class BacklogFull(QueueRejection):
    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(f"backlog full: {limit} jobs queued service-wide")


class QuotaExceeded(QueueRejection):
    def __init__(self, tenant: str, limit: int) -> None:
        self.tenant = tenant
        self.limit = limit
        super().__init__(f"tenant {tenant!r} already has {limit} jobs queued")


@dataclass
class Job:
    """One admitted request, from admission to result document.

    ``scenarios``/``options`` are the validated request payload;
    ``document`` is the ``repro.api.result/v1`` document once ``state``
    is ``done`` (or the error payload when ``failed``).  ``stats`` is the
    flight-recorder reduction of the job's own event log (cache hits,
    executed cells, ...) — the per-tenant accounting source.
    """

    id: str
    tenant: str
    kind: str  # "run" | "sweep" | "plan"
    scenarios: List[object]
    options: Dict[str, object]
    priority: int = 0
    submitted: str = ""
    seq: int = 0
    state: str = "queued"
    started: str = ""
    finished: str = ""
    error: str = ""
    events_path: str = ""
    document: Optional[Dict[str, object]] = None
    stats: Dict[str, int] = field(default_factory=dict)
    #: set when the job reaches a terminal state (done/failed); for sync
    #: callers — async waiters register with :meth:`add_done_callback`
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False)
    _callbacks: List[Callable[["Job"], None]] = field(
        default_factory=list, init=False, repr=False, compare=False)

    def add_done_callback(self, callback: Callable[["Job"], None]) -> None:
        """Call ``callback(job)`` once the job is terminal: from the thread
        that calls :meth:`finish`, or at once if the job already finished.

        Registration and :meth:`finish` share the job's lock, so a job
        that finishes between a caller's check and its registration still
        calls back.  Callbacks run in the runner thread and must not
        raise."""
        with self._lock:
            if not self.done_event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def remove_done_callback(self, callback: Callable[["Job"], None]) -> None:
        """Deregister a waiter that gave up (timed out, cancelled)."""
        with self._lock:
            if callback in self._callbacks:
                self._callbacks.remove(callback)

    def finish(self) -> None:
        """Mark the job terminal: set :attr:`done_event`, then run (once)
        every registered callback."""
        with self._lock:
            self.done_event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def status_document(self) -> Dict[str, object]:
        """The ``/v1/jobs/<id>`` wire document (pure JSON)."""
        doc: Dict[str, object] = {
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "scenarios": len(self.scenarios),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "stats": dict(self.stats),
        }
        if self.error:
            doc["error"] = self.error
        if self.document is not None:
            doc["result"] = self.document
        return doc


class JobQueue:
    """Bounded, fair, per-tenant priority queue (see module docstring)."""

    def __init__(self, *, max_backlog: int = 64, tenant_quota: int = 16) -> None:
        if max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1: {max_backlog}")
        if tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1: {tenant_quota}")
        self.max_backlog = max_backlog
        self.tenant_quota = tenant_quota
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._heaps: Dict[str, List] = {}
        #: round-robin order: tenants rotate to the back when served
        self._rotation: List[str] = []
        self._seq = itertools.count()
        self._size = 0
        #: jobs handed out by take() and not yet done()
        self._in_flight = 0
        self._idle = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def submit(self, job: Job) -> Job:
        """Admit a job or raise :class:`BacklogFull` / :class:`QuotaExceeded`."""
        with self._lock:
            if self._closed:
                raise QueueRejection("queue is closed (service draining)")
            if self._size >= self.max_backlog:
                raise BacklogFull(self.max_backlog)
            heap = self._heaps.get(job.tenant)
            if heap is not None and len(heap) >= self.tenant_quota:
                raise QuotaExceeded(job.tenant, self.tenant_quota)
            job.seq = next(self._seq)
            if heap is None:
                heap = self._heaps[job.tenant] = []
                self._rotation.append(job.tenant)
            heapq.heappush(heap, (job.priority, job.seq, job))
            self._size += 1
            self._available.notify()
            return job

    # ------------------------------------------------------------------ #
    # dequeue
    # ------------------------------------------------------------------ #

    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next job fairly; block up to ``timeout`` seconds
        (``None``: until work arrives or the queue closes).

        Returns ``None`` on timeout or when the queue is closed and empty.
        A returned job counts as in flight until :meth:`done`.
        """
        with self._lock:
            self._available.wait_for(lambda: self._size or self._closed,
                                     timeout)
            if self._size == 0:
                return None
            # Round-robin: serve the first tenant (in rotation order) with
            # queued work, then rotate it to the back.
            for offset, tenant in enumerate(self._rotation):
                heap = self._heaps.get(tenant)
                if heap:
                    _, _, job = heapq.heappop(heap)
                    self._size -= 1
                    self._in_flight += 1
                    self._rotation.append(self._rotation.pop(offset))
                    return job
            return None  # pragma: no cover - size/heap invariant

    def done(self, job: Job) -> None:
        """A job from :meth:`take` has finished executing."""
        with self._lock:
            self._in_flight -= 1
            if self._size == 0 and self._in_flight == 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or in flight; ``False`` if
        ``timeout`` seconds pass first."""
        with self._lock:
            return self._idle.wait_for(
                lambda: self._size == 0 and self._in_flight == 0, timeout)

    # ------------------------------------------------------------------ #
    # introspection / shutdown
    # ------------------------------------------------------------------ #

    def depth(self) -> int:
        with self._lock:
            return self._size

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def tenant_depths(self) -> Dict[str, int]:
        with self._lock:
            return {t: len(h) for t, h in self._heaps.items() if h}

    def close(self) -> None:
        """Stop admitting; wake every blocked :meth:`take`."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed


__all__ = [
    "BacklogFull",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "QueueRejection",
    "QuotaExceeded",
]
