"""The discrete-event simulation engine.

:class:`SimEngine` owns virtual time and a priority queue of scheduled
thunks.  It is deliberately minimal: determinism comes from a monotonically
increasing tiebreaker sequence, so two thunks scheduled at the same instant
run in scheduling order.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simcore.event import SimEvent
from repro.simcore.process import Process


class SimEngine:
    """Owns the event queue and virtual clock for one simulation run.

    ``hooks`` is an optional :class:`repro.validate.ValidationHooks` — when
    set, the run loop reports every dispatched event so the sanitizer can
    assert that virtual time never moves backwards.  Primitives built on the
    engine (:class:`~repro.simcore.resource.Resource`) pick the same object
    up via ``engine.hooks``.
    """

    def __init__(self, hooks: Optional[Any] = None) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = count()
        self._running = False
        self._steps = 0
        #: depth of :meth:`start` calls running a process inside an event
        self._inline = 0
        self.hooks = hooks

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Number of thunks executed so far (useful for runaway detection)."""
        return self._steps

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending event bound to this engine."""
        return SimEvent(self, name)

    def timeout_event(self, delay: float, value: Any = None, name: str = "") -> SimEvent:
        """Create an event that fires ``delay`` seconds from now."""
        ev = SimEvent(self, name or "timeout")
        self._schedule_at(self._now + delay, lambda: ev.succeed(value))
        return ev

    def process(self, generator: Generator, name: str = "proc") -> Process:
        """Spawn ``generator`` as a process; it starts at the current time."""
        proc = Process(self, generator, name=name)
        self._schedule_at(self._now, proc._step)
        return proc

    def start(self, generator: Generator, name: str = "proc") -> Process:
        """Spawn ``generator`` and run it to its first yield *inside the
        current event* — as if the caller had ``yield from``-ed it — rather
        than from a fresh event at the current time like :meth:`process`."""
        proc = Process(self, generator, name=name)
        self._inline += 1
        try:
            proc._step()
        finally:
            self._inline -= 1
        return proc

    def quiet(self) -> bool:
        """Whether a process running as its own event may go on at once
        where it would wait for a zero-delay resume event: no other event
        is queued at the current instant and no :meth:`start` is running.
        The resume event would then have been the very next one, so going
        on at once schedules everything in the same order relative to
        every other event — only the step count differs."""
        queue = self._queue
        return not self._inline and (not queue or queue[0][0] > self._now)

    def call_at(self, when: float, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` at absolute virtual time ``when`` (>= now).  Unlike
        a ``Timeout`` relative to now, the event time is ``when`` exactly."""
        self._schedule_at(when, thunk)

    def _schedule_at(self, when: float, thunk: Callable[[], None]) -> None:
        if when < self._now - 1e-15:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self._now}"
            )
        heapq.heappush(self._queue, (when, next(self._sequence), thunk))

    def run(self, until: Optional[float] = None, max_steps: int = 50_000_000) -> float:
        """Drain the event queue; returns the final virtual time.

        ``until`` bounds virtual time; ``max_steps`` bounds work to catch
        accidental infinite event loops in model code.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        hooks = self.hooks
        try:
            if until is None and hooks is None:
                # Tight variant of the loop below for the common case (no
                # deadline, no sanitizer): pop directly, skip the per-step
                # peek and the dead branches.  Semantics are identical.
                while queue:
                    when, _, thunk = heappop(queue)
                    self._now = when
                    self._steps = steps = self._steps + 1
                    if steps > max_steps:
                        raise SimulationError(
                            f"simulation exceeded {max_steps} steps; "
                            "likely a livelock in process logic"
                        )
                    thunk()
            else:
                while queue:
                    when, _, thunk = queue[0]
                    if until is not None and when > until:
                        self._now = until
                        break
                    heappop(queue)
                    if hooks is not None:
                        hooks.on_engine_step(when, self._now)
                    self._now = when
                    self._steps = steps = self._steps + 1
                    if steps > max_steps:
                        raise SimulationError(
                            f"simulation exceeded {max_steps} steps; "
                            "likely a livelock in process logic"
                        )
                    thunk()
        finally:
            self._running = False
        return self._now

    def run_process(self, generator: Generator, name: str = "main") -> Any:
        """Convenience: spawn a process, run to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        if proc.alive:
            raise SimulationError(
                f"process {name!r} did not finish: deadlock "
                "(waiting on an event nobody fires?)"
            )
        return proc.done.value
