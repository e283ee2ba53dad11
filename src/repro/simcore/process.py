"""Generator-based simulation processes and the commands they may yield.

A process body is a generator function.  Each ``yield`` hands a *command* to
the engine:

``Timeout(delay)``
    Suspend for ``delay`` seconds of virtual time.
``Wait(event)``
    Suspend until ``event`` fires; the yield expression evaluates to the
    event's value.
``AllOf(events)`` / ``AnyOf(events)``
    Suspend until all (resp. any) of the given events fire.
``SimEvent``
    Bare events may be yielded directly (sugar for ``Wait(event)``).
``Process``
    Yielding another process waits for its completion (a *join*).

Processes themselves expose a ``done`` :class:`SimEvent` that fires with the
generator's return value, enabling fork/join patterns.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Iterable

from repro.errors import SimulationError
from repro.simcore.event import Condition, SimEvent


class Command:
    """Base class for commands yielded by process generators."""

    __slots__ = ()


class Timeout(Command):
    """Suspend the yielding process for ``delay`` seconds of virtual time."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class Wait(Command):
    """Suspend until a single event fires."""

    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.event = event


class AllOf(Command):
    """Suspend until *all* events in the collection fire."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]) -> None:
        self.events = list(events)


class AnyOf(Command):
    """Suspend until *any one* event in the collection fires."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]) -> None:
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")


class Process:
    """A running simulation process wrapping a generator.

    The engine steps the generator, interpreting each yielded command.  When
    the generator returns, :attr:`done` fires with its return value.

    A suspended process has exactly one resume pending, so it resumes
    through two bound methods made once per process — ``_resume`` (the
    queued thunk) and ``_wake`` (the callback an awaited event calls) —
    with the value to send in through ``_value``, rather than through a
    new closure per ``Timeout``, ``Wait`` or event.
    """

    __slots__ = (
        "engine", "name", "generator", "done", "_alive", "_value", "_resume",
        "_wake",
    )

    def __init__(self, engine: Any, generator: Generator, name: str = "proc") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.engine = engine
        self.name = name
        self.generator = generator
        self.done: SimEvent = SimEvent(engine, name=f"{name}.done")
        self._alive = True
        #: the value the pending resume sends into the generator
        self._value: Any = None
        self._resume: Any = self._resume_pending
        self._wake: Any = self._wake_on

    @property
    def alive(self) -> bool:
        """Whether the process generator has not yet finished."""
        return self._alive

    def _step(self, send_value: Any = None) -> None:
        """Advance the generator one yield, interpreting the command."""
        try:
            command = self.generator.send(send_value)
        except StopIteration as stop:
            self._alive = False
            # nothing resumes a finished process: drop the bound methods so
            # the process is freed without waiting for the cycle collector
            self._resume = self._wake = None
            self.done.succeed(stop.value)
            return
        self._dispatch(command)

    def _resume_pending(self) -> None:
        value, self._value = self._value, None
        self._step(value)

    def _wake_on(self, ev: SimEvent) -> None:
        """Resume via the event queue so callbacks never re-enter generators."""
        self._value = ev._value
        engine = self.engine
        heappush(engine._queue, (engine._now, next(engine._sequence), self._resume))

    def _dispatch(self, command: Any) -> None:
        # exact classes first: these three are nearly every command
        cls = command.__class__
        if cls is Timeout or (
            cls is not Wait and cls is not SimEvent and isinstance(command, Timeout)
        ):
            self._value = command.value
            engine = self.engine
            # a Timeout's delay is never negative: no past-time check needed
            heappush(
                engine._queue,
                (engine._now + command.delay, next(engine._sequence), self._resume),
            )
        elif cls is Wait:
            command.event.add_callback(self._wake)
        elif cls is SimEvent:
            command.add_callback(self._wake)
        else:
            self._event_of(command).add_callback(self._wake)

    def _event_of(self, command: Any) -> SimEvent:
        """The event a rarer command (or a subclass) waits on."""
        if isinstance(command, Wait):
            return command.event
        if isinstance(command, SimEvent):
            return command
        if isinstance(command, Process):
            return command.done
        if isinstance(command, AllOf):
            return Condition(self.engine, command.events, name=f"{self.name}.allof")
        if isinstance(command, AnyOf):
            return Condition(
                self.engine, command.events, wait_count=1, name=f"{self.name}.anyof"
            )
        raise SimulationError(
            f"process {self.name!r} yielded unsupported command: {command!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
