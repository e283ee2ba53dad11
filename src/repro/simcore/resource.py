"""Synchronization primitives built on the event kernel.

- :class:`Resource` — counted semaphore (e.g. an exclusive NIC send engine).
- :class:`Store` — unbounded FIFO message channel for point-to-point
  pipeline transfers between rank processes.
- :class:`Barrier` — N-party rendezvous used to model synchronous collectives:
  the barrier fires when all parties have arrived, and each party may attach a
  *release delay* so participants resume only after the modelled collective
  duration has elapsed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.simcore.event import SimEvent


class Resource:
    """A counted resource; ``acquire`` returns an event granting a slot."""

    def __init__(self, engine: Any, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[SimEvent] = deque()
        self._acquire_name = f"{name}.acquire"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def try_acquire(self) -> bool:
        """Take a slot now if one is free, without an event; ``False`` (and
        nothing queued) when the resource is full."""
        if self._in_use < self.capacity:
            self._in_use += 1
            hooks = getattr(self.engine, "hooks", None)
            if hooks is not None:
                hooks.on_resource_grant(self, self.engine.now)
            return True
        return False

    def acquire(self) -> SimEvent:
        """Request a slot.  The returned event fires when the slot is granted."""
        ev = SimEvent(self.engine, self._acquire_name)
        if self.try_acquire():
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot; hands it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        hooks = getattr(self.engine, "hooks", None)
        if hooks is not None:
            hooks.on_resource_release(self, self.engine.now)
        if self._waiters:
            waiter = self._waiters.popleft()
            if hooks is not None:
                hooks.on_resource_grant(self, self.engine.now)
            waiter.succeed(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO channel: ``put`` items, ``get`` returns an event."""

    def __init__(self, engine: Any, name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        """Request an item; the event fires with the item when available."""
        ev = SimEvent(self.engine, self.name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class Barrier:
    """N-party rendezvous with per-arrival release delays.

    Used to model synchronous collectives: every participant calls
    :meth:`arrive` and waits on the returned event.  Once all ``parties``
    have arrived, the barrier computes the collective's duration by calling
    ``duration_fn(arrival_times)`` (a single shared value), and every
    participant's event fires at ``last_arrival + duration``.

    The barrier auto-resets for reuse in subsequent iterations.
    """

    def __init__(
        self,
        engine: Any,
        parties: int,
        duration_fn: Optional[Callable[[List[float]], float]] = None,
        name: str = "barrier",
    ) -> None:
        if parties < 1:
            raise SimulationError(f"barrier needs >= 1 party, got {parties}")
        self.engine = engine
        self.parties = parties
        self.name = name
        self.duration_fn = duration_fn or (lambda arrivals: 0.0)
        self._arrivals: List[float] = []
        self._events: List[SimEvent] = []
        self._generation = 0
        #: history of (last_arrival_time, duration) per completed round
        self.completions: List[Dict[str, float]] = []

    def arrive(self) -> SimEvent:
        """Register arrival of one party; returns the release event."""
        if len(self._arrivals) >= self.parties:
            raise SimulationError(
                f"barrier {self.name!r}: more arrivals than parties "
                f"({self.parties}) in generation {self._generation}"
            )
        ev = self.engine.event(name=f"{self.name}.gen{self._generation}")
        self._arrivals.append(self.engine.now)
        self._events.append(ev)
        if len(self._arrivals) == self.parties:
            self._release()
        return ev

    def _release(self) -> None:
        arrivals, self._arrivals = self._arrivals, []
        events, self._events = self._events, []
        self._generation += 1
        duration = float(self.duration_fn(arrivals))
        if duration < 0:
            raise SimulationError(
                f"barrier {self.name!r} duration_fn returned negative {duration}"
            )
        start = max(arrivals)
        release_time = start + duration
        self.completions.append(
            {"start": start, "duration": duration, "skew": start - min(arrivals)}
        )
        for ev in events:
            self.engine._schedule_at(release_time, self._make_succeed(ev, duration))

    @staticmethod
    def _make_succeed(ev: SimEvent, value: Any) -> Callable[[], None]:
        return lambda: ev.succeed(value)
