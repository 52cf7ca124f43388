"""The discrete-event simulation environment.

:class:`Environment` owns the event queue (a binary heap keyed on
``(time, priority, sequence)``) and the simulation clock.  Processes are
plain Python generators registered via :meth:`Environment.process`.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         log.append((name, env.now))
...         yield env.timeout(tick)
>>> _ = env.process(clock(env, "fast", 1))
>>> _ = env.process(clock(env, "slow", 2))
>>> env.run(until=4)
>>> log
[('fast', 0), ('slow', 0), ('fast', 1), ('slow', 2), ('fast', 2), ('fast', 3)]
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional, Union

from .events import NORMAL, URGENT, AllOf, Event, Process, Timeout

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Internal exception that ends :meth:`Environment.run` at an event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that stops the simulation with the event's value."""
        if event._ok:
            raise cls(event._value)
        raise event._value


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        The starting value of the simulation clock (default ``0``).
    """

    def __init__(self, initial_time: float = 0):
        self._now = initial_time
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._now

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Register ``generator`` as a new simulation process."""
        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that triggers after ``delay`` time units."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh, untriggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Return an event that triggers when all of ``events`` have."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0) -> None:
        """Put ``event`` on the queue ``delay`` time units from now."""
        heapq.heappush(self._queue,
                       (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def step(self) -> None:
        """Process the next event in the queue.

        Raises
        ------
        EmptySchedule
            If the queue is empty.
        """
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # An unhandled failure crashes the simulation, mirroring an
            # uncaught exception in sequential code.
            exc = event._value
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue is exhausted;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event is processed and return its value.
        """
        at: Optional[Event]
        if until is None:
            at = None
        elif isinstance(until, Event):
            at = until
            if at.callbacks is None:
                # Already processed: nothing to run.
                return at.value if at._ok else None
            at.callbacks.append(StopSimulation.callback)
        else:
            horizon = float(until)
            if horizon <= self._now:
                raise ValueError(
                    f"until ({horizon}) must be greater than now ({self._now})")
            at = Event(self)
            at._ok = True
            at._value = None
            # URGENT priority stops the run *before* any ordinary event
            # scheduled exactly at the horizon is processed.
            self.schedule(at, priority=URGENT, delay=horizon - self._now)
            at.callbacks.append(StopSimulation.callback)

        try:
            while True:
                self.step()
        except StopSimulation as exc:
            return exc.args[0]
        except EmptySchedule:
            if at is not None and not at.triggered:
                raise RuntimeError(
                    f"no scheduled events left but {at!r} was not triggered")
        return None
