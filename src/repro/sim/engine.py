"""The discrete-event simulation environment.

:class:`Environment` owns the event queue (a binary heap keyed on
``(time, priority, sequence)``) and the simulation clock.  Processes are
plain Python generators registered via :meth:`Environment.process`: a
process runs until it yields an event, and resumes with the event's
value once the clock reaches it.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick, ticks):
...     for _ in range(ticks):
...         log.append((name, env.now))
...         yield env.timeout(tick)
>>> _ = env.process(clock(env, "fast", 1, 4))
>>> _ = env.process(clock(env, "slow", 2, 2))
>>> env.run()
>>> log
[('fast', 0), ('slow', 0), ('fast', 1), ('slow', 2), ('fast', 2), ('fast', 3)]
>>> env.now
4
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

__all__ = ["Environment", "Event", "Process"]

#: A process starts before ordinary events at the same instant.
_URGENT = 0
_NORMAL = 1


class Event:
    """One instant on the clock; its callbacks run when it is processed.

    A process waits on an event by yielding it before it is processed.
    """

    __slots__ = ("callbacks", "value")

    def __init__(self, value: Any = None):
        self.callbacks: list[Callable[[Event], None]] = []
        self.value = value


class Process:
    """Drives a generator through the event queue, one yield at a time."""

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any]):
        self._generator = generator
        start = Event()
        start.callbacks.append(self._resume)
        env.schedule(start, priority=_URGENT)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration:
            return
        if not isinstance(target, Event):
            raise RuntimeError(f"process yielded a non-event: {target!r}")
        target.callbacks.append(self._resume)


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

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Register ``generator`` as a new simulation process."""
        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Return an event that occurs ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(value)
        self.schedule(event, delay=delay)
        return event

    def schedule(self, event: Event, priority: int = _NORMAL,
                 delay: float = 0) -> None:
        """Put ``event`` on the queue ``delay`` time units from now."""
        heapq.heappush(self._queue,
                       (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def step(self) -> None:
        """Process the next event; raises IndexError when none is left.

        An exception raised by a process propagates out of here, and so
        out of :meth:`run`.
        """
        self._now, _, _, event = heapq.heappop(self._queue)
        for callback in event.callbacks:
            callback(event)

    def run(self) -> None:
        """Run the simulation until the event queue is exhausted."""
        while self._queue:
            self.step()
