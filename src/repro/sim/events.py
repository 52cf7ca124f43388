"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (the same model as
SimPy, which is not available offline): simulation *processes* are Python
generators that ``yield`` events; the :class:`~repro.sim.engine.Environment`
resumes a process when the event it waits on is processed.

Events move through three states:

1. *pending* — created, not yet triggered;
2. *triggered* — a value (or an exception) has been set and the event has
   been placed on the environment's event queue;
3. *processed* — the environment has popped the event and invoked its
   callbacks (this is when waiting processes resume).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Initialize",
    "Process",
    "AllOf",
]


class _Pending:
    """Sentinel type for "event has no value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Unique sentinel stored in :attr:`Event._value` before the event triggers.
PENDING = _Pending()

#: Scheduling priority for internal bookkeeping events (process starts,
#: run horizons).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """A single occurrence that processes may wait for.

    Parameters
    ----------
    env:
        The environment the event lives in.  All scheduling happens through
        this environment's queue.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: When True, a failed event whose failure is never retrieved does not
        #: crash the simulation (used for condition sub-events).
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and sits in the event queue."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiting processes will have the exception thrown into them.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


class Initialize(Event):
    """Internal event that starts a :class:`Process` at creation time."""

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """Wraps a generator and drives it through the event queue.

    A process is itself an event: it triggers when the generator returns
    (successfully, with the generator's return value) or raises (failed).
    Other processes may therefore ``yield`` a process to wait for its
    completion.
    """

    def __init__(self, env: "Environment", generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        while True:
            try:
                if event._ok:
                    result = self._generator.send(event._value)
                else:
                    # The process handles (or propagates) the failure.
                    event.defused = True
                    result = self._generator.throw(
                        type(event._value), event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self.env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.defused = False
                self.env.schedule(self)
                break

            if not isinstance(result, Event):
                error = RuntimeError(
                    f"process {self._generator!r} yielded a non-event: {result!r}")
                event = Event(self.env)
                event._ok = False
                event._value = error
                event.defused = True
                continue

            if result.callbacks is not None:
                # The event has not been processed yet: subscribe and pause.
                result.callbacks.append(self._resume)
                break
            # The event was already processed: feed its outcome immediately.
            event = result


class AllOf(Event):
    """Triggers once *all* of the given events have been processed.

    The value is an ordered ``{event: value}`` dict over the events.
    If any event fails first, the condition fails with its exception.
    """

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must belong to the same environment")

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events:
            self.succeed({})

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            # Every sub-event has now been processed (a Timeout is
            # "triggered" from construction but occurs only when processed).
            self.succeed({event: event._value for event in self._events})
