"""The shared-resource primitive built on the event kernel.

:class:`Resource` is a counted resource with a FIFO request queue — a
processor node's slot pool.  It is all the Fig. 1 hierarchy needs:
local batch systems are FCFS and nodes expose plain capacity.
"""

from __future__ import annotations

from .engine import Environment
from .events import Event

__all__ = ["Request", "Release", "Resource"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager so the resource is always released::

        with resource.request() as req:
            yield req
            ... use the resource ...
    """

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.time = resource.env.now
        resource.queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Withdraw the request, releasing the slot if already granted."""
        if self in self.resource.queue:
            self.resource.queue.remove(self)
        elif self in self.resource.users:
            self.resource.release(self)


class Release(Event):
    """Event returned by :meth:`Resource.release`; triggers immediately."""

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        self.succeed()


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        #: Requests currently holding a slot.
        self.users: list[Request] = []
        #: Requests waiting for a slot, in grant order.
        self.queue: list[Request] = []

    def request(self) -> Request:
        """Claim a slot; the returned event triggers once granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Return the slot held by ``request`` to the pool."""
        if request in self.users:
            self.users.remove(request)
        self._trigger_requests()
        return Release(self, request)

    def _trigger_requests(self) -> None:
        """Grant queued requests while free slots remain."""
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()

