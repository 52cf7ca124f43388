"""The local resource manager: the bottom tier of the Fig. 1 hierarchy.

"Each task is executed on a single node and ... the local management
system interprets it as a job accompanied by a resource request."  A
:class:`LocalResourceManager` owns a group of heterogeneous nodes with
their reservation calendars and answers :class:`~repro.local.request.
ResourceRequest` queries from the job managers above it:

* a request with a ``reserved_start`` is an **advance reservation** for
  a specific window (and, optionally, a specific node);
* a request without one is granted the earliest feasible slot on the
  best admissible node (the performance floor respected).

Grants are real calendar reservations; releasing a grant frees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..core.calendar import Reservation, ReservationCalendar
from ..core.resources import ProcessorNode, ResourcePool
from .request import ResourceRequest

__all__ = ["Grant", "RequestRefused", "LocalResourceManager"]


class RequestRefused(RuntimeError):
    """No admissible node can host the request."""


@dataclass(frozen=True)
class Grant:
    """A successful allocation of one resource request."""

    request_id: str
    node_id: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        """Granted wall time."""
        return self.end - self.start


class LocalResourceManager:
    """Reservation service for one domain's processor nodes.

    Parameters
    ----------
    pool:
        The nodes this manager administers.
    calendars:
        Their reservation calendars; when omitted, fresh empty calendars
        are created (the manager then owns all state).
    """

    def __init__(self, pool: ResourcePool,
                 calendars: Optional[Mapping[int, ReservationCalendar]]
                 = None):
        if len(pool) == 0:
            raise ValueError("a local manager needs at least one node")
        self.pool = pool
        if calendars is None:
            calendars = {node.node_id: ReservationCalendar()
                         for node in pool}
        missing = [node.node_id for node in pool
                   if node.node_id not in calendars]
        if missing:
            raise ValueError(f"no calendars for nodes {missing}")
        self.calendars = dict(calendars)
        self._grants: dict[str, tuple[Grant, Reservation]] = {}

    # ------------------------------------------------------------------

    def admissible_nodes(self, request: ResourceRequest
                         ) -> list[ProcessorNode]:
        """Nodes satisfying the request's constraints, best first.

        "Best" prefers *cheaper* (slower) nodes, matching the VO's
        economics: the job manager asks for more performance explicitly
        (via ``min_performance``) when it needs it.
        """
        nodes = [node for node in self.pool if request.admits(node)]
        nodes.sort(key=lambda n: (n.price_rate, n.node_id))
        return nodes

    def handle(self, request: ResourceRequest) -> Grant:
        """Grant the request or raise :class:`RequestRefused`.

        Width > 1 is not supported here — compound-job tasks are width
        1 by construction; wider independent jobs belong to
        :class:`~repro.local.batch.LocalBatchSystem`.
        """
        if request.request_id in self._grants:
            raise ValueError(
                f"request {request.request_id!r} already granted")
        if request.width != 1:
            raise RequestRefused(
                f"local managers host single-node tasks; width "
                f"{request.width} belongs in a batch queue")

        candidates = self.admissible_nodes(request)
        required = request.attributes.get("node_id")
        if required is not None:
            # A request derived from a supporting schedule binds to its
            # planned node: the distribution's transfer lags assume it.
            candidates = [node for node in candidates
                          if node.node_id == required]
        if not candidates:
            raise RequestRefused(
                f"no node satisfies {request.request_id!r}")

        for node in candidates:
            calendar = self.calendars[node.node_id]
            if request.reserved_start is not None:
                start = request.reserved_start
                end = start + request.wall_time
                if (request.deadline is not None
                        and end > request.deadline):
                    continue
                if not calendar.is_free(start, end):
                    continue
            else:
                start = calendar.earliest_fit(
                    request.wall_time,
                    earliest=request.earliest_start,
                    deadline=request.deadline)
                if start is None:
                    continue
                end = start + request.wall_time
            reservation = calendar.reserve(start, end,
                                           tag=request.request_id)
            grant = Grant(request_id=request.request_id,
                          node_id=node.node_id, start=start, end=end)
            self._grants[request.request_id] = (grant, reservation)
            return grant
        raise RequestRefused(
            f"no admissible node has a free window for "
            f"{request.request_id!r}")

    def handle_all(self, requests: Iterable[ResourceRequest]
                   ) -> list[Grant]:
        """Grant a batch atomically: all succeed or none are kept."""
        granted: list[Grant] = []
        try:
            for request in requests:
                granted.append(self.handle(request))
        except RequestRefused:
            for grant in granted:
                self.release(grant.request_id)
            raise
        return granted

    def release(self, request_id: str) -> None:
        """Free a previous grant's reservation."""
        try:
            grant, reservation = self._grants.pop(request_id)
        except KeyError:
            raise KeyError(f"no grant for {request_id!r}") from None
        self.calendars[grant.node_id].release(reservation)

    def grant_of(self, request_id: str) -> Optional[Grant]:
        """The current grant for a request, if any."""
        entry = self._grants.get(request_id)
        return entry[0] if entry else None

    def utilization(self, start: int, end: int) -> float:
        """Mean calendar utilization across this manager's nodes."""
        values = [self.calendars[node.node_id].utilization(start, end)
                  for node in self.pool]
        return sum(values) / len(values)
