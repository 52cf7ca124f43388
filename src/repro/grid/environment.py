"""The Grid environment: node calendars, background load, commitment.

This is the shared state the job-flow level plans against: one
reservation calendar per processor node, pre-loaded with *background
load* — reservations of independent job flows outside the virtual
organization's control (Section 4 builds application-level schedules
"for available resources non-assigned to other independent jobs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.calendar import ReservationCalendar, ReservationConflict
from ..core.resources import NodeGroup, ResourcePool
from ..core.schedule import Distribution

__all__ = ["BackgroundEvent", "GridEnvironment"]


@dataclass(frozen=True)
class BackgroundEvent:
    """A background reservation arriving *after* planning (drift).

    These events invalidate supporting schedules over time and drive the
    strategy time-to-live measurements of Fig. 4c.
    """

    arrival: int
    node_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"empty or inverted interval [{self.start}, {self.end})")
        if self.arrival < 0:
            raise ValueError(
                f"arrival must be non-negative, got {self.arrival}")


class GridEnvironment:
    """Mutable resource state of the distributed environment."""

    def __init__(self, pool: ResourcePool):
        self.pool = pool
        self.calendars: dict[int, ReservationCalendar] = {
            node.node_id: ReservationCalendar() for node in pool}

    # ------------------------------------------------------------------
    # Planning interface
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[int, ReservationCalendar]:
        """Independent calendar copies for what-if scheduling."""
        return {node_id: calendar.copy()
                for node_id, calendar in self.calendars.items()}

    def epochs(self) -> dict[int, int]:
        """The pool-level epoch vector: each node's calendar version.

        Copy-on-write snapshots share versions with these calendars, so
        any result computed from a snapshot can be tagged with the
        versions it read and revalidated later in O(nodes touched) —
        a node whose version is unchanged is guaranteed byte-identical.
        """
        return {node_id: calendar.version
                for node_id, calendar in self.calendars.items()}

    def epoch_slice(self, node_ids: Sequence[int]) -> tuple[int, ...]:
        """Versions of a subset of nodes (e.g. one domain), in order."""
        return tuple(self.calendars[node_id].version for node_id in node_ids)

    def commit_distribution(self, distribution: Distribution) -> None:
        """Book every placement of a distribution (all-or-nothing)."""
        booked = []
        try:
            for placement in distribution:
                calendar = self.calendars[placement.node_id]
                reservation = calendar.reserve(
                    placement.start, placement.end,
                    tag=f"{distribution.job_id}:{placement.task_id}")
                booked.append((calendar, reservation))
        except ReservationConflict:
            for calendar, reservation in booked:
                calendar.release(reservation)
            raise

    def can_commit(self, distribution: Distribution) -> bool:
        """True if every placement's slot is currently free."""
        return all(
            self.calendars[p.node_id].is_free(p.start, p.end)
            for p in distribution)

    def release_job(self, job_id: str) -> int:
        """Drop every reservation of one job; returns the count.

        One :meth:`~repro.core.calendar.ReservationCalendar.
        release_prefix` pass per calendar — releasing a k-task job from
        an n-reservation calendar costs O(n), not O(k * n).
        """
        prefix = f"{job_id}:"
        return sum(calendar.release_prefix(prefix)
                   for calendar in self.calendars.values())

    # ------------------------------------------------------------------
    # Background load
    # ------------------------------------------------------------------

    def apply_background_load(self, rng: np.random.Generator,
                              busy_fraction: float, horizon: int,
                              max_burst: int = 6,
                              tag: str = "background") -> int:
        """Pre-occupy each node to roughly ``busy_fraction`` utilization.

        Walks each node's timeline in bursts of 1..max_burst slots,
        reserving a burst with probability ``busy_fraction`` — the
        stationary utilization then approximates the target.  Returns
        the number of reservations created.
        """
        if not 0 <= busy_fraction < 1:
            raise ValueError(
                f"busy_fraction must lie in [0, 1), got {busy_fraction}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        created = 0
        for node in self.pool:
            calendar = self.calendars[node.node_id]
            cursor = 0
            while cursor < horizon:
                burst = int(rng.integers(1, max_burst + 1))
                if rng.random() < busy_fraction:
                    end = min(cursor + burst, horizon)
                    calendar.reserve(cursor, end, tag=tag)
                    created += 1
                cursor += burst
        return created

    def sample_background_events(self, rng: np.random.Generator,
                                 rate: float, horizon: int,
                                 max_burst: int = 6,
                                 performance_weighted: bool = True
                                 ) -> list[BackgroundEvent]:
        """Drift: new background reservations arriving over ``[0, horizon)``.

        ``rate`` is the expected number of events per slot across the
        whole pool.  With ``performance_weighted`` (the default) demand
        concentrates on fast nodes — independent flows also want the
        best resources — which is what erodes tight high-performance
        schedules first.  Sorted by arrival.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        count = rng.poisson(rate * horizon)
        node_ids = [node.node_id for node in self.pool]
        if performance_weighted:
            weights = np.array([node.performance for node in self.pool])
            probabilities = weights / weights.sum()
        else:
            probabilities = None
        events: list[BackgroundEvent] = []
        for _ in range(count):
            arrival = int(rng.integers(0, horizon))
            node_id = int(rng.choice(node_ids, p=probabilities))
            burst = int(rng.integers(1, max_burst + 1))
            start = int(rng.integers(arrival, arrival + horizon))
            events.append(BackgroundEvent(arrival, node_id, start,
                                          start + burst))
        events.sort(key=lambda e: (e.arrival, e.node_id, e.start))
        return events

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def utilization_by_group(self, start: int, end: int
                             ) -> dict[NodeGroup, float]:
        """Average node load level per performance group.

        Counts every reservation, background load included; Fig. 4a's
        load row reads :meth:`utilization_by_group_tagged` instead.
        """
        sums: dict[NodeGroup, list[float]] = {group: [] for group in NodeGroup}
        for node in self.pool:
            sums[node.group].append(
                self.calendars[node.node_id].utilization(start, end))
        return {
            group: (sum(values) / len(values) if values else 0.0)
            for group, values in sums.items()
        }

    def utilization_by_group_tagged(self, start: int, end: int,
                                    exclude_tag: str = "background"
                                    ) -> dict[NodeGroup, float]:
        """Load level per group counting only job reservations.

        Background reservations (tag == ``exclude_tag``) are excluded so
        the metric reflects where the *strategies* placed their tasks.
        """
        sums: dict[NodeGroup, list[float]] = {group: [] for group in NodeGroup}
        width = end - start
        if width <= 0:
            raise ValueError(f"empty window [{start}, {end})")
        for node in self.pool:
            busy = 0
            for reservation in self.calendars[node.node_id].conflicts(
                    start, end):
                if reservation.tag == exclude_tag:
                    continue
                busy += (min(reservation.end, end)
                         - max(reservation.start, start))
            sums[node.group].append(busy / width)
        return {
            group: (sum(values) / len(values) if values else 0.0)
            for group, values in sums.items()
        }
