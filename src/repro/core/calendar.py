"""Reservation calendars: per-node busy intervals and advance reservations.

A local batch-job management system interprets each task as a job with a
wall-time resource reservation ``[Start, End)``.  The calendar tracks those
reservations, answers availability queries, and supports the what-if
copies the application-level scheduler uses while building supporting
schedules.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from ..perf import PERF

__all__ = ["Reservation", "ReservationConflict", "ReservationCalendar",
           "GapTable", "GAP_HORIZON", "FitWitnesses"]

#: Sentinel end of a calendar's last (unbounded) gap.  Far beyond any
#: realistic slot value, yet small enough that gap arithmetic stays
#: inside int64.
GAP_HORIZON = 1 << 40

#: Process-global version clock shared by every calendar.  Each mutation
#: draws a fresh tick, so a version value identifies one concrete
#: reservation content: two calendars reporting the same ``version`` are
#: guaranteed to hold identical reservations (they share an unmutated
#: copy-on-write lineage).  Cached query results keyed on
#: ``(node, version, ...)`` are therefore exact and invalidate in
#: O(nodes touched) — a mutated node simply stops matching its old keys.
_VERSION_CLOCK = itertools.count(1)

#: Interval-witness bucket for one ``(duration, deadline)`` query shape:
#: parallel sorted lists of probed ``earliest`` slots and the answers
#: (None: no fit) — see :meth:`ReservationCalendar.fit_witnesses`.
FitWitnesses = tuple[list[int], list[Optional[int]]]

#: Sort key for end-based bisection (ends are sorted too: reservations
#: are disjoint and start-sorted, so ``end_i <= start_{i+1} < end_{i+1}``).
_BY_END = operator.attrgetter("end")


class ReservationConflict(RuntimeError):
    """Attempted to reserve a slot overlapping an existing reservation."""


@dataclass(frozen=True)
class GapTable:
    """Structure-of-arrays view of one calendar's free gaps.

    Gap ``k`` is the half-open free interval ``[gap_start[k],
    gap_start[k] + gap_len[k])``; gaps are sorted and cover everything
    the reservations do not.  The first gap opens at ``-GAP_HORIZON``
    (a query never starts earlier) and the last gap ends at
    :data:`GAP_HORIZON` (the calendar is free forever past its last
    reservation), so every probe lands in exactly one gap.  Adjacent
    reservations produce zero-length gaps — kept, so gap index
    arithmetic stays aligned with the reservation list.

    The table is immutable and tagged with the calendar's content
    ``version``: equal versions guarantee identical reservations, so a
    table can be cached per version and shared by every copy-on-write
    clone of the calendar (see :meth:`repro.core.context.
    SchedulingContext.gap_table`).
    """

    version: int
    #: Sorted gap starts (int64); ``gap_start[0] == -GAP_HORIZON``.
    gap_start: np.ndarray
    #: Gap lengths (int64); zero for back-to-back reservations.
    gap_len: np.ndarray
    #: ``gap_start + gap_len``, precomputed;
    #: ``gap_end[-1] == GAP_HORIZON``.
    gap_end: np.ndarray
    #: End of the last reservation (0 when empty) — lets callers
    #: reproduce the scalar API's implied horizon for open deadlines.
    last_end: int


@dataclass(frozen=True)
class Reservation:
    """One wall-time reservation ``[start, end)`` on a node.

    ``tag`` identifies the owner (job id, task id, "background", ...).
    """

    start: int
    end: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"empty or inverted interval [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        """Reserved wall time (the paper's real load time ``T_i``)."""
        return self.end - self.start

    def overlaps(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` intersects this reservation."""
        return self.start < end and start < self.end


class ReservationCalendar:
    """Sorted, non-overlapping reservations for a single node.

    What-if copies (:meth:`copy`) are copy-on-write: the clone shares
    the underlying lists until either side mutates, so snapshotting a
    large calendar that is then only queried costs O(1).  Each content
    version also owns the :meth:`fit_witnesses` store, shared by the
    clones of that version and replaced by every mutation.
    """

    def __init__(self, reservations: Iterable[Reservation] = ()):
        self._reservations: list[Reservation] = []
        self._starts: list[int] = []
        self._shared = False
        self._new_version()
        for reservation in sorted(reservations, key=lambda r: r.start):
            self.reserve(reservation.start, reservation.end, reservation.tag)

    def _new_version(self) -> None:
        """Move to a fresh content version with an empty witness store.

        Construction and every mutation land here, so a witness store
        never outlives the content it was computed on: the clones of one
        version share it, and refcounting frees it once the last of them
        has mutated or died.
        """
        #: Monotonic content epoch; equal versions ⇒ identical contents.
        #: Bumped (to a process-globally fresh value) by every mutation.
        #: Copy-on-write clones share their parent's version until either
        #: side mutates, so an unchanged node keeps one stable version
        #: across what-if snapshots — the anchor for exact caching with
        #: O(nodes touched) invalidation.  A plain attribute, not a
        #: property: the offer memo and the plan cache read it per node
        #: on every decision.
        # lint: shared-state — process-local identity tokens, never shared
        self.version = next(_VERSION_CLOCK)
        # lint: context-cache — exact per-version memo, replaced on every version bump
        self._fit_memo: dict[tuple[int, int], FitWitnesses] = {}

    def __len__(self) -> int:
        return len(self._reservations)

    def __iter__(self) -> Iterator[Reservation]:
        return iter(self._reservations)

    @property
    def reservations(self) -> list[Reservation]:
        """A copy of the reservations in start order."""
        return list(self._reservations)

    def copy(self) -> "ReservationCalendar":
        """An independent what-if copy of this calendar (copy-on-write).

        Both calendars share the reservation storage until one of them
        mutates; the mutating side then pays the list copy.  Queries on
        either side are unaffected.
        """
        if PERF.enabled:
            PERF.incr("calendar.cow_copies")
        clone = ReservationCalendar.__new__(ReservationCalendar)
        clone._reservations = self._reservations
        clone._starts = self._starts
        clone._shared = True
        clone.version = self.version
        clone._fit_memo = self._fit_memo
        self._shared = True
        return clone

    def _materialize(self) -> None:
        """Detach shared storage before the first mutation after a copy."""
        if self._shared:
            if PERF.enabled:
                PERF.incr("calendar.materializations")
            self._reservations = list(self._reservations)
            self._starts = list(self._starts)
            self._shared = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def conflicts(self, start: int, end: int) -> list[Reservation]:
        """All reservations intersecting ``[start, end)``."""
        if end <= start:
            raise ValueError(f"empty or inverted interval [{start}, {end})")
        if PERF.enabled:
            PERF.incr("calendar.conflicts")
        # Candidates start before `end`; the overlapping run is
        # contiguous and ends at `index - 1` (reservations are disjoint
        # and sorted, so once one ends at or before `start`, all
        # earlier ones do too).  Walking indices avoids copying the
        # whole prefix the way `self._reservations[:index]` would.
        reservations = self._reservations
        index = bisect.bisect_left(self._starts, end)
        first = index
        while first > 0 and reservations[first - 1].end > start:
            first -= 1
        return reservations[first:index]

    def is_free(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` overlaps no reservation."""
        if end <= start:
            raise ValueError(f"empty or inverted interval [{start}, {end})")
        if PERF.enabled:
            PERF.incr("calendar.is_free")
        # Only the last reservation starting before `end` can overlap.
        index = bisect.bisect_left(self._starts, end)
        return index == 0 or self._reservations[index - 1].end <= start

    def free_windows(self, earliest: int, horizon: int
                     ) -> list[tuple[int, int]]:
        """Maximal free intervals within ``[earliest, horizon)``."""
        if horizon <= earliest:
            return []
        windows: list[tuple[int, int]] = []
        cursor = earliest
        for reservation in self._reservations:
            if reservation.end <= earliest:
                continue
            if reservation.start >= horizon:
                break
            if reservation.start > cursor:
                windows.append((cursor, min(reservation.start, horizon)))
            cursor = max(cursor, reservation.end)
            if cursor >= horizon:
                break
        if cursor < horizon:
            windows.append((cursor, horizon))
        return windows

    def earliest_fit(self, duration: int, earliest: int = 0,
                     deadline: Optional[int] = None) -> Optional[int]:
        """Earliest start of a free slot of ``duration`` before ``deadline``.

        Returns None when no such slot exists.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if PERF.enabled:
            PERF.incr("calendar.earliest_fit")
        horizon = deadline if deadline is not None else self._implied_horizon(
            earliest, duration)
        if horizon <= earliest:
            return None
        # Walk windows lazily from the first reservation still alive at
        # `earliest` instead of materializing every free window up to
        # the horizon; ends are sorted (disjoint intervals), so the
        # entry point is a bisection.
        reservations = self._reservations
        index = bisect.bisect_right(reservations, earliest, key=_BY_END)
        cursor = earliest
        for position in range(index, len(reservations)):
            reservation = reservations[position]
            if reservation.start >= horizon:
                break
            if reservation.start - cursor >= duration:
                return cursor
            if reservation.end > cursor:
                cursor = reservation.end
            if cursor >= horizon:
                return None
        if horizon - cursor >= duration:
            return cursor
        return None

    def latest_fit(self, duration: int, latest_end: int,
                   earliest: int) -> Optional[int]:
        """Latest start of a free slot of ``duration`` ending by ``latest_end``.

        Only starts at or past ``earliest`` count; returns None when no
        such slot exists.  The mirror image of :meth:`earliest_fit`: the
        walk starts at the last reservation beginning before
        ``latest_end`` and moves back until a gap holds the slot.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if PERF.enabled:
            PERF.incr("calendar.latest_fit")
        end = latest_end
        if end - duration < earliest:
            return None
        reservations = self._reservations
        for position in range(bisect.bisect_left(self._starts, latest_end)
                              - 1, -1, -1):
            reservation = reservations[position]
            if reservation.end + duration <= end:
                return end - duration
            # The slot must end before this reservation begins.
            end = reservation.start
            if end - duration < earliest:
                return None
        return end - duration

    def fit_witnesses(self, duration: int, deadline: int) -> FitWitnesses:
        """This version's interval witnesses for one query shape.

        :meth:`earliest_fit` is monotone in ``earliest`` for a fixed
        (content, duration, deadline): an answer ``s1`` at ``e1`` also
        answers every query in ``[e1, s1]`` (no earlier slot exists past
        ``e1``, and ``s1`` still fits), and a failure at ``e1`` answers
        every query at or past ``e1``.  The returned ``(keys, starts)``
        pair holds such witnesses — probed ``earliest`` slots, sorted,
        and their answers — for callers to read and extend (see
        ``find_fit`` in :func:`repro.core.dp.allocate_chain`).  Exact
        for this content version whoever asks, and freed with it.
        """
        key = (duration, deadline)
        witnesses = self._fit_memo.get(key)
        if witnesses is None:
            witnesses = ([], [])
            self._fit_memo[key] = witnesses
        return witnesses

    def _implied_horizon(self, earliest: int, duration: int) -> int:
        """A horizon guaranteed to contain a fit when no deadline is given."""
        last_end = self._reservations[-1].end if self._reservations else 0
        return max(earliest, last_end) + duration

    def gap_table(self) -> GapTable:
        """The free-gap structure-of-arrays for the current version.

        Derived once per content version from the sorted reservation
        list; with ``n`` reservations the table has ``n + 1`` gaps
        (possibly zero-length, for back-to-back reservations).  Callers
        wanting amortized reuse should go through
        :meth:`repro.core.context.SchedulingContext.gap_table`, which
        caches tables by version across copy-on-write clones.
        """
        count = len(self._reservations)
        gap_start = np.empty(count + 1, dtype=np.int64)
        gap_end = np.empty(count + 1, dtype=np.int64)
        gap_start[0] = -GAP_HORIZON
        gap_end[count] = GAP_HORIZON
        if count:
            ends = np.fromiter((r.end for r in self._reservations),
                               dtype=np.int64, count=count)
            gap_start[1:] = ends
            gap_end[:count] = np.fromiter(self._starts, dtype=np.int64,
                                          count=count)
            last_end = int(ends[-1])
        else:
            last_end = 0
        return GapTable(version=self.version, gap_start=gap_start,
                        gap_len=gap_end - gap_start, gap_end=gap_end,
                        last_end=last_end)

    def utilization(self, start: int, end: int) -> float:
        """Fraction of ``[start, end)`` covered by reservations."""
        if end <= start:
            raise ValueError(f"empty or inverted interval [{start}, {end})")
        busy = 0
        for reservation in self.conflicts(start, end):
            busy += min(reservation.end, end) - max(reservation.start, start)
        return busy / (end - start)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def reserve(self, start: int, end: int, tag: str = "") -> Reservation:
        """Book ``[start, end)``; raises ReservationConflict on overlap."""
        if not self.is_free(start, end):
            blocker = self.conflicts(start, end)[0]
            raise ReservationConflict(
                f"[{start}, {end}) overlaps {blocker.tag!r} "
                f"[{blocker.start}, {blocker.end})")
        self._materialize()
        reservation = Reservation(start, end, tag)
        index = bisect.bisect_left(self._starts, start)
        self._reservations.insert(index, reservation)
        self._starts.insert(index, start)
        self._new_version()
        return reservation

    def release(self, reservation: Reservation) -> None:
        """Remove a reservation previously returned by :meth:`reserve`."""
        try:
            index = self._reservations.index(reservation)
        except ValueError:
            raise KeyError(f"{reservation} is not booked") from None
        self._materialize()
        del self._reservations[index]
        del self._starts[index]
        self._new_version()

    def release_tag(self, tag: str) -> int:
        """Remove every reservation with the given tag; returns the count."""
        keep = [r for r in self._reservations if r.tag != tag]
        removed = len(self._reservations) - len(keep)
        if removed:
            self._reservations = keep
            self._starts = [r.start for r in keep]
            self._shared = False
            self._new_version()
        return removed

    def release_prefix(self, prefix: str) -> int:
        """Remove every reservation whose tag starts with ``prefix``.

        One pass over the calendar, however many reservations match —
        the bulk-release primitive behind
        :meth:`~repro.grid.environment.GridEnvironment.release_job`
        (job reservations are tagged ``"<job_id>:<task_id>"``), which
        would otherwise pay a linear :meth:`release` per placement.
        Returns the number removed.
        """
        keep = [r for r in self._reservations if not r.tag.startswith(prefix)]
        removed = len(self._reservations) - len(keep)
        if removed:
            self._reservations = keep
            self._starts = [r.start for r in keep]
            self._shared = False
            self._new_version()
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spans = ", ".join(
            f"[{r.start},{r.end}){'/' + r.tag if r.tag else ''}"
            for r in self._reservations[:6])
        suffix = ", ..." if len(self._reservations) > 6 else ""
        return f"<ReservationCalendar {spans}{suffix}>"
