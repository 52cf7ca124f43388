"""Differential tests: optimized calendar queries vs reference semantics.

The query path in :mod:`repro.core.calendar` was rewritten for speed
(bisect entry points, lazy window walks, copy-on-write snapshots).  The
pre-optimization implementations were a straight linear scan and an
eager ``free_windows`` materialization — simple enough to serve as an
executable specification.  These tests replay random reservation sets
through both and require exact agreement.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.calendar import ReservationCalendar, ReservationConflict

intervals = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 20)),
    min_size=0, max_size=40,
)


def fill_calendar(specs):
    calendar = ReservationCalendar()
    for index, (start, length) in enumerate(specs):
        try:
            calendar.reserve(start, start + length, tag=f"r{index}")
        except ReservationConflict:
            pass
    return calendar


# ----------------------------------------------------------------------
# Reference implementations (pre-optimization semantics)
# ----------------------------------------------------------------------

def conflicts_reference(calendar, start, end):
    """Linear scan over every reservation."""
    return [r for r in calendar.reservations if r.overlaps(start, end)]


def earliest_fit_reference(calendar, duration, earliest, deadline):
    """First free window wide enough, via eager ``free_windows``."""
    if deadline is not None:
        horizon = deadline
    else:
        reservations = calendar.reservations
        last_end = reservations[-1].end if reservations else 0
        horizon = max(earliest, last_end) + duration
    for window_start, window_end in calendar.free_windows(earliest, horizon):
        if window_end - window_start >= duration:
            return window_start
    return None


def latest_fit_reference(calendar, duration, latest_end, earliest):
    """Every start from the latest down, checked by linear scan."""
    for start in range(latest_end - duration, earliest - 1, -1):
        if not conflicts_reference(calendar, start, start + duration):
            return start
    return None


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------

@given(intervals, st.integers(0, 250), st.integers(1, 30))
def test_conflicts_matches_linear_scan(specs, start, length):
    calendar = fill_calendar(specs)
    end = start + length
    assert calendar.conflicts(start, end) == conflicts_reference(
        calendar, start, end)


@given(intervals, st.integers(0, 250), st.integers(1, 30))
def test_is_free_matches_linear_scan(specs, start, length):
    calendar = fill_calendar(specs)
    end = start + length
    assert calendar.is_free(start, end) == (
        not conflicts_reference(calendar, start, end))


@given(intervals, st.integers(1, 25), st.integers(0, 250),
       st.one_of(st.none(), st.integers(0, 400)))
def test_earliest_fit_matches_window_scan(specs, duration, earliest,
                                          deadline):
    calendar = fill_calendar(specs)
    if deadline is not None and deadline <= earliest:
        deadline = earliest + duration  # keep the query satisfiable-shaped
    assert calendar.earliest_fit(duration, earliest, deadline) == \
        earliest_fit_reference(calendar, duration, earliest, deadline)


@given(intervals, st.integers(1, 25), st.integers(0, 400),
       st.integers(0, 250))
@example([], 5, 30, 0)                    # empty calendar
@example([], 5, 10, 6)                    # latest_end - duration < earliest
@example([(10, 5), (15, 5)], 3, 20, 0)    # back-to-back reservations
@example([(10, 5), (15, 5)], 3, 20, 8)    # ... and no room before them
@example([(10, 10)], 3, 15, 0)            # one straddles latest_end
@example([(10, 10)], 3, 23, 0)            # ... and one ends in its gap
def test_latest_fit_matches_window_scan(specs, duration, latest_end,
                                        earliest):
    calendar = fill_calendar(specs)
    assert calendar.latest_fit(duration, latest_end, earliest) == \
        latest_fit_reference(calendar, duration, latest_end, earliest)


@given(intervals, st.integers(0, 250), st.integers(1, 30))
def test_cow_copy_answers_like_the_original(specs, start, length):
    calendar = fill_calendar(specs)
    clone = calendar.copy()
    end = start + length
    assert clone.conflicts(start, end) == calendar.conflicts(start, end)
    assert clone.is_free(start, end) == calendar.is_free(start, end)
    assert clone.earliest_fit(length, start) == calendar.earliest_fit(
        length, start)


@given(intervals)
def test_cow_copy_isolates_mutations(specs):
    calendar = fill_calendar(specs)
    before = calendar.reservations
    clone = calendar.copy()
    slot = clone.earliest_fit(3, 0)
    clone.reserve(slot, slot + 3, tag="what-if")
    # The original never sees the clone's booking, and vice versa.
    assert calendar.reservations == before
    assert len(clone) == len(before) + 1
    start = calendar.earliest_fit(5, 0)  # no deadline: always succeeds
    booked = calendar.reserve(start, start + 5, tag="original")
    assert booked not in clone.reservations
