"""Unit tests for reservation calendars."""

import pytest

from repro.core.calendar import (
    GAP_HORIZON,
    Reservation,
    ReservationCalendar,
    ReservationConflict,
)


def test_reservation_validation_and_duration():
    with pytest.raises(ValueError):
        Reservation(5, 5)
    with pytest.raises(ValueError):
        Reservation(5, 3)
    assert Reservation(2, 7).duration == 5


def test_reservation_overlaps():
    reservation = Reservation(5, 10)
    assert reservation.overlaps(9, 12)
    assert reservation.overlaps(0, 6)
    assert reservation.overlaps(6, 8)
    assert not reservation.overlaps(10, 12)  # half-open: touching is fine
    assert not reservation.overlaps(0, 5)


def test_reserve_and_conflicts():
    cal = ReservationCalendar()
    cal.reserve(0, 5, "a")
    cal.reserve(10, 15, "b")
    assert cal.is_free(5, 10)
    assert not cal.is_free(4, 6)
    assert [r.tag for r in cal.conflicts(3, 12)] == ["a", "b"]


def test_reserve_conflict_raises():
    cal = ReservationCalendar()
    cal.reserve(0, 5, "a")
    with pytest.raises(ReservationConflict):
        cal.reserve(4, 6, "b")
    # Failed reserve must not corrupt the calendar.
    assert len(cal) == 1


def test_adjacent_reservations_allowed():
    cal = ReservationCalendar()
    cal.reserve(0, 5)
    cal.reserve(5, 10)
    assert len(cal) == 2


def test_constructor_accepts_unordered_reservations():
    cal = ReservationCalendar([Reservation(10, 15, "b"),
                               Reservation(0, 5, "a")])
    assert [r.tag for r in cal] == ["a", "b"]


def test_free_windows_basic():
    cal = ReservationCalendar()
    cal.reserve(3, 5)
    cal.reserve(8, 10)
    assert cal.free_windows(0, 12) == [(0, 3), (5, 8), (10, 12)]


def test_free_windows_edge_cases():
    cal = ReservationCalendar()
    assert cal.free_windows(0, 10) == [(0, 10)]
    assert cal.free_windows(5, 5) == []
    cal.reserve(0, 10)
    assert cal.free_windows(0, 10) == []
    assert cal.free_windows(2, 8) == []


def test_free_windows_clips_to_range():
    cal = ReservationCalendar()
    cal.reserve(0, 4)
    cal.reserve(20, 30)
    assert cal.free_windows(2, 25) == [(4, 20)]


def test_earliest_fit():
    cal = ReservationCalendar()
    cal.reserve(0, 4)
    cal.reserve(6, 10)
    assert cal.earliest_fit(2, earliest=0, deadline=20) == 4
    assert cal.earliest_fit(3, earliest=0, deadline=20) == 10
    assert cal.earliest_fit(3, earliest=0, deadline=10) is None


def test_earliest_fit_without_deadline_always_finds_slot():
    cal = ReservationCalendar()
    cal.reserve(0, 100)
    assert cal.earliest_fit(5) == 100


def test_earliest_fit_validation():
    with pytest.raises(ValueError):
        ReservationCalendar().earliest_fit(0)


def test_release():
    cal = ReservationCalendar()
    booking = cal.reserve(0, 5, "a")
    cal.release(booking)
    assert cal.is_free(0, 5)
    with pytest.raises(KeyError):
        cal.release(booking)


def test_release_tag():
    cal = ReservationCalendar()
    cal.reserve(0, 2, "job1")
    cal.reserve(3, 5, "job1")
    cal.reserve(6, 8, "job2")
    assert cal.release_tag("job1") == 2
    assert [r.tag for r in cal] == ["job2"]
    assert cal.release_tag("ghost") == 0


def test_copy_is_independent():
    cal = ReservationCalendar()
    cal.reserve(0, 5, "a")
    clone = cal.copy()
    clone.reserve(5, 10, "b")
    assert len(cal) == 1
    assert len(clone) == 2


def test_utilization():
    cal = ReservationCalendar()
    cal.reserve(0, 5)
    assert cal.utilization(0, 10) == 0.5
    assert cal.utilization(0, 5) == 1.0
    assert cal.utilization(5, 10) == 0.0
    with pytest.raises(ValueError):
        cal.utilization(5, 5)


def test_conflicts_validation():
    with pytest.raises(ValueError):
        ReservationCalendar().conflicts(3, 3)


def test_many_reservations_scan_correctness():
    cal = ReservationCalendar()
    for i in range(100):
        cal.reserve(i * 10, i * 10 + 5, f"r{i}")
    assert [r.tag for r in cal.conflicts(250, 275)] == ["r25", "r26", "r27"]
    assert cal.is_free(255, 260)


# ----------------------------------------------------------------------
# Content versions (calendar epochs)
# ----------------------------------------------------------------------

def test_version_bumps_on_every_mutation():
    calendar = ReservationCalendar()
    versions = [calendar.version]
    reservation = calendar.reserve(0, 5, tag="a")
    versions.append(calendar.version)
    calendar.reserve(10, 15, tag="b")
    versions.append(calendar.version)
    calendar.release(reservation)
    versions.append(calendar.version)
    calendar.release_tag("b")
    versions.append(calendar.version)
    # Strictly increasing: every mutation is observable.
    assert versions == sorted(set(versions))
    assert len(set(versions)) == len(versions)


def test_version_stable_across_reads():
    calendar = ReservationCalendar()
    calendar.reserve(0, 5)
    before = calendar.version
    calendar.conflicts(0, 10)
    calendar.is_free(6, 8)
    calendar.earliest_fit(2, earliest=0, deadline=50)
    assert calendar.version == before


def test_release_tag_without_match_keeps_version():
    calendar = ReservationCalendar()
    calendar.reserve(0, 5, tag="a")
    before = calendar.version
    assert calendar.release_tag("missing") == 0
    assert calendar.version == before


def test_copy_shares_version_until_divergence():
    """Equal versions must imply identical contents: a copy-on-write
    snapshot keeps the source's version, and either side mutating draws
    a fresh globally-unique version."""
    calendar = ReservationCalendar()
    calendar.reserve(0, 5)
    snapshot = calendar.copy()
    assert snapshot.version == calendar.version
    snapshot.reserve(10, 12)
    assert snapshot.version != calendar.version


def test_versions_are_globally_unique():
    first, second = ReservationCalendar(), ReservationCalendar()
    assert first.version != second.version
    first.reserve(0, 1)
    second.reserve(0, 1)
    assert first.version != second.version


def test_release_prefix_removes_all_matches_in_one_pass():
    calendar = ReservationCalendar()
    calendar.reserve(0, 2, tag="j1:t1")
    calendar.reserve(3, 5, tag="j1:t2")
    calendar.reserve(6, 8, tag="j10:t1")
    calendar.reserve(9, 11, tag="background")
    assert calendar.release_prefix("j1:") == 2
    assert [r.tag for r in calendar.reservations] == ["j10:t1",
                                                      "background"]


def test_release_prefix_without_match_keeps_version():
    calendar = ReservationCalendar()
    calendar.reserve(0, 2, tag="a")
    version = calendar.version
    assert calendar.release_prefix("zzz") == 0
    assert calendar.version == version
    assert calendar.release_prefix("a") == 1
    assert calendar.version != version


# ----------------------------------------------------------------------
# Fit witnesses live with the content version
# ----------------------------------------------------------------------

MUTATIONS = {
    "reserve": lambda calendar: calendar.reserve(40, 42, tag="late"),
    "release": lambda calendar: calendar.release(calendar.reservations[0]),
    "release_tag": lambda calendar: calendar.release_tag("bg"),
    "release_prefix": lambda calendar: calendar.release_prefix("b"),
}


def _two_busy_spans():
    return ReservationCalendar([Reservation(0, 5, "bg"),
                                Reservation(10, 12, "bg")])


def test_fit_witnesses_are_per_version_and_per_query_shape():
    calendar = _two_busy_spans()
    witnesses = calendar.fit_witnesses(3, 30)
    assert witnesses == ([], [])
    assert calendar.fit_witnesses(3, 30) is witnesses
    assert calendar.fit_witnesses(3, 31) is not witnesses
    assert calendar.fit_witnesses(4, 30) is not witnesses
    assert ReservationCalendar().fit_witnesses(3, 30) is not witnesses


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("mutated_side", ["origin", "clone"])
def test_every_mutation_starts_fresh_fit_witnesses(mutation, mutated_side):
    calendar = _two_busy_spans()
    witnesses = calendar.fit_witnesses(3, 30)
    witnesses[0].append(0)
    witnesses[1].append(5)
    clone = calendar.copy()
    mutated, untouched = ((calendar, clone) if mutated_side == "origin"
                          else (clone, calendar))
    MUTATIONS[mutation](mutated)
    assert mutated.fit_witnesses(3, 30) == ([], [])
    assert untouched.fit_witnesses(3, 30) is witnesses
    assert witnesses == ([0], [5])


def test_no_op_release_keeps_fit_witnesses():
    calendar = ReservationCalendar([Reservation(0, 5, "bg")])
    witnesses = calendar.fit_witnesses(3, 30)
    assert calendar.release_tag("other") == 0
    assert calendar.release_prefix("other") == 0
    assert calendar.fit_witnesses(3, 30) is witnesses


def test_gap_table_layout_keeps_zero_length_gaps():
    """n reservations give n + 1 gaps, sentinel-bounded; back-to-back
    reservations leave a zero-length gap, so gap k + 1 still opens at
    reservation k's end."""
    calendar = ReservationCalendar([Reservation(5, 10, "a"),
                                    Reservation(10, 15, "b")])
    table = calendar.gap_table()
    assert table.version == calendar.version
    assert table.gap_start.tolist() == [-GAP_HORIZON, 10, 15]
    assert table.gap_end.tolist() == [5, 10, GAP_HORIZON]
    assert table.gap_len.tolist() == [5 + GAP_HORIZON, 0,
                                      GAP_HORIZON - 15]
    assert table.last_end == 15
    empty = ReservationCalendar().gap_table()
    assert empty.gap_start.tolist() == [-GAP_HORIZON]
    assert empty.gap_end.tolist() == [GAP_HORIZON]
    assert empty.last_end == 0
