"""Unit tests for the perf counter/timer registry."""

import pytest

from repro.core.calendar import ReservationCalendar
from repro.perf import PERF, PerfRegistry


@pytest.fixture()
def registry():
    return PerfRegistry()


def test_starts_disabled_and_empty(registry):
    assert not registry.enabled
    assert registry.counters == {}
    assert registry.timers == {}


def test_incr_accumulates(registry):
    registry.incr("a")
    registry.incr("a", 4)
    registry.incr("b")
    assert registry.counters == {"a": 5, "b": 1}


def test_timer_accumulates_only_when_enabled(registry):
    with registry.timer("phase"):
        pass
    assert "phase" not in registry.timers  # disabled: no-op
    registry.enable()
    with registry.timer("phase"):
        pass
    with registry.timer("phase"):
        pass
    assert registry.timers["phase"] >= 0.0


def test_collecting_restores_prior_state(registry):
    registry.incr("stale")
    with registry.collecting() as live:
        assert live is registry
        assert registry.enabled
        assert registry.counters == {}  # reset dropped the stale count
        registry.incr("fresh")
    assert not registry.enabled
    assert registry.counters == {"fresh": 1}
    with registry.collecting(reset=False):
        registry.incr("fresh")
    assert registry.counters == {"fresh": 2}


def test_snapshot_is_sorted_and_detached(registry):
    registry.incr("z")
    registry.incr("a")
    registry.enable()
    with registry.timer("t"):
        pass
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a", "z"]
    assert list(snapshot["timers"]) == ["t"]
    snapshot["counters"]["a"] = 999
    assert registry.counters["a"] == 1


def test_kernel_reports_into_global_registry():
    """The calendar hot path reports when (and only when) PERF is on."""
    calendar = ReservationCalendar()
    calendar.reserve(0, 5, tag="warm")
    with PERF.collecting() as registry:
        calendar.conflicts(0, 10)
        calendar.is_free(6, 8)
        calendar.earliest_fit(2, 0, 20)
        calendar.copy()
        counters = dict(registry.counters)
    assert counters["calendar.conflicts"] == 1
    assert counters["calendar.is_free"] == 1
    assert counters["calendar.earliest_fit"] == 1
    assert counters["calendar.cow_copies"] == 1
    before = dict(PERF.counters)
    calendar.conflicts(0, 10)  # disabled again: silent
    assert PERF.counters == before


def test_cache_stats_derives_hit_rates():
    from repro.perf import derive_cache_stats

    counters = {
        "dp.fit_cache_hits": 30,
        "dp.fit_cache_misses": 10,
        "flow.plan_cache_misses": 4,   # hits side absent -> 0
        "dp.expansions": 999,          # not a cache pair: ignored
    }
    stats = derive_cache_stats(counters)
    assert set(stats) == {"dp.fit_cache", "flow.plan_cache"}
    assert stats["dp.fit_cache"] == {
        "hits": 30, "misses": 10, "hit_rate": 0.75}
    assert stats["flow.plan_cache"]["hit_rate"] == 0.0
    assert derive_cache_stats({}) == {}
