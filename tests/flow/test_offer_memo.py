"""Tests for the offer memo in front of the shard planner's plan-cache
reads (``SchedulingContext.offers``, read by ``ShardPlanner.plan``)."""

import gc
import weakref

import pytest

from repro.core.context import DEFAULT_OFFER_CAPACITY
from repro.core.strategy import StrategyType
from repro.flow.metascheduler import Metascheduler
from repro.flow.sharding import ShardPlanner
from repro.grid.environment import GridEnvironment
from repro.perf import PERF

from .test_metascheduler import simple_job, two_domain_pool
from .test_sharded import run_online_template, run_sharded


def booked(grid):
    """Every reservation of the grid, node by node."""
    return [(node_id, r.start, r.end, r.tag)
            for node_id, calendar in sorted(grid.calendars.items())
            for r in calendar.reservations]


@pytest.mark.parametrize("lane", ["sharded", "online"])
def test_memo_free_runs_match(lane, monkeypatch):
    """Clearing the offer memo before every ``plan`` call changes no
    outcome and no booked reservation: the memo only answers repeats
    exactly as the competition would."""
    def run():
        if lane == "sharded":
            simulation = run_sharded(shards=2, jobs=200)
        else:
            simulation = run_online_template()
        return list(simulation.outcomes), booked(simulation.grid)

    with PERF.collecting() as registry:
        memoized = run()
        hits = registry.counters.get("flow.offer_cache_hits", 0)
    assert hits > 0

    plan = ShardPlanner.plan

    def memo_free(self, *args):
        self.context.offers.clear()
        return plan(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(ShardPlanner, "plan", memo_free)
        with PERF.collecting() as registry:
            cleared = run()
            assert registry.counters.get("flow.offer_cache_hits") is None
    assert cleared == memoized


def test_repeated_plan_is_one_memo_hit():
    """A repeat of a plan's exact inputs returns the same offer — its
    strategy object itself — and counts one offer-memo hit and one
    plan-cache hit per domain; a template sibling's repeat also counts
    the rebinds."""
    scheduler = Metascheduler(GridEnvironment(two_domain_pool()))
    planner = scheduler.planner
    calendars = scheduler.grid.calendars
    job = simple_job()
    with PERF.collecting() as registry:
        offer = planner.plan(job, StrategyType.S1, 0, calendars)
        counters = dict(registry.counters)
    assert offer is not None
    assert counters.get("flow.offer_cache_misses") == 1
    assert counters.get("flow.offer_cache_hits") is None
    assert counters.get("flow.plan_cache_misses") == 2

    with PERF.collecting() as registry:
        again = planner.plan(job, StrategyType.S1, 0, calendars)
        counters = dict(registry.counters)
    assert again == offer and again[1] is offer[1]
    assert counters == {"flow.offer_cache_hits": 1,
                        "flow.plan_cache_hits": 2}

    with PERF.collecting() as registry:
        sibling = simple_job("sibling")
        again = planner.plan(sibling, StrategyType.S1, 0, calendars)
        counters = dict(registry.counters)
    assert again == offer and again[1] is offer[1]
    assert counters == {"flow.offer_cache_hits": 1,
                        "flow.plan_cache_hits": 2, "flow.plan_rebinds": 2}


def test_memo_misses_when_an_input_moves():
    """Another release, another family or a booked calendar is a new
    key; the memo never answers for changed inputs."""
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    job = simple_job(deadline=60)
    scheduler.plan_job(job, StrategyType.S1, 0)
    with PERF.collecting() as registry:
        scheduler.plan_job(job, StrategyType.S1, 1)
        scheduler.plan_job(job, StrategyType.S2, 0)
        scheduler.submit(simple_job("other", deadline=50), StrategyType.S1)
        assert scheduler.dispatch()[0].committed
        scheduler.plan_job(job, StrategyType.S1, 0)
        counters = dict(registry.counters)
    assert counters.get("flow.offer_cache_hits") is None
    assert counters.get("flow.offer_cache_misses") == 4


def test_rejected_repeat_is_a_hit_without_an_offer():
    """An inadmissible arrival's answer is memoized too: its repeat is
    a hit that returns no offer and generates nothing."""
    scheduler = Metascheduler(GridEnvironment(two_domain_pool()))
    job = simple_job(deadline=1)
    assert scheduler.plan_job(job, StrategyType.S1, 0).manager is None
    with PERF.collecting() as registry:
        planned = scheduler.plan_job(job, StrategyType.S1, 0)
        counters = dict(registry.counters)
    assert planned.manager is None and planned.strategy is None
    assert counters.get("flow.offer_cache_hits") == 1
    assert counters.get("flow.offer_cache_misses") is None
    assert counters.get("flow.plan_cache_hits") == 2
    assert "strategy.generate" not in PERF.timers


def test_offer_memo_is_bounded():
    """After a 300-job sharded run every shard's context holds at most
    the memo's capacity of offers, and a stream of unique jobs evicts
    the least recently used."""
    assert DEFAULT_OFFER_CAPACITY == 64
    simulation = run_sharded(shards=2, jobs=300)
    for metascheduler in simulation.metaschedulers:
        assert 0 < len(metascheduler.context.offers) <= 64

    scheduler = Metascheduler(GridEnvironment(two_domain_pool()))
    for index in range(80):
        scheduler.plan_job(simple_job(f"j{index}", deadline=20 + index),
                           StrategyType.S1, 0)
    offers = scheduler.context.offers
    assert len(offers) == 64
    assert offers.evictions == 16


def test_memo_holds_no_reference_back_to_its_planner():
    """The memo stores manager indices, not managers, so dropping a
    metascheduler frees its context by reference counting alone: a
    finished run leaves no context for a full collection to find."""
    scheduler = Metascheduler(GridEnvironment(two_domain_pool()))
    for _ in range(2):
        scheduler.plan_job(simple_job(), StrategyType.S1, 0)
    assert len(scheduler.context.offers) == 1
    context = weakref.ref(scheduler.context)
    gc.collect()
    gc.disable()
    try:
        del scheduler
        assert context() is None
    finally:
        gc.enable()
