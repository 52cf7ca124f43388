"""Unit tests for the SchedulingContext session layer.

Covers the LRU primitive (per-entry eviction, recency refresh, the
plan-cache thrash regression), the identity-token registry, weak
per-job cache lifetime, content-version keyed placement caches, and
the Scheduler protocol.
"""

import gc

import pytest

from repro.core.calendar import ReservationCalendar
from repro.core.context import (
    LruCache,
    Scheduler,
    SchedulingContext,
)
from repro.core.critical_works import CriticalWorksScheduler
from repro.core.job import Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.strategy import StrategyType
from repro.core.transfers import NeutralTransferModel
from repro.grid.data import ReplicationModel
from repro.flow.metascheduler import Metascheduler
from repro.grid.environment import GridEnvironment
from repro.perf import PERF
from repro.workload.paper_example import fig2_job, fig2_pool


# ----------------------------------------------------------------------
# LruCache primitive
# ----------------------------------------------------------------------

def test_lru_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LruCache("x", 0)


def test_lru_evicts_least_recently_used_entry():
    cache = LruCache("x", 2)
    cache["a"] = 1
    cache["b"] = 2
    cache["c"] = 3  # evicts a
    assert "a" not in cache
    assert cache.get("b") == 2 and cache.get("c") == 3
    assert cache.evictions == 1
    assert len(cache) == 2


def test_lru_get_refreshes_recency():
    cache = LruCache("x", 2)
    cache["a"] = 1
    cache["b"] = 2
    assert cache.get("a") == 1  # a becomes most recent
    cache["c"] = 3              # evicts b, not a
    assert "a" in cache and "b" not in cache


def test_lru_overwrite_does_not_evict():
    cache = LruCache("x", 2)
    cache["a"] = 1
    cache["b"] = 2
    cache["a"] = 10
    assert cache.evictions == 0
    assert cache.get("a") == 10


def test_lru_eviction_mirrored_to_perf_registry():
    cache = LruCache("test.some_cache", 1)
    with PERF.collecting() as registry:
        cache["a"] = 1
        cache["b"] = 2
    assert registry.counters["test.some_cache_evictions"] == 1


def test_lru_clear_drops_entries_without_counting_evictions():
    cache = LruCache("x", 4)
    cache["a"] = 1
    cache.clear()
    assert len(cache) == 0 and cache.evictions == 0


# ----------------------------------------------------------------------
# Plan-cache thrash regression (the wholesale-clear bug)
# ----------------------------------------------------------------------

def test_hot_key_survives_flood_of_unrelated_keys():
    """The old plan cache cleared wholesale at its size limit, so a
    flood of one-shot keys wiped hot entries.  The LRU must keep a
    recently touched key alive through two full floods."""
    cache = LruCache("flow.plan_cache", 4)
    cache["hot"] = "plan-A"
    for key in ("b", "c", "d"):   # fill to capacity
        cache[key] = key
    assert cache.get("hot") == "plan-A"  # touch: hot is most recent
    for key in ("e", "f", "g"):   # flood: evicts b, c, d — never hot
        cache[key] = key
    assert cache.get("hot") == "plan-A"
    assert cache.evictions == 3


def _single_domain_grid():
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0, domain="alpha"),
        ProcessorNode(node_id=2, performance=0.5, domain="alpha"),
    ])
    return GridEnvironment(pool)


def _simple_job(job_id):
    # Volume varies with the name so differently named jobs are
    # structurally unrelated — the plan cache keys on content, not ids.
    extra = sum(job_id.encode()) % 97
    return Job(job_id,
               [Task("A", volume=20 + extra, best_time=2),
                Task("B", volume=10, best_time=1)],
               [], deadline=40)


def test_metascheduler_hot_plan_survives_flood():
    """End-to-end regression on the real plan cache: planning a flood
    of unrelated jobs must not drop a hot job's cached strategy."""
    context = SchedulingContext(plan_capacity=4)
    scheduler = Metascheduler(_single_domain_grid(), context=context)
    hot = _simple_job("hot")

    plan_a = scheduler.plan_job(hot, StrategyType.S1, 0).strategy
    for name in ("b", "c", "d"):
        scheduler.plan_job(_simple_job(name), StrategyType.S1, 0)
    # Re-plan against unchanged calendars: exact reuse, same object.
    assert scheduler.plan_job(hot, StrategyType.S1, 0).strategy is plan_a
    for name in ("e", "f", "g"):
        scheduler.plan_job(_simple_job(name), StrategyType.S1, 0)
    assert scheduler.plan_job(hot, StrategyType.S1, 0).strategy is plan_a
    assert context.plans.evictions > 0  # the flood did evict — cold keys


def test_plan_cache_misses_after_calendar_drift():
    """A committed booking bumps the domain's epoch slice, so the
    cached plan stops matching and is regenerated, never served stale."""
    context = SchedulingContext()
    scheduler = Metascheduler(_single_domain_grid(), context=context)
    job = _simple_job("j")
    planned = scheduler.plan_job(job, StrategyType.S1, 0)
    scheduler.commit_planned(planned)  # books → epochs drift
    replanned = scheduler.plan_job(job, StrategyType.S1, 0)
    assert replanned.strategy is not planned.strategy


# ----------------------------------------------------------------------
# Identity tokens
# ----------------------------------------------------------------------

def test_tokens_are_stable_and_distinct():
    context = SchedulingContext()
    model_a, model_b = NeutralTransferModel(), NeutralTransferModel()
    assert context.token(model_a) == context.token(model_a)
    assert context.token(model_a) != context.token(model_b)


def test_tokens_are_never_reused_after_death():
    """Tokens are monotonic: even if the allocator recycles a dead
    object's address, the new object gets a fresh token."""
    context = SchedulingContext()
    seen = set()
    for _ in range(50):
        model = NeutralTransferModel()
        token = context.token(model)
        assert token not in seen
        seen.add(token)
        del model
        gc.collect()


def test_token_pruning_drops_dead_entries():
    context = SchedulingContext()
    model = NeutralTransferModel()
    context.token(model)
    del model
    gc.collect()
    context._prune_tokens()
    assert context._tokens == {}


# ----------------------------------------------------------------------
# Per-job caches
# ----------------------------------------------------------------------

def test_job_caches_are_scoped_by_model_identity():
    context = SchedulingContext()
    job = fig2_job()
    neutral, replication = NeutralTransferModel(), ReplicationModel()
    lags_a = context.transfer_lags(job, neutral)
    lags_b = context.transfer_lags(job, replication)
    assert lags_a is not lags_b
    assert context.transfer_lags(job, neutral) is lags_a


def test_job_caches_are_scoped_by_pool_identity():
    context = SchedulingContext()
    job, model = fig2_job(), NeutralTransferModel()
    pool_a, pool_b = fig2_pool(), fig2_pool()
    assert context.rankings(job, model, pool_a) is not \
        context.rankings(job, model, pool_b)


def test_job_caches_shared_across_structural_siblings():
    """Per-structure caches key on content, so a template sibling
    (same tasks/transfers/deadline, different id) shares them."""
    context = SchedulingContext()
    job = fig2_job()
    context.durations(job)[("T", 1, 0.0)] = 7
    sibling = Job("sibling", job.tasks.values(), job.transfers,
                  deadline=job.deadline)
    assert context.durations(sibling)[("T", 1, 0.0)] == 7
    assert len(context._struct_caches) == 1


def test_job_caches_evict_least_recent_structure():
    """The per-structure tier is LRU-bounded, not tied to object
    lifetime: flooding with fresh structures retires the oldest."""
    context = SchedulingContext(struct_capacity=2)
    stale = _simple_job("stale")
    context.durations(stale)[("A", 1, 0.0)] = 3
    for name in ("x", "y"):
        context.durations(_simple_job(name))
    assert context._struct_caches.get(stale.structural_hash) is None
    assert context.durations(stale).get(("A", 1, 0.0)) is None


def test_job_paths_memoized_per_limit():
    context = SchedulingContext()
    job = fig2_job()
    paths = context.job_paths(job)
    assert context.job_paths(job) is paths
    assert sorted(paths) == sorted(job.all_paths())


# ----------------------------------------------------------------------
# Placement caches (content-version keyed)
# ----------------------------------------------------------------------

def test_gap_table_cached_by_content_version():
    context = SchedulingContext()
    calendar = ReservationCalendar()
    calendar.reserve(0, 5, "bg")
    table = context.gap_table(calendar)
    assert context.gap_table(calendar) is table


def test_mutation_invalidates_gap_table_by_version():
    context = SchedulingContext()
    calendar = ReservationCalendar()
    stale = context.gap_table(calendar)
    calendar.reserve(0, 5, "bg")  # version bump
    fresh = context.gap_table(calendar)
    assert fresh is not stale
    assert fresh.version == calendar.version != stale.version


# ----------------------------------------------------------------------
# Scheduler protocol
# ----------------------------------------------------------------------

def test_critical_works_scheduler_satisfies_protocol():
    assert isinstance(CriticalWorksScheduler(fig2_pool()), Scheduler)


def test_baseline_adapters_satisfy_protocol():
    from repro.baselines import (GreedyScheduler, HeftScheduler,
                                 IndependentTasksScheduler)
    assert isinstance(GreedyScheduler(), Scheduler)
    assert isinstance(HeftScheduler(), Scheduler)
    assert isinstance(IndependentTasksScheduler(), Scheduler)


def test_critical_works_schedule_rejects_foreign_pool():
    scheduler = CriticalWorksScheduler(fig2_pool())
    other = fig2_pool()
    calendars = {node.node_id: ReservationCalendar() for node in other}
    with pytest.raises(ValueError):
        scheduler.schedule(fig2_job(), other, calendars)
