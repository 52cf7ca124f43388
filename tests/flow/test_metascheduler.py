"""Unit tests for the metascheduler, job managers, and the VO façade."""

import gc
import hashlib

import numpy as np
import pytest

import repro.flow.sharding as sharding_module
from repro.core.calendar import ReservationCalendar
from repro.core.context import (DEFAULT_OFFER_CAPACITY,
                                DEFAULT_PLAN_VARIANTS, PlanCache,
                                SchedulingContext)
from repro.core.job import Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.strategy import Strategy, StrategyType
from repro.flow.manager import JobManager
from repro.flow.metascheduler import Metascheduler
from repro.flow.sharding import plan_with_cache
from repro.flow.vo import VirtualOrganization
from repro.grid.environment import GridEnvironment
from repro.workload.paper_example import fig2_job


def two_domain_pool():
    return ResourcePool([
        ProcessorNode(node_id=1, performance=1.0, domain="alpha"),
        ProcessorNode(node_id=2, performance=0.5, domain="alpha"),
        ProcessorNode(node_id=3, performance=1.0, domain="beta"),
        ProcessorNode(node_id=4, performance=0.33, domain="beta"),
    ])


def simple_job(job_id="j", deadline=30, owner="anonymous"):
    return Job(
        job_id,
        [Task("A", volume=20, best_time=2), Task("B", volume=10, best_time=1)],
        [],
        deadline=deadline,
        owner=owner,
    )


def record_offers(monkeypatch):
    """Record every (domain, strategy) offer the metascheduler reads
    through the plan cache, in planning order."""
    offers = []

    def recording(manager, job, *args):
        strategy = plan_with_cache(manager, job, *args)
        offers.append((manager.domain, strategy))
        return strategy

    monkeypatch.setattr(sharding_module, "plan_with_cache", recording)
    return offers


# ----------------------------------------------------------------------
# JobManager
# ----------------------------------------------------------------------

def test_manager_plans_only_on_its_domain():
    pool = two_domain_pool()
    manager = JobManager("alpha", pool)
    calendars = {n.node_id: ReservationCalendar() for n in pool}
    strategy = manager.plan(simple_job(), calendars, StrategyType.S1)
    assert strategy.admissible
    for schedule in strategy.admissible_schedules():
        assert schedule.distribution.node_ids() <= {1, 2}
    # Managers retain nothing per job: reuse goes through the plan cache.
    plans = PlanCache("flow.plan_cache", 4)
    job = simple_job()
    served = plan_with_cache(manager, job, StrategyType.S1, 0, calendars,
                             plans)
    assert plan_with_cache(manager, job, StrategyType.S1, 0, calendars,
                           plans) is served
    assert len(plans) == 1


def test_manager_rejects_empty_domain():
    with pytest.raises(ValueError):
        JobManager("ghost", two_domain_pool())


def test_manager_resource_requests_match_best_schedule():
    pool = two_domain_pool()
    manager = JobManager("alpha", pool)
    calendars = {n.node_id: ReservationCalendar() for n in pool}
    strategy = manager.plan(simple_job(), calendars, StrategyType.S1)
    requests = manager.resource_requests(strategy)
    best = strategy.best_schedule()
    assert len(requests) == len(best.distribution)
    for request in requests:
        placement = best.distribution.placement(
            request.attributes["task_id"])
        assert request.reserved_start == placement.start
        assert request.wall_time == placement.duration


# ----------------------------------------------------------------------
# Metascheduler
# ----------------------------------------------------------------------

def test_dispatch_commits_job():
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    scheduler.submit(simple_job(), StrategyType.S1)
    records = scheduler.dispatch()
    assert len(records) == 1
    record = records[0]
    assert record.committed
    assert record.domain in ("alpha", "beta")
    assert record.chosen is not None
    # The reservations landed in the environment.
    booked = sum(len(cal) for cal in grid.calendars.values())
    assert booked == 2


def test_dispatch_rejects_impossible_deadline():
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    scheduler.submit(simple_job(deadline=1), StrategyType.S1)
    records = scheduler.dispatch()
    assert not records[0].committed
    assert records[0].reason == "inadmissible"


def test_flows_empty_after_dispatch():
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    scheduler.submit(simple_job(), StrategyType.S2)
    scheduler.dispatch()
    assert scheduler.pending() == []


def test_pending_interleaves_flows_round_robin():
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    scheduler.submit(simple_job("a"), StrategyType.S1)
    scheduler.submit(simple_job("b"), StrategyType.S1)
    scheduler.submit(simple_job("c"), StrategyType.S2)
    order = [job.job_id for job, _ in scheduler.pending()]
    assert order == ["a", "c", "b"]


def test_sequential_jobs_share_resources_without_overlap():
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    for index in range(4):
        scheduler.submit(simple_job(f"j{index}"), StrategyType.S1)
    records = scheduler.dispatch()
    assert all(record.committed for record in records)
    # Environment calendars enforce disjointness; reaching here without
    # ReservationConflict proves the schedules interleave correctly.


def test_fig2_job_through_framework():
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=0.5),
        ProcessorNode(node_id=3, performance=1 / 3),
        ProcessorNode(node_id=4, performance=0.25),
    ])
    grid = GridEnvironment(pool)
    scheduler = Metascheduler(grid)
    scheduler.submit(fig2_job(), StrategyType.S1)
    records = scheduler.dispatch()
    assert records[0].committed


# ----------------------------------------------------------------------
# VirtualOrganization façade
# ----------------------------------------------------------------------

def test_vo_run_flow_and_summary():
    vo = VirtualOrganization(two_domain_pool(), with_economics=False)
    records = vo.run_flow([
        (simple_job("ok"), StrategyType.S1),
        (simple_job("late", deadline=1), StrategyType.S1),
    ])
    summary = vo.summarize(records)
    assert summary.total == 2
    assert summary.committed == 1
    assert summary.inadmissible == 1
    assert summary.admission_rate == 0.5


def test_vo_economics_charges_and_rejects():
    vo = VirtualOrganization(two_domain_pool())
    vo.register_user("rich", budget=1000)
    vo.register_user("poor", budget=0.1)
    records = vo.run_flow([
        (simple_job("a", owner="rich"), StrategyType.S1),
        (simple_job("b", owner="poor"), StrategyType.S1),
    ])
    by_id = {r.job_id: r for r in records}
    assert by_id["a"].committed
    assert by_id["a"].charge is not None
    assert not by_id["b"].committed
    assert by_id["b"].reason == "budget"


def test_vo_surge_priority_orders_dispatch():
    vo = VirtualOrganization(two_domain_pool())
    vo.register_user("calm", budget=1000)
    vo.register_user("urgent", budget=1000)
    vo.economics.set_surge("urgent", 3.0)
    vo.submit(simple_job("a", owner="calm"), StrategyType.S1)
    vo.submit(simple_job("b", owner="urgent"), StrategyType.S1)
    order = [job.job_id for job, _ in vo.metascheduler.pending()]
    assert order == ["b", "a"]


def test_vo_without_economics_rejects_registration():
    vo = VirtualOrganization(two_domain_pool(), with_economics=False)
    with pytest.raises(RuntimeError):
        vo.register_user("u", 10)


def test_vo_background_and_load_metrics():
    vo = VirtualOrganization(two_domain_pool(), with_economics=False)
    vo.preload_background(np.random.default_rng(0), busy_fraction=0.3,
                          horizon=100)
    records = vo.run_flow([(simple_job(), StrategyType.S1)])
    load = vo.load_by_group(0, 100)
    assert set(load) == {group for group in load}
    total_load = vo.load_by_group(0, 100, jobs_only=False)
    assert all(total_load[g] >= load[g] for g in load)


# ----------------------------------------------------------------------
# Epoch-keyed plan cache and conflict retries
# ----------------------------------------------------------------------

def test_live_strategies_are_bounded_by_the_plan_cache():
    """Planning many distinct jobs keeps only what the context's caches
    retain alive: managers hold no per-job strategies, so the live
    ``Strategy`` count is exactly what the plan cache and the offer memo
    hold, and stays under their bounds instead of growing with the
    number of jobs planned."""
    capacity = 4
    context = SchedulingContext(plan_capacity=capacity)
    scheduler = Metascheduler(GridEnvironment(two_domain_pool()),
                              context=context)
    bound = (capacity * DEFAULT_PLAN_VARIANTS
             + DEFAULT_OFFER_CAPACITY * len(scheduler.managers))
    jobs = bound + 40
    for index in range(jobs):
        job = Job(f"job{index}",
                  [Task("A", volume=20 + index, best_time=2),
                   Task("B", volume=10, best_time=1)],
                  [], deadline=40)
        scheduler.plan_job(job, StrategyType.S1, 0)
    gc.collect()
    live = sum(1 for obj in gc.get_objects() if isinstance(obj, Strategy))
    assert live <= bound < jobs
    held = {id(strategy) for variants in context.plans._entries.values()
            for strategy in variants.values()}
    held.update(id(strategy) for _, strategies in context.offers.values()
                for strategy in strategies)
    assert live == len(held)


def test_conflict_retries_validation():
    grid = GridEnvironment(two_domain_pool())
    with pytest.raises(ValueError):
        Metascheduler(grid, conflict_retries=-1)


def test_plan_cache_reuses_untouched_domains(monkeypatch):
    """Re-dispatching a job replans only domains whose epoch slice
    moved; the untouched domain's strategy is reused object-identically."""
    from repro.perf import PERF

    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    job = simple_job()
    offers = record_offers(monkeypatch)

    with PERF.collecting() as registry:
        scheduler.submit(job, StrategyType.S1)
        first = scheduler.dispatch()[0]
        assert first.committed
        counters = dict(registry.counters)
    assert counters.get("flow.plan_cache_misses") == 2  # both domains
    assert counters.get("flow.plan_cache_hits") is None

    committed_domain = first.domain
    untouched = [m for m in scheduler.managers
                 if m.domain != committed_domain][0]
    first_offers = dict(offers)
    offers.clear()

    with PERF.collecting() as registry:
        scheduler.submit(job, StrategyType.S1)
        second = scheduler.dispatch()[0]
        counters = dict(registry.counters)
    # The committed domain's calendars moved, so its read misses and
    # plans cold; the other domain is served exactly.
    assert counters.get("flow.plan_cache_hits") == 1
    assert counters.get("flow.plan_cache_misses") == 1
    second_offers = dict(offers)
    assert second_offers[untouched.domain] is first_offers[untouched.domain]
    assert second_offers[committed_domain] is not first_offers[
        committed_domain]
    assert second.job_id == job.job_id


def test_two_phase_warm_second_plan_hits_cache():
    """plan_job books nothing; a warm second plan over unchanged
    calendars is served entirely from the plan cache; commit_planned
    then books and records the outcome."""
    from repro.perf import PERF

    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    job = simple_job()
    all_nodes = grid.pool.node_ids()

    epochs_before = grid.epoch_slice(all_nodes)
    with PERF.collecting() as registry:
        planned = scheduler.plan_job(job, StrategyType.S1, release=0)
        counters = dict(registry.counters)
    assert planned.manager is not None
    assert counters.get("flow.plan_cache_misses") == 2  # both domains
    # Planning alone must not touch any calendar.
    assert grid.epoch_slice(all_nodes) == epochs_before

    with PERF.collecting() as registry:
        replanned = scheduler.plan_job(job, StrategyType.S1, release=0)
        counters = dict(registry.counters)
    assert counters.get("flow.plan_cache_hits") == 2
    assert counters.get("flow.plan_cache_misses") is None
    assert replanned.strategy is planned.strategy

    record = scheduler.commit_planned(planned)
    assert record.committed
    assert scheduler.records[-1] is record
    assert grid.epoch_slice(all_nodes) != epochs_before


def test_plan_cache_misses_on_release_change():
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    job = simple_job(deadline=60)
    from repro.perf import PERF

    with PERF.collecting() as registry:
        scheduler.submit(job, StrategyType.S1)
        scheduler.dispatch(release=0)
        grid.release_job(job.job_id)  # put calendars back
        scheduler.submit(job, StrategyType.S1)
        scheduler.dispatch(release=5)
        counters = dict(registry.counters)
    # A different release never hits, even where epochs happen to match.
    assert counters.get("flow.plan_cache_hits") is None


def test_sibling_hit_and_commit_leave_the_plan_cache_untouched():
    """An exact hit is served by reference: neither planning nor
    committing a template sibling rewrites the cached plans, which stay
    bound to the job they were generated for, while the sibling's own
    dispatch and reservations carry the sibling's id."""
    from repro.perf import PERF

    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid)
    generator = simple_job("generator")
    sibling = simple_job("sibling")
    assert generator.structural_hash == sibling.structural_hash

    scheduler.plan_job(generator, StrategyType.S1, release=0)
    keys = {manager.domain: (generator.structural_hash, StrategyType.S1,
                             manager.domain, 0,
                             grid.epoch_slice(manager.pool.node_ids()))
            for manager in scheduler.managers}
    stored = {domain: scheduler.context.plans.lookup(*key)
              for domain, key in keys.items()}
    assert all(strategy.job is generator for strategy in stored.values())

    with PERF.collecting() as registry:
        planned = scheduler.plan_job(sibling, StrategyType.S1, release=0)
        counters = dict(registry.counters)
    assert counters.get("flow.plan_cache_hits") == 2
    assert counters.get("flow.plan_rebinds") == 2
    record = scheduler.commit_planned(planned)
    assert record.committed
    assert record.strategy.job is sibling

    for domain, key in keys.items():
        cached = scheduler.context.plans.lookup(*key)
        assert cached is stored[domain]
        assert cached.job is generator
        assert all(schedule.distribution.job_id == "generator"
                   for schedule in cached.schedules
                   if schedule.distribution is not None)
    tags = sorted(reservation.tag for calendar in grid.calendars.values()
                  for reservation in calendar.reservations)
    assert tags == sorted(f"sibling:{placement.task_id}"
                          for placement in record.chosen.distribution)


def conflict_once_scheduler(conflict_retries):
    """A metascheduler whose grid's ``can_commit`` refuses every variant
    during the first planning pass only — the commit-time conflict
    scenario.

    Planning passes are detected by counting ``plan_job`` calls (each
    pass makes exactly one, whether its plans hit the cache or not), so
    the gate opens exactly when a retry re-plans.
    """
    grid = GridEnvironment(two_domain_pool())
    scheduler = Metascheduler(grid, conflict_retries=conflict_retries)
    true_can_commit = grid.can_commit
    true_plan_job = scheduler.plan_job
    calls = {"passes": 0}

    def counting_plan_job(*args, **kwargs):
        calls["passes"] += 1
        return true_plan_job(*args, **kwargs)

    def gated_can_commit(distribution):
        if calls["passes"] <= 1:
            return False  # still the first pass: steal everything
        return true_can_commit(distribution)

    scheduler.plan_job = counting_plan_job
    grid.can_commit = gated_can_commit
    return scheduler


def strategy_snapshot(strategy):
    """Every supporting schedule flattened to comparable placements."""
    return [
        (schedule.level, schedule.admissible,
         None if schedule.distribution is None else sorted(
             (p.task_id, p.node_id, p.start, p.end)
             for p in schedule.distribution))
        for schedule in strategy.schedules
    ]


@pytest.mark.parametrize("deadline", [25, 30, 45])
@pytest.mark.parametrize("stype", [StrategyType.S1, StrategyType.S2])
def test_repaired_plan_is_bit_identical_to_cold_replan(deadline, stype,
                                                       monkeypatch):
    """After epoch drift, the plan a reused metascheduler offers — an
    exact hit on the untouched domain, a fresh plan on the drifted one
    — must equal what a fresh metascheduler plans on every domain,
    level by level and placement by placement."""
    from repro.perf import PERF

    def drifted_grid():
        """A grid whose epochs moved after a first job was planned and
        committed — built twice, identically, for both sides."""
        grid = GridEnvironment(two_domain_pool())
        scheduler = Metascheduler(grid)
        scheduler.submit(simple_job("seed-job", deadline=deadline), stype)
        assert scheduler.dispatch()[0].committed
        return grid, scheduler

    sibling = simple_job("sibling", deadline=deadline)

    offers = record_offers(monkeypatch)
    warm_grid, warm_scheduler = drifted_grid()
    offers.clear()
    with PERF.collecting() as registry:
        warm_planned = warm_scheduler.plan_job(sibling, stype, release=0)
        counters = dict(registry.counters)
    warm_offers = list(offers)
    # The committed domain drifted (a miss); the other is exact.
    assert counters.get("flow.plan_cache_misses") == 1
    assert counters.get("flow.plan_cache_hits") == 1
    assert counters.get("flow.plan_rebinds") == 1

    cold_grid, _ = drifted_grid()
    cold_scheduler = Metascheduler(cold_grid)  # fresh, empty plan cache
    offers.clear()
    with PERF.collecting() as registry:
        cold_planned = cold_scheduler.plan_job(sibling, stype, release=0)
        counters = dict(registry.counters)
    assert counters.get("flow.plan_cache_misses") == 2

    assert len(warm_offers) == len(offers) == 2
    for (warm_domain, warm), (cold_domain, cold) in zip(warm_offers,
                                                        offers):
        assert warm_domain == cold_domain
        assert strategy_snapshot(warm) == strategy_snapshot(cold)
    # Offers are compared as the plan cache serves them (an exact hit
    # may still carry the seed job's identity); the job's identity is
    # fixed at the seam, on the strategy plan_job dispatches.
    for planned in (warm_planned, cold_planned):
        assert planned.strategy.job.job_id == "sibling"
        distributions = [schedule.distribution
                         for schedule in planned.strategy.schedules
                         if schedule.distribution is not None]
        assert distributions
        assert all(d.job_id == "sibling" for d in distributions)


def test_commit_conflict_rejects_without_retries():
    scheduler = conflict_once_scheduler(0)
    scheduler.submit(simple_job(), StrategyType.S1)
    record = scheduler.dispatch()[0]
    assert not record.committed
    assert record.reason == "conflict"


def test_conflict_retry_replans_and_commits():
    """When every variant is stolen between planning and commitment,
    ``conflict_retries`` re-plans instead of rejecting outright; with
    unchanged epochs the retry is served entirely from the plan cache."""
    from repro.perf import PERF

    scheduler = conflict_once_scheduler(1)
    scheduler.submit(simple_job(), StrategyType.S1)
    with PERF.collecting() as registry:
        record = scheduler.dispatch()[0]
        counters = dict(registry.counters)
    assert record.committed
    assert record.reason == ""
    # Nothing was committed between the passes, so the retry hit the
    # cache for both domains.
    assert counters.get("flow.plan_cache_hits") == 2


@pytest.mark.parametrize("retries", [0, 1])
def test_conflict_record_counts_every_attempt(retries):
    """A record sums reallocations over the first commit attempt and
    every replan, and counts the replans, on every exit."""
    scheduler = conflict_once_scheduler(retries)
    planned = scheduler.plan_job(simple_job(), StrategyType.S1, release=0)
    stolen = len(planned.strategy.admissible_schedules())
    assert stolen >= 1
    record = scheduler.commit_planned(planned)
    assert record.committed == (retries == 1)
    assert record.replans == retries
    # Every variant of the first plan was stolen; the replan's cheapest
    # variant fits.
    assert record.reallocations == stolen


# ----------------------------------------------------------------------
# Planning input and bounded retention
# ----------------------------------------------------------------------

def _online_offers_and_digest(monkeypatch, snapshot):
    """A seeded online run: every ``plan_job`` offer, plus a content
    hash of the final calendars and of every outcome."""
    from repro.flow.simulation import OnlineConfig, OnlineSimulation
    from repro.sim import RandomStreams
    from repro.workload import generate_pool

    offers = []
    original = Metascheduler.plan_job

    def plan_job(self, job, stype, release, calendars=None):
        if snapshot and calendars is None:
            calendars = self.grid.snapshot()
        planned = original(self, job, stype, release, calendars)
        schedules = () if planned.strategy is None else tuple(
            (s.level, s.outcome.cost,
             tuple(s.distribution) if s.distribution is not None else None)
            for s in planned.strategy.schedules)
        offers.append((job.job_id, stype, release,
                       getattr(planned.manager, "domain", None), schedules))
        return planned

    config = OnlineConfig(horizon=200, mean_interarrival=6.0,
                          busy_fraction=0.3, conflict_retries=1,
                          plan_latency=4)
    with monkeypatch.context() as patch:
        patch.setattr(Metascheduler, "plan_job", plan_job)
        sim = OnlineSimulation(
            generate_pool(RandomStreams(5).stream("pool")), seed=5,
            config=config)
        outcomes = sim.run()
    hasher = hashlib.sha256()
    for node_id in sorted(sim.grid.calendars):
        for r in sim.grid.calendars[node_id].reservations:
            hasher.update(f"{node_id}:{r.start},{r.end},{r.tag}".encode())
    for o in outcomes:
        hasher.update(repr((o.job_id, o.submitted, o.committed, o.reason,
                            o.planned_makespan, o.actual_makespan,
                            o.met_deadline, o.charge)).encode())
    return offers, len(outcomes), hasher.hexdigest()


def test_plan_job_on_live_calendars_matches_snapshot_planning(monkeypatch):
    """Planning never mutates its input, so ``plan_job`` plans on the
    grid's live calendars: a seeded online run — commit-time replans
    included — gets the same offers and the same outcome digest as
    planning on a fresh snapshot per call."""
    live = _online_offers_and_digest(monkeypatch, snapshot=False)
    snapped = _online_offers_and_digest(monkeypatch, snapshot=True)
    offers, arrivals, _ = live
    assert len(offers) > arrivals  # some commits replanned
    assert live == snapped


def test_context_retention_is_bounded():
    """Planning a stream of unique jobs keeps at most the default
    capacity of job structures and plan entries, and no price memo."""
    from repro.core.context import (DEFAULT_PLAN_CAPACITY,
                                    DEFAULT_STRUCT_CAPACITY)
    from repro.workload.generator import generate_job, generate_pool

    rng = np.random.default_rng(11)
    metascheduler = Metascheduler(GridEnvironment(generate_pool(rng)))
    for index in range(200):
        metascheduler.plan_job(generate_job(rng, index), StrategyType.S1, 0)
    context = metascheduler.context
    assert DEFAULT_STRUCT_CAPACITY == DEFAULT_PLAN_CAPACITY == 64
    assert len(context._struct_caches) <= 64
    assert context._struct_caches.evictions > 0
    assert len(context.plans._entries) <= 64
    assert context.plans._entries.evictions > 0
    assert not hasattr(context, "price_memo")
