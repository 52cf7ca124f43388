"""Tests for the sharded lane.

The *shard count* is semantic — different shard counts are allowed to
(and do) produce different schedules — but every run is deterministic,
which these tests assert through :meth:`ShardedSimulation.digest` (the
content hash of every committed reservation and every outcome).
Planning is in-process only: ``workers`` accepts nothing but 1.
"""

import pytest

from repro.analysis.verify import verify_coallocation, verify_distribution
from repro.core.calendar import ReservationCalendar
from repro.core.schedule import Distribution, Placement
from repro.core.strategy import STRATEGY_SPECS, Strategy, StrategyType
from repro.flow.sharded import (ShardedConfig, ShardedOutcome,
                                ShardedSimulation)
from repro.flow.simulation import OnlineConfig, OnlineSimulation
from repro.grid.data import default_policy_models
from repro.perf import PERF
from repro.sim import RandomStreams
from repro.workload import WorkloadConfig, generate_pool
from repro.workload.generator import TemplateWorkload


def make_pool(seed=42, nodes=24, domains=6):
    return generate_pool(RandomStreams(seed).stream("pool"),
                         WorkloadConfig(pool_size=(nodes, nodes)),
                         domains=domains)


TEMPLATE_WEIGHTS = (5.0, 3.0, 1.0)


def run_sharded(shards, jobs=300, **overrides):
    config = ShardedConfig(jobs=jobs, mean_interarrival=0.05, window=4,
                           shards=shards, **overrides)
    simulation = ShardedSimulation(
        make_pool(), seed=7, config=config,
        job_factory=TemplateWorkload(TEMPLATE_WEIGHTS))
    simulation.run()
    return simulation


def test_config_validation():
    with pytest.raises(ValueError):
        ShardedConfig(jobs=0)
    with pytest.raises(ValueError):
        ShardedConfig(shards=0)
    with pytest.raises(ValueError):
        ShardedConfig(workers=0)
    with pytest.raises(ValueError, match="workers=1"):
        ShardedConfig(workers=2)
    with pytest.raises(ValueError):
        ShardedConfig(window=0)
    with pytest.raises(ValueError):
        ShardedConfig(conflict_retries=-1)
    with pytest.raises(ValueError):
        ShardedConfig(stypes=())


def test_run_is_deterministic_and_commits_jobs():
    a = run_sharded(shards=4, jobs=120)
    b = run_sharded(shards=4, jobs=120)
    assert a.digest() == b.digest()
    assert len(a.outcomes) == 120
    assert [o.index for o in a.outcomes] == sorted(
        o.index for o in a.outcomes)
    assert any(o.committed for o in a.outcomes)


def test_every_outcome_is_accounted_for():
    simulation = run_sharded(shards=2, jobs=150)
    for outcome in simulation.outcomes:
        assert isinstance(outcome, ShardedOutcome)
        if outcome.committed:
            assert outcome.reason == ""
            assert outcome.domain is not None
            assert outcome.cost is not None
        else:
            assert outcome.reason in ("inadmissible", "conflict")


def test_commits_only_touch_the_jobs_own_shard():
    simulation = run_sharded(shards=4, jobs=200)
    domain_to_shard = {
        domain: shard_id
        for shard_id, group in enumerate(simulation.partition)
        for domain in group}
    committed = [o for o in simulation.outcomes if o.committed]
    assert committed
    for outcome in committed:
        assert domain_to_shard[outcome.domain] == outcome.shard
        assert outcome.shard == outcome.index % len(simulation.metaschedulers)


def test_stats_merge_all_shard_contexts():
    simulation = run_sharded(shards=4, jobs=100)
    assert len(simulation.metaschedulers) == 4
    assert sum(len(metascheduler.context.plans)
               for metascheduler in simulation.metaschedulers) > 0


def test_admission_rate_matches_outcomes():
    simulation = run_sharded(shards=2, jobs=100)
    committed = sum(1 for o in simulation.outcomes if o.committed)
    assert simulation.admission_rate() == committed / 100


def test_template_stream_reuse_floor():
    """Windowed template arrivals are served almost entirely from cache.

    Within a window, siblings of one template hit exactly; a (template,
    family, domain) read misses only when its release or the domain's
    calendars moved since the variant was planned.  The reuse rate is
    hits / reads.
    """
    with PERF.collecting() as registry:
        run_sharded(shards=4, jobs=400)
        counters = dict(registry.counters)
    reused = counters.get("flow.plan_cache_hits", 0)
    reads = reused + counters.get("flow.plan_cache_misses", 0)
    assert reused / reads >= 0.80


def run_online_template(horizon=30):
    """The online lane on the same pool and template mix: plans are
    committed ``plan_latency`` slots after planning, so many are
    conflicted or rejected by then."""
    config = OnlineConfig(horizon=horizon, mean_interarrival=0.12,
                          busy_fraction=0.25, conflict_retries=2,
                          plan_latency=10,
                          stypes=(StrategyType.S1, StrategyType.S2))
    simulation = OnlineSimulation(
        make_pool(), seed=7, config=config,
        job_factory=TemplateWorkload(TEMPLATE_WEIGHTS))
    simulation.run()
    return simulation


@pytest.mark.parametrize("lane", ["sharded", "online"])
def test_plan_cache_hits_are_copied_only_when_booked(lane, monkeypatch):
    """Exact hits are served uncopied: both lanes rebind a sibling's
    plan only for the variant they book, so a run makes at most one
    ``Strategy.rebind`` copy per committed arrival, however many hits
    its rejected and conflicted arrivals were served."""
    rebind = Strategy.rebind
    copies = []

    def counting_rebind(self, job):
        rebound = rebind(self, job)
        if rebound is not self:
            copies.append(job.job_id)
        return rebound

    monkeypatch.setattr(Strategy, "rebind", counting_rebind)
    with PERF.collecting() as registry:
        if lane == "sharded":
            simulation = run_sharded(shards=2, jobs=300)
        else:
            simulation = run_online_template()
        rebinds = registry.counters.get("flow.plan_rebinds", 0)
    committed = {o.job_id for o in simulation.outcomes if o.committed}
    assert committed
    assert rebinds > 10 * len(committed)
    assert len(copies) <= len(committed)
    assert set(copies) <= committed


def booked_distributions(simulation):
    """Each job's booked schedule, rebuilt from the calendar tags
    (``"<job id>:<task id>"``): the lane keeps no distributions."""
    placements = {}
    for node_id, calendar in simulation.grid.calendars.items():
        for reservation in calendar.reservations:
            if reservation.tag == "background":
                continue
            job_id, task_id = reservation.tag.split(":", 1)
            placements.setdefault(job_id, []).append(
                Placement(task_id, node_id, reservation.start,
                          reservation.end))
    return {job_id: Distribution(job_id, items)
            for job_id, items in placements.items()}


@pytest.mark.parametrize("shards", [1, 4])
def test_booked_schedules_verify(shards):
    """Every committed arrival — most of them booked from a plan rebound
    off a template sibling — holds a schedule that verifies at its
    window's release under its family's data policy, and the booked set
    shares the pool with the background load without overcommit."""
    simulation = run_sharded(shards=shards, jobs=300)
    booked = booked_distributions(simulation)
    committed = [o for o in simulation.outcomes if o.committed]
    assert committed
    assert set(booked) == {o.job_id for o in committed}

    window = simulation.config.window
    release = {index: (window_index + 1) * window
               for window_index, indices in simulation._arrival_windows()
               for index in indices}
    factory = TemplateWorkload(TEMPLATE_WEIGHTS)
    streams = RandomStreams(simulation.seed)
    models = default_policy_models()
    for outcome in committed:
        distribution = booked[outcome.job_id]
        assert distribution.makespan == outcome.makespan
        job = factory(streams.fork("jobs", outcome.index), outcome.index)
        assert job.job_id == outcome.job_id
        report = verify_distribution(
            job, distribution, simulation.pool,
            transfer_model=models[STRATEGY_SPECS[outcome.stype].policy],
            release=release[outcome.index])
        assert report.ok, report.summary()

    background = {
        node_id: ReservationCalendar(
            r for r in calendar.reservations if r.tag == "background")
        for node_id, calendar in simulation.grid.calendars.items()}
    report = verify_coallocation(list(booked.values()), simulation.pool,
                                 background)
    assert report.ok, report.summary()
