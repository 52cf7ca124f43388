"""Integration tests: the whole framework working together."""

import numpy as np
import pytest

from repro.core import (
    CriticalWorksScheduler,
    StrategyGenerator,
    StrategyType,
)
from repro.core.schedule import check_distribution
from repro.core.transfers import transfer_time_fn
from repro.flow import VirtualOrganization, strategy_time_to_live
from repro.grid import (
    BookedJob,
    GridEnvironment,
    replay_fcfs,
    simulate_execution,
)
from repro.grid.data import default_policy_models
from repro.sim import RandomStreams
from repro.workload import generate_job, generate_pool


@pytest.fixture()
def seeded_world():
    streams = RandomStreams(2009)
    pool = generate_pool(streams.stream("pool"), domains=2)
    return streams, pool


def test_vo_flow_end_to_end(seeded_world):
    """Submit → plan → commit → replay, with invariants at every step."""
    streams, pool = seeded_world
    vo = VirtualOrganization(pool)
    vo.register_user("user", budget=100000)
    vo.preload_background(streams.stream("background"),
                          busy_fraction=0.2, horizon=300)

    jobs = [generate_job(streams.fork("jobs", i), i, owner="user")
            for i in range(10)]
    stypes = [StrategyType.S1, StrategyType.S2, StrategyType.S3,
              StrategyType.MS1]
    records = vo.run_flow(
        (job, stypes[i % 4]) for i, job in enumerate(jobs))

    assert len(records) == 10
    committed = [r for r in records if r.committed]
    assert committed, "at least some jobs must commit"

    models = default_policy_models()
    for record in committed:
        strategy = record.strategy
        scheduled = strategy.scheduled_job
        distribution = record.chosen.distribution
        # The committed schedule is structurally valid at its level.
        manager_pool = [m for m in vo.metascheduler.managers
                        if m.domain == record.domain][0].pool
        violations = check_distribution(
            scheduled, distribution, manager_pool,
            transfer_time_fn(models[strategy.spec.policy]),
            estimation_level=record.chosen.level)
        assert violations == []
        # The user was charged the CF quote.
        assert record.charge is not None and record.charge > 0

    # Replay a committed job with its planned level: punctual.
    record = committed[0]
    manager_pool = [m for m in vo.metascheduler.managers
                    if m.domain == record.domain][0].pool
    trace = simulate_execution(
        record.strategy.scheduled_job, record.chosen.distribution,
        manager_pool, actual_level=record.chosen.level,
        transfer_model=models[record.strategy.spec.policy])
    assert all(run.start_deviation == 0 for run in trace.runs.values())


def test_committed_reservations_execute_on_des(seeded_world):
    """Replay committed distributions on the shared nodes, first come,
    first served."""
    streams, pool = seeded_world
    environment = GridEnvironment(pool)
    job = generate_job(streams.fork("jobs", 0), 0)
    generator = StrategyGenerator(pool)
    strategy = generator.generate(job, environment.snapshot(),
                                  StrategyType.S1)
    chosen = strategy.best_schedule()
    assert chosen is not None
    environment.commit_distribution(chosen.distribution)
    # A second job booked around the first on the same environment.
    other = generator.generate(generate_job(streams.fork("jobs", 1), 1),
                               environment.snapshot(), StrategyType.S1)
    assert other.best_schedule() is not None
    environment.commit_distribution(other.best_schedule().distribution)

    models = default_policy_models()
    booked = [BookedJob(s.scheduled_job, s.best_schedule().distribution,
                        s.best_schedule().level, models[s.spec.policy])
              for s in (strategy, other)]
    traces = replay_fcfs(booked, pool)
    # Reservation-driven execution at the planned level: every task ran
    # exactly in its slot, and neither job delayed the other.
    for item, trace in zip(booked, traces):
        for placement in item.distribution:
            run = trace.runs[placement.task_id]
            assert (run.actual_start, run.actual_end) == (
                placement.start, placement.end)


def test_strategy_survives_and_dies_consistently(seeded_world):
    streams, pool = seeded_world
    environment = GridEnvironment(pool)
    environment.apply_background_load(streams.stream("background"),
                                      busy_fraction=0.3, horizon=200)
    job = generate_job(streams.fork("jobs", 3), 3)
    strategy = StrategyGenerator(pool).generate(
        job, environment.snapshot(), StrategyType.S1)
    if not strategy.admissible:
        pytest.skip("background made this job inadmissible")

    # Without drift the strategy lives to the horizon.
    assert strategy_time_to_live(strategy, [], 500).ttl == 500
    # Saturating every node kills it at the first event.
    from repro.grid.environment import BackgroundEvent

    flood = [BackgroundEvent(7, node.node_id, 0, 10_000) for node in pool]
    result = strategy_time_to_live(strategy, flood, 500)
    assert not result.survived
    assert result.ttl == 7


def test_scheduler_families_share_one_environment(seeded_world):
    """All four families schedule the same job on the same snapshot;
    their outcomes are structurally valid against their own job view."""
    streams, pool = seeded_world
    environment = GridEnvironment(pool)
    environment.apply_background_load(streams.stream("background"),
                                      busy_fraction=0.2, horizon=300)
    job = generate_job(streams.fork("jobs", 5), 5)
    generator = StrategyGenerator(pool)
    calendars = environment.snapshot()
    models = default_policy_models()

    for stype in StrategyType:
        strategy = generator.generate(job, calendars, stype)
        for schedule in strategy.admissible_schedules():
            violations = check_distribution(
                strategy.scheduled_job, schedule.distribution, pool,
                transfer_time_fn(models[strategy.spec.policy]),
                estimation_level=schedule.level)
            assert violations == [], (stype, schedule.level)
            # Placements avoid the pre-existing background load.
            for placement in schedule.distribution:
                assert calendars[placement.node_id].is_free(
                    placement.start, placement.end)
