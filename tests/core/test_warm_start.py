"""A warm generator generates exactly what a cold one does.

Strategy generation runs every estimation level cold: a strategy
depends only on the job, the calendars, the family's configuration and
the release.  A generator that has already planned other jobs and other
families ("warm": its context holds their task tables and rankings, and
the calendars hold their fit witnesses) must therefore return, field by
field, what a fresh generator returns on fresh copies of the calendars —
``evaluations`` and ``generation_expense`` included.  The property
version of this check is ``test_strategies_depend_only_on_generation_
inputs`` in ``tests/property/test_dp_properties.py``.
"""

import numpy as np
import pytest

from repro.core.calendar import ReservationCalendar
from repro.core.strategy import StrategyGenerator, StrategyType
from repro.grid.environment import GridEnvironment
from repro.perf import PERF
from repro.workload.generator import generate_job, generate_pool
from repro.workload.paper_example import fig2_job, fig2_pool


def outcomes_equal(warm, cold):
    """Field-by-field equality of two SchedulingOutcomes."""
    assert warm.job_id == cold.job_id
    assert warm.level == cold.level
    assert warm.admissible == cold.admissible
    assert warm.cost == cold.cost
    assert warm.makespan == cold.makespan
    assert warm.collisions == cold.collisions
    assert warm.evaluations == cold.evaluations
    if cold.distribution is None:
        assert warm.distribution is None
    else:
        assert warm.distribution is not None
        assert list(warm.distribution) == list(cold.distribution)


def strategies_equal(warm, cold):
    assert [s.level for s in warm.schedules] == [
        s.level for s in cold.schedules]
    for warm_schedule, cold_schedule in zip(warm.schedules, cold.schedules):
        outcomes_equal(warm_schedule.outcome, cold_schedule.outcome)
    assert warm.generation_expense == cold.generation_expense


def fresh_calendars(calendars):
    """Equal calendars under new content versions (no fit witnesses)."""
    return {node_id: ReservationCalendar(calendar.reservations)
            for node_id, calendar in calendars.items()}


def warmed_generator(pool, calendars, rng=None):
    """A generator that has planned every family of another job."""
    generator = StrategyGenerator(pool)
    other = (generate_job(rng, 99) if rng is not None
             else generate_job(np.random.default_rng(99), 99))
    for stype in StrategyType:
        generator.generate(other, calendars, stype)
    return generator


def generate_both(warm_generator, pool, job, calendars, stype, release=0):
    warm = warm_generator.generate(job, calendars, stype, release=release)
    cold = StrategyGenerator(pool).generate(
        job, fresh_calendars(calendars), stype, release=release)
    return warm, cold


@pytest.mark.parametrize("stype", list(StrategyType))
def test_fig2_warm_equals_cold_on_empty_calendars(stype):
    pool, job = fig2_pool(), fig2_job()
    calendars = GridEnvironment(pool).snapshot()
    generator = warmed_generator(pool, calendars)
    warm, cold = generate_both(generator, pool, job, calendars, stype)
    strategies_equal(warm, cold)


@pytest.mark.parametrize("stype", list(StrategyType))
@pytest.mark.parametrize("seed", [3, 5, 8])
def test_fig2_warm_equals_cold_under_background_load(stype, seed):
    pool, job = fig2_pool(), fig2_job()
    environment = GridEnvironment(pool)
    environment.apply_background_load(
        np.random.default_rng(seed), 0.4, 120)
    calendars = environment.snapshot()
    generator = warmed_generator(pool, calendars)
    warm, cold = generate_both(generator, pool, job, calendars, stype)
    strategies_equal(warm, cold)


@pytest.mark.parametrize("seed", [7, 11, 2009])
def test_random_workloads_warm_equals_cold(seed):
    rng = np.random.default_rng(seed)
    pool = generate_pool(rng)
    environment = GridEnvironment(pool)
    environment.apply_background_load(rng, 0.3, 200)
    calendars = environment.snapshot()
    generator = warmed_generator(pool, calendars, rng)
    for index in range(4):
        job = generate_job(rng, index)
        for stype in (StrategyType.S1, StrategyType.S2, StrategyType.MS1):
            warm, cold = generate_both(generator, pool, job, calendars,
                                       stype)
            strategies_equal(warm, cold)


def test_warm_start_actually_saves_work_under_load():
    """On a loaded pool, a generator that already planned a job reads
    the job's task tables and rankings from its context instead of
    rebuilding them (otherwise the shared context is dead weight), and
    returns the same strategy."""
    rng = np.random.default_rng(2009)
    pool = generate_pool(rng)
    environment = GridEnvironment(pool)
    environment.apply_background_load(rng, 0.5, 300)
    calendars = environment.snapshot()
    generator = StrategyGenerator(pool)
    for index in range(3):
        job = generate_job(rng, index)
        with PERF.collecting() as registry:
            cold = generator.generate(job, calendars, StrategyType.S1)
            built = registry.counters.get("dp.duration_cache_misses", 0)
        with PERF.collecting() as registry:
            warm = generator.generate(job, calendars, StrategyType.S1)
            rebuilt = registry.counters.get("dp.duration_cache_misses", 0)
            ranked = registry.counters.get(
                "critical_works.rank_cache_misses", 0)
        strategies_equal(warm, cold)
        assert built > 0
        assert rebuilt == 0
        assert ranked == 0
