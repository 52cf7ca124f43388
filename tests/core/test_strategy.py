"""Unit tests for strategy generation (S1, S2, S3, MS1)."""

import pytest

from repro.core.calendar import ReservationCalendar
from repro.core.strategy import (
    EXTREME_LEVELS,
    FULL_LEVELS,
    STRATEGY_SPECS,
    DataPolicyKind,
    StrategyGenerator,
    StrategyType,
)
from repro.workload.paper_example import fig2_job, fig2_pool


@pytest.fixture()
def generator():
    return StrategyGenerator(fig2_pool())


def empty_calendars(pool):
    return {node.node_id: ReservationCalendar() for node in pool}


def test_specs_cover_all_families():
    assert set(STRATEGY_SPECS) == set(StrategyType)
    assert STRATEGY_SPECS[StrategyType.S1].policy is DataPolicyKind.REPLICATION
    assert STRATEGY_SPECS[StrategyType.S2].policy is DataPolicyKind.REMOTE_ACCESS
    assert STRATEGY_SPECS[StrategyType.S3].policy is DataPolicyKind.STATIC
    assert STRATEGY_SPECS[StrategyType.MS1].policy is DataPolicyKind.REPLICATION


def test_only_s3_is_coarse():
    assert STRATEGY_SPECS[StrategyType.S3].coarse
    for stype in (StrategyType.S1, StrategyType.S2, StrategyType.MS1):
        assert not STRATEGY_SPECS[stype].coarse


def test_ms1_has_extreme_levels_only():
    assert STRATEGY_SPECS[StrategyType.MS1].levels == EXTREME_LEVELS
    assert STRATEGY_SPECS[StrategyType.S1].levels == FULL_LEVELS


def test_generate_s1_produces_level_variants(generator):
    job = fig2_job()
    strategy = generator.generate(job, empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    assert [s.level for s in strategy.schedules] == list(FULL_LEVELS)
    assert strategy.stype is StrategyType.S1
    assert strategy.scheduled_job is job  # fine grain: unchanged


def test_generate_s3_coarsens_job(generator):
    job = fig2_job(deadline=40)
    strategy = generator.generate(job, empty_calendars(fig2_pool()),
                                  StrategyType.S3)
    assert len(strategy.scheduled_job) <= len(job)
    assert strategy.job is job


def test_s1_admissible_on_empty_environment(generator):
    strategy = generator.generate(fig2_job(), empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    assert strategy.admissible
    assert strategy.coverage > 0
    best = strategy.best_schedule()
    assert best is not None
    assert best.outcome.cost is not None


def test_ms1_cheaper_to_generate_than_s1(generator):
    """Section 4: 'The type S1 has more computational expenses than MS1.'"""
    job = fig2_job()
    calendars = empty_calendars(fig2_pool())
    s1 = generator.generate(job, calendars, StrategyType.S1)
    ms1 = generator.generate(job, calendars, StrategyType.MS1)
    assert s1.generation_expense > ms1.generation_expense


def test_ms1_coverage_not_exceeding_s1(generator):
    job = fig2_job()
    calendars = empty_calendars(fig2_pool())
    s1 = generator.generate(job, calendars, StrategyType.S1)
    ms1 = generator.generate(job, calendars, StrategyType.MS1)
    assert len(ms1.schedules) < len(s1.schedules)


def test_schedule_for_level_picks_covering_variant(generator):
    strategy = generator.generate(fig2_job(deadline=40),
                                  empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    covering = strategy.schedule_for_level(0.5)
    assert covering is not None
    assert covering.level >= 0.5
    exact = strategy.schedule_for_level(1 / 3)
    assert exact is not None
    assert exact.level == pytest.approx(1 / 3)


def test_schedule_for_level_none_when_uncovered(generator):
    strategy = generator.generate(fig2_job(deadline=5),  # inadmissible
                                  empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    assert not strategy.admissible
    assert strategy.schedule_for_level(0.0) is None
    assert strategy.best_schedule() is None
    assert strategy.coverage == 0.0


def test_all_collisions_aggregates(generator):
    strategy = generator.generate(fig2_job(), empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    assert (len(strategy.all_collisions())
            == sum(len(s.outcome.collisions) for s in strategy.schedules))


def test_unknown_policy_model_raises():
    generator = StrategyGenerator(fig2_pool(), policy_models={})
    with pytest.raises(KeyError):
        generator.generate(fig2_job(), empty_calendars(fig2_pool()),
                           StrategyType.S1)


def test_spec_property_roundtrip(generator):
    strategy = generator.generate(fig2_job(), empty_calendars(fig2_pool()),
                                  StrategyType.S2)
    assert strategy.spec is STRATEGY_SPECS[StrategyType.S2]


# ----------------------------------------------------------------------
# Level-covering filter
# ----------------------------------------------------------------------

def test_covering_schedules_filters_by_level(generator):
    strategy = generator.generate(fig2_job(), empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    covering = strategy.covering_schedules(0.5)
    assert covering
    assert all(s.level >= 0.5 for s in covering)
    assert all(s.admissible for s in covering)
    # Level 0 covers everything admissible.
    assert strategy.covering_schedules(0.0) == strategy.admissible_schedules()


def test_covering_schedules_tolerates_float_noise(generator):
    from repro.core.strategy import LEVEL_EPS

    strategy = generator.generate(fig2_job(), empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    top = max(s.level for s in strategy.admissible_schedules())
    # A query an epsilon above an exact level must not drop the exact
    # variant (the classic 0.1 + 0.2 style float mishap).
    barely_above = top + LEVEL_EPS / 2
    assert any(s.level == top
               for s in strategy.covering_schedules(barely_above))
    clearly_above = top + 1e-6
    assert all(s.level > top or s.level >= clearly_above - LEVEL_EPS
               for s in strategy.covering_schedules(clearly_above))


def test_schedule_for_level_consistent_with_covering(generator):
    strategy = generator.generate(fig2_job(), empty_calendars(fig2_pool()),
                                  StrategyType.S1)
    for level in (0.0, 0.3, 0.5, 0.9):
        chosen = strategy.schedule_for_level(level)
        covering = strategy.covering_schedules(level)
        if covering:
            assert chosen in covering
        else:
            assert chosen is None


def test_s3_job50_keeps_its_skip_edge_precedence():
    """Pinned S3 precedence case: job 50 of seed 2009 on a half-loaded
    25-node pool.  Its coarsened job has a skip edge P1+P2 → P3+P5 on
    one critical work; P3+P5 once started before P1+P2's output could
    arrive (at 24, before 19 + transfer 6).  Honouring the edge, the job
    no longer fits its deadline; with a looser one it is placed, and
    every placement must verify."""
    from repro.analysis.verify import verify_strategy
    from repro.core.job import Job
    from repro.grid.data import default_policy_models
    from repro.grid.environment import GridEnvironment
    from repro.sim import RandomStreams
    from repro.workload.generator import generate_job, generate_pool

    streams = RandomStreams(2009)
    pool = generate_pool(RandomStreams(5).stream("pool"))
    grid = GridEnvironment(pool)
    grid.apply_background_load(streams.stream("background"), 0.5, 400)
    job = generate_job(streams.fork("jobs", 50), 50)
    generator = StrategyGenerator(pool)
    model = default_policy_models()[STRATEGY_SPECS[StrategyType.S3].policy]
    strategy = generator.generate(job, grid.snapshot(), StrategyType.S3)
    assert not strategy.admissible
    assert verify_strategy(strategy, pool, transfer_model=model).ok

    loose = Job(job.job_id, job.tasks.values(), job.transfers,
                deadline=2 * job.deadline)
    strategy = generator.generate(loose, grid.snapshot(), StrategyType.S3)
    assert strategy.admissible
    report = verify_strategy(strategy, pool, transfer_model=model)
    assert report.ok, report.summary()
