"""Tests for the online (DES-driven) framework simulation."""

import pytest

from repro.core.strategy import StrategyType
from repro.flow.simulation import JobOutcome, OnlineConfig, OnlineSimulation
from repro.sim import RandomStreams
from repro.workload import generate_pool


def make_pool(seed=5):
    return generate_pool(RandomStreams(seed).stream("pool"))


def test_config_validation():
    with pytest.raises(ValueError):
        OnlineConfig(horizon=0)
    with pytest.raises(ValueError):
        OnlineConfig(mean_interarrival=0)
    with pytest.raises(ValueError):
        OnlineConfig(stypes=())


def test_outcome_slack():
    outcome = JobOutcome("j", StrategyType.S1, submitted=0, committed=True,
                         planned_makespan=10, actual_makespan=8)
    assert outcome.slack == 2
    assert JobOutcome("j", StrategyType.S1, 0, False).slack is None


def test_run_is_deterministic():
    config = OnlineConfig(horizon=150)
    a = OnlineSimulation(make_pool(), seed=5, config=config).run()
    b = OnlineSimulation(make_pool(), seed=5, config=config).run()
    assert [(o.job_id, o.committed, o.actual_makespan) for o in a] == [
        (o.job_id, o.committed, o.actual_makespan) for o in b]


def test_punctual_mode_never_runs_late():
    """With actual levels within plan, every job meets its schedule."""
    config = OnlineConfig(horizon=200, actual_within_plan=True)
    simulation = OnlineSimulation(make_pool(), seed=5, config=config)
    outcomes = simulation.run()
    executed = [o for o in outcomes if o.actual_makespan is not None]
    assert executed
    for outcome in executed:
        assert outcome.slack is not None and outcome.slack >= 0
        assert outcome.met_deadline


def test_overrun_mode_can_run_late():
    """Unbounded actual levels produce at least some lateness."""
    config = OnlineConfig(horizon=250, mean_interarrival=8.0,
                          actual_within_plan=False)
    simulation = OnlineSimulation(make_pool(), seed=5, config=config)
    outcomes = simulation.run()
    executed = [o for o in outcomes if o.slack is not None]
    assert executed
    assert any(o.slack < 0 for o in executed)
    # Punctual mode on the same arrivals is never worse on average.
    punctual = OnlineSimulation(
        make_pool(), seed=5,
        config=OnlineConfig(horizon=250, mean_interarrival=8.0,
                            actual_within_plan=True)).run()
    mean_late = sum(min(0, o.slack) for o in executed) / len(executed)
    assert mean_late <= 0


def test_strategy_cycle_assignment():
    config = OnlineConfig(horizon=200,
                          stypes=(StrategyType.S1, StrategyType.S3))
    outcomes = OnlineSimulation(make_pool(), seed=5, config=config).run()
    assert {o.stype for o in outcomes} <= {StrategyType.S1,
                                           StrategyType.S3}
    assert [o.stype for o in outcomes[:2]] == [StrategyType.S1,
                                               StrategyType.S3]


def test_metrics_are_consistent():
    simulation = OnlineSimulation(make_pool(), seed=5,
                                  config=OnlineConfig(horizon=150))
    outcomes = simulation.run()
    committed = sum(1 for o in outcomes if o.committed)
    assert simulation.admission_rate() == pytest.approx(
        committed / len(outcomes))
    utilization = simulation.node_utilization()
    assert all(0.0 <= value <= 1.0 for value in utilization.values())
    # Committed jobs did execute on the agents.
    total_runs = sum(len(agent.completed)
                     for agent in simulation.agents.values())
    assert total_runs > 0
    # Everything admitted eventually ran to completion.
    assert all(o.actual_makespan is not None
               for o in outcomes if o.committed)


def test_background_load_reduces_admission():
    light = OnlineSimulation(
        make_pool(), seed=5,
        config=OnlineConfig(horizon=200, busy_fraction=0.0))
    heavy = OnlineSimulation(
        make_pool(), seed=5,
        config=OnlineConfig(horizon=200, busy_fraction=0.6))
    assert light.run() and heavy.run()
    assert heavy.admission_rate() <= light.admission_rate()


def test_conflict_retries_config_validation():
    with pytest.raises(ValueError):
        OnlineConfig(conflict_retries=-1)
    config = OnlineConfig(conflict_retries=2)
    assert config.conflict_retries == 2


def test_plan_latency_validation():
    with pytest.raises(ValueError):
        OnlineConfig(plan_latency=-1)
    assert OnlineConfig(plan_latency=3).plan_latency == 3


def test_plan_latency_exercises_plan_cache():
    """With a decision lag, other commitments land between a job's plan
    and its commit; conflicted jobs replan through the epoch-keyed
    cache, so the online run produces real cache hits (the bench
    scenario's configuration — the cache used to be dead there)."""
    from repro.perf import PERF

    config = OnlineConfig(horizon=400, mean_interarrival=6.0,
                          busy_fraction=0.3, conflict_retries=1,
                          plan_latency=4)
    pool = generate_pool(RandomStreams(2009).stream("bench.online_pool"))
    simulation = OnlineSimulation(pool, seed=2009, config=config)
    with PERF.collecting() as registry:
        outcomes = simulation.run()
        counters = dict(registry.counters)
    assert any(o.committed for o in outcomes)
    assert counters.get("flow.plan_cache_hits", 0) > 0
    # Every planned job was eventually committed or recorded as refused.
    assert len(simulation.metascheduler.records) == len(outcomes)


def test_conflict_retries_reach_metascheduler():
    sim = OnlineSimulation(make_pool(), seed=5,
                           config=OnlineConfig(horizon=10,
                                               conflict_retries=3))
    assert sim.metascheduler.conflict_retries == 3


def test_template_flash_crowd_reuse_floor():
    """A two-template flash crowd is served mostly from the plan cache.

    Scaled-down shape of the plan-reuse scenario: dense arrivals of two
    job templates (70/30) with a long decision lag, so most commits
    land against a mostly-frozen environment and same-template arrivals
    resolve to exact hits or warm repairs.  A disabled or mis-keyed
    plan cache drops the reuse rate far below the floor.
    """
    from repro.perf import PERF
    from repro.workload.generator import TemplateWorkload

    config = OnlineConfig(horizon=30, mean_interarrival=0.12,
                          busy_fraction=0.25, conflict_retries=2,
                          plan_latency=10,
                          stypes=(StrategyType.S1, StrategyType.S2))
    pool = generate_pool(RandomStreams(2009).stream("flash_crowd_pool"))
    simulation = OnlineSimulation(pool, seed=2009, config=config,
                                  job_factory=TemplateWorkload((0.7, 0.3)))
    with PERF.collecting() as registry:
        simulation.run()
        counters = dict(registry.counters)
    reused = (counters.get("flow.plan_cache_hits", 0)
              + counters.get("flow.plan_repairs", 0))
    reads = reused + counters.get("flow.plan_cache_misses", 0)
    assert reused / reads >= 0.50
