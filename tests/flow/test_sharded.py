"""Tests for the sharded lane.

The *shard count* is semantic — different shard counts are allowed to
(and do) produce different schedules — but every run is deterministic,
which these tests assert through :meth:`ShardedSimulation.digest` (the
content hash of every committed reservation and every outcome).
Planning is in-process only: ``workers`` accepts nothing but 1.
"""

import pytest

from repro.core.context import PlanCache
from repro.flow.sharded import (ShardedConfig, ShardedOutcome,
                                ShardedSimulation)
from repro.perf import PERF
from repro.sim import RandomStreams
from repro.workload import WorkloadConfig, generate_pool
from repro.workload.generator import TemplateWorkload


def make_pool(seed=42, nodes=24, domains=6):
    return generate_pool(RandomStreams(seed).stream("pool"),
                         WorkloadConfig(pool_size=(nodes, nodes)),
                         domains=domains)


def run_sharded(shards, jobs=300, **overrides):
    config = ShardedConfig(jobs=jobs, mean_interarrival=0.05, window=4,
                           shards=shards, **overrides)
    simulation = ShardedSimulation(
        make_pool(), seed=7, config=config,
        job_factory=TemplateWorkload((5.0, 3.0, 1.0)))
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
        assert outcome.shard == outcome.index % len(simulation.planners)


def test_repair_seeds_are_bit_identical(monkeypatch):
    """Turning every warm repair into a cold miss must not change any
    schedule.

    Repair seeds only warm-start the DP; exact pruning discards hints
    that no longer fit, so outcomes are independent of whether the
    cache seeded anything.
    """
    with PERF.collecting() as registry:
        with_repairs = run_sharded(shards=2, jobs=150)
        repairs = registry.counters.get("flow.plan_repairs", 0)
    assert repairs > 0
    monkeypatch.setattr(PlanCache, "repair_seed",
                        lambda self, structural_hash, stype, domain: None)
    without_repairs = run_sharded(shards=2, jobs=150)
    assert without_repairs.digest() == with_repairs.digest()


def test_stats_merge_all_shard_contexts():
    simulation = run_sharded(shards=4, jobs=100)
    stats = simulation.stats()
    assert "flow.plan_cache" in stats
    assert stats["flow.plan_cache"]["entries"] > 0


def test_admission_rate_matches_outcomes():
    simulation = run_sharded(shards=2, jobs=100)
    committed = sum(1 for o in simulation.outcomes if o.committed)
    assert simulation.admission_rate() == committed / 100


def test_template_stream_reuse_floor():
    """Windowed template arrivals are served almost entirely from cache.

    Within a window, siblings of one template hit exactly; across
    windows they at worst repair, so only the first (template, family,
    domain) probe of a window may miss.
    """
    with PERF.collecting() as registry:
        simulation = run_sharded(shards=4, jobs=400)
        counters = dict(registry.counters)
    stats = simulation.stats(counters)
    assert stats["flow.plan_cache"]["reuse_rate"] >= 0.80
