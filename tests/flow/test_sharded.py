"""Differential tests for the sharded batch engine.

The engine's whole contract is in two equalities:

* the *shard count* is semantic — different shard counts are allowed
  to (and do) produce different schedules, but every run is
  deterministic; and
* the *worker count* is pure transport — for any shard count, any
  worker count is bit-identical to the in-process lane (``workers=1``),
  which these tests assert through :meth:`ShardedSimulation.digest`
  (the content hash of every committed reservation and every outcome).

The configs here are deliberately small (hundreds of jobs) but use a
tiny ``sync_interval`` so the worker lane is forced through several
shared-memory re-exports and delta-log replays per run.
"""

import pytest

from repro.core.context import PlanCache
from repro.flow.sharded import (ShardedConfig, ShardedOutcome,
                                ShardedSimulation)
from repro.perf import PERF
from repro.sim import RandomStreams
from repro.workload import WorkloadConfig, generate_pool
from repro.workload.generator import template_workload_factory


def make_pool(seed=42, nodes=24, domains=6):
    return generate_pool(RandomStreams(seed).stream("pool"),
                         WorkloadConfig(pool_size=(nodes, nodes)),
                         domains=domains)


def run_sharded(shards, workers=1, jobs=300, sync_interval=8, **overrides):
    config = ShardedConfig(jobs=jobs, mean_interarrival=0.05, window=4,
                           shards=shards, workers=workers,
                           sync_interval=sync_interval, **overrides)
    simulation = ShardedSimulation(
        make_pool(), seed=7, config=config,
        job_factory=template_workload_factory((5.0, 3.0, 1.0)))
    simulation.run()
    return simulation


def test_config_validation():
    with pytest.raises(ValueError):
        ShardedConfig(jobs=0)
    with pytest.raises(ValueError):
        ShardedConfig(shards=0)
    with pytest.raises(ValueError):
        ShardedConfig(workers=0)
    with pytest.raises(ValueError):
        ShardedConfig(window=0)
    with pytest.raises(ValueError):
        ShardedConfig(sync_interval=0)
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


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("workers", [2, 4])
def test_worker_lane_is_bit_identical(shards, workers):
    """Any worker count reproduces the in-process lane bit for bit."""
    sequential = run_sharded(shards=shards, workers=1)
    fanned = run_sharded(shards=shards, workers=workers)
    assert fanned.digest() == sequential.digest()


def test_tiny_sync_interval_forces_reexports():
    """With sync_interval=1 every window re-exports; still identical."""
    sequential = run_sharded(shards=2, workers=1, jobs=150)
    fanned = run_sharded(shards=2, workers=2, jobs=150, sync_interval=1)
    assert fanned.digest() == sequential.digest()


def test_coarse_seed_tier_is_bit_identical(monkeypatch):
    """Disabling the coarse fallback must not change any schedule.

    Coarse seeds only warm-start the DP; exact pruning discards hints
    that no longer fit, so outcomes are independent of whether the
    tier served anything.
    """
    with_coarse = run_sharded(shards=2, jobs=150)
    monkeypatch.setattr(PlanCache, "coarse_seed",
                        lambda self, stype, domain, node_ids: None)
    without_coarse = run_sharded(shards=2, jobs=150)
    assert without_coarse.digest() == with_coarse.digest()


def test_worker_perf_counters_are_merged():
    """Planning counters from worker processes land in the parent."""
    PERF.enable()
    try:
        base = PERF.snapshot()
        run_sharded(shards=2, workers=2, jobs=100)
        delta = PERF.delta(base)
    finally:
        PERF.disable()
    # All planning happened in the workers; without the merge these
    # counters would read zero in the parent.
    counters = delta["counters"]
    planned = sum(counters.get(name, 0)
                  for name in ("flow.plan_cache_hits",
                               "flow.plan_cache_misses",
                               "flow.plan_repairs"))
    assert planned > 0


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
