"""Unit tests for the random workload generator."""

import numpy as np
import pytest

from repro.core.resources import NodeGroup
from repro.workload.generator import (
    WorkloadConfig,
    generate_job,
    generate_pool,
    generate_workload,
    TemplateWorkload,
)


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(layers=(3, 1))
    with pytest.raises(ValueError):
        WorkloadConfig(layers=(0, 2))
    with pytest.raises(ValueError):
        WorkloadConfig(parallelism=(0, 3))
    with pytest.raises(ValueError):
        WorkloadConfig(base_time=(0, 3))
    with pytest.raises(ValueError):
        WorkloadConfig(fast_share=0.8, medium_share=0.5)


def test_generate_job_structure():
    job = generate_job(np.random.default_rng(0), 0)
    assert len(job.sources()) == 1
    assert len(job.sinks()) == 1
    assert job.deadline >= job.minimal_makespan(1.0)
    # Every non-source task has a predecessor, every non-sink a successor.
    for task_id in job.tasks:
        if task_id not in job.sources():
            assert job.predecessors(task_id)
        if task_id not in job.sinks():
            assert job.successors(task_id)


def test_generate_job_estimate_spread():
    config = WorkloadConfig(estimate_spread=(2.0, 3.0))
    job = generate_job(np.random.default_rng(1), 0, config)
    for task in job.tasks.values():
        assert task.worst_time >= 2 * task.best_time
        # ceil can push slightly past 3x the best time.
        assert task.worst_time <= 3 * task.best_time + 1


def test_generate_job_is_deterministic():
    a = generate_job(np.random.default_rng(7), 0)
    b = generate_job(np.random.default_rng(7), 0)
    assert list(a.tasks) == list(b.tasks)
    assert a.deadline == b.deadline
    assert [t.transfer_id for t in a.transfers] == [
        t.transfer_id for t in b.transfers]


def test_generate_workload_fork_independence():
    jobs_all = list(generate_workload(seed=3, n_jobs=5))
    job2_alone = list(generate_workload(seed=3, n_jobs=3))[2]
    assert list(jobs_all[2].tasks) == list(job2_alone.tasks)
    assert jobs_all[2].deadline == job2_alone.deadline


def test_generate_workload_count_and_ids():
    jobs = list(generate_workload(seed=0, n_jobs=4))
    assert [job.job_id for job in jobs] == [
        "job0", "job1", "job2", "job3"]
    with pytest.raises(ValueError):
        list(generate_workload(seed=0, n_jobs=-1))


def test_generate_pool_size_and_groups():
    pool = generate_pool(np.random.default_rng(0))
    assert 20 <= len(pool) <= 30
    assert pool.by_group(NodeGroup.FAST)
    assert pool.by_group(NodeGroup.MEDIUM)
    assert pool.by_group(NodeGroup.SLOW)
    # Slow nodes sit exactly at the paper's 0.33.
    assert all(node.performance == 0.33
               for node in pool.by_group(NodeGroup.SLOW))


def test_generate_pool_domains_assigned():
    pool = generate_pool(np.random.default_rng(0), domains=3)
    assert set(pool.domains()) == {"domain1", "domain2", "domain3"}
    with pytest.raises(ValueError):
        generate_pool(np.random.default_rng(0), domains=0)


def test_generate_pool_type_ranks_follow_performance():
    pool = generate_pool(np.random.default_rng(5))
    ranked = sorted(pool, key=lambda n: n.type_index)
    performances = [n.performance for n in ranked]
    assert performances == sorted(performances, reverse=True)


def test_template_factory_validates_weights():
    with pytest.raises(ValueError):
        TemplateWorkload(())
    with pytest.raises(ValueError):
        TemplateWorkload((0.5, 0.0))


def test_template_factory_clones_share_semantic_keys():
    """Arrivals drawn from one template are structural siblings under
    fresh job ids — exactly the identity the plan cache reuses across."""
    factory = TemplateWorkload((1.0,))
    a = factory(np.random.default_rng(0), 0)
    b = factory(np.random.default_rng(1), 1)
    assert (a.job_id, b.job_id) == ("job0", "job1")
    assert a.structural_hash == b.structural_hash


def test_template_factory_is_deterministic_and_skewed():
    weights = (0.7, 0.3)
    factory = TemplateWorkload(weights)
    again = TemplateWorkload(weights)
    draws = {}
    for index in range(200):
        job = factory(np.random.default_rng(index), index)
        twin = again(np.random.default_rng(index), index)
        assert job.structural_hash == twin.structural_hash
        draws[job.structural_hash] = draws.get(job.structural_hash, 0) + 1
    assert len(draws) == 2  # both templates appear ...
    assert max(draws.values()) > 0.5 * sum(draws.values())  # ... skewed


def test_jobs_have_positive_volumes_and_times():
    for job in generate_workload(seed=11, n_jobs=10):
        for task in job.tasks.values():
            assert task.volume > 0
            assert task.best_time >= 1
        for transfer in job.transfers:
            assert transfer.base_time >= 1
            assert transfer.volume > 0
