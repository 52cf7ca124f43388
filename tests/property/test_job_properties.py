"""Property-based tests for the job DAG model and the workload generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granularity import coarsen
from repro.workload.generator import WorkloadConfig, generate_job

seeds = st.integers(0, 10**6)


def random_job(seed):
    return generate_job(np.random.default_rng(seed), seed)


@given(seeds)
def test_generated_jobs_are_valid_dags(seed):
    job = random_job(seed)
    order = job.topological_order()
    assert len(order) == len(job)
    position = {tid: i for i, tid in enumerate(order)}
    for transfer in job.transfers:
        assert position[transfer.src] < position[transfer.dst]


@given(seeds)
def test_all_paths_run_source_to_sink(seed):
    job = random_job(seed)
    sources, sinks = set(job.sources()), set(job.sinks())
    for path in job.all_paths():
        assert path[0] in sources
        assert path[-1] in sinks
        for earlier, later in zip(path, path[1:]):
            assert job.transfer_between(earlier, later) is not None


def recursive_paths(job, limit):
    """Reference enumeration: the plain recursive DFS."""
    paths = []

    def descend(task_id, prefix):
        if len(paths) >= limit:
            return
        prefix = prefix + [task_id]
        successors = job.successors(task_id)
        if not successors:
            paths.append(prefix)
            return
        for succ in successors:
            descend(succ, prefix)

    for source in job.sources():
        descend(source, [])
    return paths


@given(seeds, st.sampled_from([0, 1, 2, 3, 7, 10000]))
def test_all_paths_match_recursive_dfs_order_and_limit(seed, limit):
    job = random_job(seed)
    assert job.all_paths(limit) == recursive_paths(job, limit)


@given(seeds)
def test_deadline_dominates_critical_path(seed):
    job = random_job(seed)
    assert job.deadline >= job.minimal_makespan(1.0)


@given(seeds)
def test_max_width_bounds(seed):
    job = random_job(seed)
    assert 1 <= job.max_width() <= len(job)


@given(seeds)
def test_chain_lengths_decrease_in_critical_order(seed):
    job = random_job(seed)
    lengths = [length for length, _ in job.critical_chains()]
    assert lengths == sorted(lengths, reverse=True)


@given(seeds, st.integers(1, 6))
@settings(max_examples=50)
def test_coarsen_preserves_volume_and_validity(seed, target):
    job = random_job(seed)
    coarse = coarsen(job, target_tasks=target, aggressive=True)
    assert coarse.total_volume() == pytest.approx(job.total_volume())
    assert len(coarse) >= min(target, 1)
    assert len(coarse) <= len(job)
    # Constructor re-validates acyclicity; also check topological order.
    assert len(coarse.topological_order()) == len(coarse)
    assert coarse.deadline == job.deadline


@given(seeds)
@settings(max_examples=50)
def test_aggressive_coarsen_reaches_two_tasks(seed):
    """Any connected layered DAG must coarsen down to two tasks."""
    job = random_job(seed)
    coarse = coarsen(job, target_tasks=2, aggressive=True)
    assert len(coarse) <= max(2, len(job.sources()) + len(job.sinks()))


@given(seeds)
def test_generator_determinism(seed):
    a = random_job(seed)
    b = random_job(seed)
    assert list(a.tasks) == list(b.tasks)
    assert a.deadline == b.deadline
    assert [(t.src, t.dst, t.base_time) for t in a.transfers] == [
        (t.src, t.dst, t.base_time) for t in b.transfers]
