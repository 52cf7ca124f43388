"""Unit tests for job coarsening (S3's coarse-grain computations)."""

import pytest

from repro.core.granularity import coarsen
from repro.core.job import DataTransfer, Job, Task
from repro.workload.paper_example import fig2_job


def linear_job():
    """A -> B -> C pure chain."""
    return Job(
        "line",
        [Task("A", volume=10, best_time=2),
         Task("B", volume=20, best_time=3),
         Task("C", volume=30, best_time=4)],
        [DataTransfer("D1", "A", "B"), DataTransfer("D2", "B", "C")],
        deadline=30,
    )


def test_merge_linear_sections_collapses_chain():
    coarse = coarsen(linear_job(), target_tasks=1)
    assert len(coarse) == 1
    merged = next(iter(coarse.tasks.values()))
    assert merged.volume == 60
    assert merged.best_time == 9
    assert coarse.transfers == []


def test_merged_ids_record_history():
    coarse = coarsen(linear_job(), target_tasks=1)
    assert list(coarse.tasks) == ["A+B+C"]


def test_coarsen_factor_halves_task_count():
    coarse = coarsen(linear_job(), factor=1.5)
    assert len(coarse) == 2


def test_coarsen_preserves_deadline_and_owner():
    job = linear_job()
    coarse = coarsen(job, factor=3)
    assert coarse.deadline == job.deadline
    assert coarse.owner == job.owner
    assert coarse.job_id == job.job_id


def test_original_job_untouched():
    job = linear_job()
    coarsen(job, factor=3)
    assert len(job) == 3
    assert len(job.transfers) == 2


def test_coarsen_validation():
    with pytest.raises(ValueError):
        coarsen(linear_job(), factor=0.5)
    with pytest.raises(ValueError):
        coarsen(linear_job(), target_tasks=0)


def test_diamond_core_is_not_merged():
    """Fork/join structure has no linear sections except around it."""
    job = Job(
        "diamond",
        [Task("A", 1, 1), Task("B", 1, 1), Task("C", 1, 1), Task("D", 1, 1)],
        [DataTransfer("D1", "A", "B"), DataTransfer("D2", "A", "C"),
         DataTransfer("D3", "B", "D"), DataTransfer("D4", "C", "D")],
        deadline=10,
    )
    coarse = coarsen(job, target_tasks=1)
    # A has two successors, D two predecessors: nothing merges.
    assert len(coarse) == 4


def test_fig2_job_coarsening_keeps_dag_valid():
    job = fig2_job()
    coarse = coarsen(job, factor=2.0)
    # The fig2 graph has no strictly linear interior sections; tail/head
    # merges happen only where degree constraints allow.
    assert 1 <= len(coarse) <= len(job)
    assert coarse.total_volume() == job.total_volume()
    # The coarse job must still be a valid DAG (constructor validates).
    order = coarse.topological_order()
    assert len(order) == len(coarse)


def test_coarsen_reattaches_external_edges():
    """head(A)->B chain inside a wider graph keeps outer edges intact."""
    job = Job(
        "mixed",
        [Task("S", 1, 1), Task("A", 1, 1), Task("B", 1, 1), Task("T", 1, 1)],
        [DataTransfer("D0", "S", "A"), DataTransfer("D1", "A", "B"),
         DataTransfer("D2", "B", "T")],
        deadline=20,
    )
    coarse = coarsen(job, target_tasks=1)
    assert len(coarse) == 1
    assert list(coarse.tasks)[0].count("+") == 3


def test_partial_coarsen_keeps_volume_and_reachability():
    job = Job(
        "mixed",
        [Task("S", 1, 1), Task("A", 2, 2), Task("B", 3, 3), Task("T", 4, 4)],
        [DataTransfer("D0", "S", "A"), DataTransfer("D1", "A", "B"),
         DataTransfer("D2", "B", "T")],
        deadline=20,
    )
    coarse = coarsen(job, target_tasks=2)
    assert len(coarse) == 2
    assert coarse.total_volume() == job.total_volume()
    assert len(coarse.sources()) == 1
    assert len(coarse.sinks()) == 1


def test_single_task_job_is_fixed_point():
    job = Job("one", [Task("A", 1, 1)], deadline=5)
    coarse = coarsen(job, factor=4)
    assert len(coarse) == 1
    assert list(coarse.tasks) == ["A"]


def test_aggressive_merge_skips_cycle_creating_edges():
    """A -> B, A -> C, C -> B: contracting (A, B) directly would trap C
    between the merged node's outputs and inputs (a cycle); the
    aggressive coarsener must pick a safe edge instead."""
    job = Job(
        "tri",
        [Task("A", 1, 1), Task("B", 1, 1), Task("C", 1, 1)],
        [DataTransfer("D1", "A", "B"), DataTransfer("D2", "A", "C"),
         DataTransfer("D3", "C", "B")],
        deadline=10,
    )
    coarse = coarsen(job, target_tasks=2, aggressive=True)
    assert len(coarse) == 2
    # Still a valid DAG with preserved totals.
    assert len(coarse.topological_order()) == 2
    assert coarse.total_volume() == job.total_volume()


def test_aggressive_merge_collapses_triangle_to_one():
    job = Job(
        "tri",
        [Task("A", 1, 1), Task("B", 1, 1), Task("C", 1, 1)],
        [DataTransfer("D1", "A", "B"), DataTransfer("D2", "A", "C"),
         DataTransfer("D3", "C", "B")],
        deadline=10,
    )
    coarse = coarsen(job, target_tasks=1, aggressive=True)
    assert len(coarse) == 1
    merged = next(iter(coarse.tasks.values()))
    assert merged.volume == 3
    assert merged.best_time == 3
