"""Unit tests for the compound-job DAG model."""

import pytest

from repro.core.job import DataTransfer, Job, JobValidationError, Task


def diamond_job(deadline=20):
    """P1 -> (P2, P3) -> P4 with unit transfers."""
    tasks = [
        Task("P1", volume=20, best_time=2),
        Task("P2", volume=30, best_time=3),
        Task("P3", volume=10, best_time=1),
        Task("P4", volume=20, best_time=2),
    ]
    transfers = [
        DataTransfer("D1", "P1", "P2"),
        DataTransfer("D2", "P1", "P3"),
        DataTransfer("D3", "P2", "P4"),
        DataTransfer("D4", "P3", "P4"),
    ]
    return Job("diamond", tasks, transfers, deadline=deadline)


def test_task_validation():
    with pytest.raises(ValueError):
        Task("", volume=1, best_time=1)
    with pytest.raises(ValueError):
        Task("t", volume=-1, best_time=1)
    with pytest.raises(ValueError):
        Task("t", volume=1, best_time=0)
    with pytest.raises(ValueError):
        Task("t", volume=1, best_time=5, worst_time=3)


def test_task_default_worst_time():
    task = Task("t", volume=1, best_time=4)
    assert task.worst_time == 4


def test_task_base_time_levels():
    task = Task("t", volume=1, best_time=2, worst_time=6)
    assert task.base_time(0.0) == 2
    assert task.base_time(1.0) == 6
    assert task.base_time(0.5) == 4


def test_task_duration_on_scales_with_performance():
    task = Task("t", volume=1, best_time=2)
    assert task.duration_on(1.0) == 2
    assert task.duration_on(0.5) == 4
    assert task.duration_on(1 / 3) == 6


def test_transfer_validation():
    with pytest.raises(ValueError):
        DataTransfer("", "a", "b")
    with pytest.raises(ValueError):
        DataTransfer("d", "a", "a")
    with pytest.raises(ValueError):
        DataTransfer("d", "a", "b", volume=-1)
    with pytest.raises(ValueError):
        DataTransfer("d", "a", "b", base_time=-1)


def test_job_requires_tasks():
    with pytest.raises(JobValidationError):
        Job("empty", [])


def test_job_duplicate_task_ids():
    with pytest.raises(JobValidationError):
        Job("dup", [Task("a", 1, 1), Task("a", 1, 1)])


def test_job_duplicate_transfer_ids():
    tasks = [Task("a", 1, 1), Task("b", 1, 1), Task("c", 1, 1)]
    with pytest.raises(JobValidationError):
        Job("dup", tasks, [DataTransfer("d", "a", "b"),
                           DataTransfer("d", "b", "c")])


def test_job_unknown_transfer_endpoint():
    with pytest.raises(JobValidationError):
        Job("bad", [Task("a", 1, 1)], [DataTransfer("d", "a", "ghost")])


def test_job_parallel_edges_rejected():
    tasks = [Task("a", 1, 1), Task("b", 1, 1)]
    with pytest.raises(JobValidationError):
        Job("bad", tasks, [DataTransfer("d1", "a", "b"),
                           DataTransfer("d2", "a", "b")])


def test_job_cycle_detection():
    tasks = [Task("a", 1, 1), Task("b", 1, 1)]
    with pytest.raises(JobValidationError):
        Job("cycle", tasks, [DataTransfer("d1", "a", "b"),
                             DataTransfer("d2", "b", "a")])


def test_job_negative_deadline():
    with pytest.raises(JobValidationError):
        Job("bad", [Task("a", 1, 1)], deadline=-1)


def test_structure_queries():
    job = diamond_job()
    assert job.sources() == ["P1"]
    assert job.sinks() == ["P4"]
    assert job.successors("P1") == ["P2", "P3"]
    assert job.predecessors("P4") == ["P2", "P3"]
    assert job.transfer_between("P1", "P2").transfer_id == "D1"
    assert job.transfer_between("P1", "P4") is None
    assert len(job) == 4
    assert "P1" in job and "P9" not in job
    with pytest.raises(KeyError):
        job.task("P9")


def test_topological_order_is_valid_and_deterministic():
    job = diamond_job()
    order = job.topological_order()
    assert order == ["P1", "P2", "P3", "P4"]
    position = {tid: i for i, tid in enumerate(order)}
    for transfer in job.transfers:
        assert position[transfer.src] < position[transfer.dst]


def test_all_paths_diamond():
    job = diamond_job()
    assert job.all_paths() == [["P1", "P2", "P4"], ["P1", "P3", "P4"]]


def test_all_paths_limit():
    job = diamond_job()
    assert len(job.all_paths(limit=1)) == 1


def test_chain_length_includes_transfers():
    job = diamond_job()
    # P1(2) + D1(1) + P2(3) + D3(1) + P4(2) = 9 on the reference node.
    assert job.chain_length(["P1", "P2", "P4"]) == 9
    # Halved performance doubles task time, not transfer time.
    assert job.chain_length(["P1", "P2", "P4"], performance=0.5) == 16


def test_chain_length_rejects_non_edges():
    job = diamond_job()
    with pytest.raises(ValueError):
        job.chain_length(["P1", "P4"])


def test_chain_length_custom_transfer_model():
    job = diamond_job()
    assert job.chain_length(["P1", "P2", "P4"],
                            transfer_time=lambda t: 0) == 7


def test_critical_chains_sorted_descending():
    job = diamond_job()
    chains = job.critical_chains()
    assert chains[0] == (9, ["P1", "P2", "P4"])
    assert chains[1] == (7, ["P1", "P3", "P4"])


def test_minimal_makespan_is_critical_path():
    job = diamond_job()
    assert job.minimal_makespan() == 9


def test_total_volume():
    assert diamond_job().total_volume() == 80


def test_single_task_job():
    job = Job("single", [Task("only", volume=5, best_time=3)], deadline=10)
    assert job.all_paths() == [["only"]]
    assert job.minimal_makespan() == 3
    assert job.sources() == job.sinks() == ["only"]


def test_clone_shares_structure_under_new_identity():
    job = diamond_job()
    other = job.clone("job42", owner="vo")
    assert other.job_id == "job42"
    assert other.owner == "vo"
    assert other.tasks is job.tasks
    assert other.transfers is job.transfers
    assert other.deadline == job.deadline
    # The semantic key excludes identity, so siblings share it — the
    # property the plan cache's rebind path rides on.
    assert other.structural_hash == job.structural_hash
    assert other.topological_order() == job.topological_order()


def test_clone_keeps_owner_by_default():
    job = diamond_job()
    assert job.clone("twin").owner == job.owner
