"""Unit tests for deterministic execution replay."""

import pytest

from repro.core.job import DataTransfer, Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.schedule import Distribution, Placement
from repro.core.transfers import NeutralTransferModel
from repro.grid.execution import BookedJob, replay_fcfs, simulate_execution


def job_and_pool():
    job = Job(
        "j",
        [Task("A", volume=10, best_time=2, worst_time=4),
         Task("B", volume=10, best_time=3, worst_time=6)],
        [DataTransfer("D1", "A", "B", base_time=1)],
        deadline=20,
    )
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=1.0),
    ])
    return job, pool


def test_replay_on_time_when_estimates_hold():
    job, pool = job_and_pool()
    dist = Distribution("j", [
        Placement("A", 1, 0, 2),
        Placement("B", 2, 3, 6),
    ])
    trace = simulate_execution(job, dist, pool, actual_level=0.0)
    assert trace.runs["A"].start_deviation == 0
    assert trace.runs["B"].start_deviation == 0
    assert trace.makespan == 6
    assert trace.met_deadline(job.deadline)


def test_underestimated_task_delays_successor():
    job, pool = job_and_pool()
    dist = Distribution("j", [
        Placement("A", 1, 0, 2),     # planned with the best case (2)
        Placement("B", 2, 3, 6),
    ])
    trace = simulate_execution(job, dist, pool, actual_level=1.0)  # worst
    # A actually runs 4 slots, so B's data is ready at 4 + 1 = 5.
    assert trace.runs["A"].actual_end == 4
    assert trace.runs["B"].actual_start == 5
    assert trace.runs["B"].start_deviation == 2
    assert trace.makespan == 11  # B runs its worst case of 6


def test_task_never_starts_before_reservation():
    job, pool = job_and_pool()
    dist = Distribution("j", [
        Placement("A", 1, 5, 7),
        Placement("B", 2, 10, 13),
    ])
    trace = simulate_execution(job, dist, pool, actual_level=0.0)
    assert trace.runs["A"].actual_start == 5
    assert trace.runs["B"].actual_start == 10


def test_colocated_tasks_skip_transfer_lag():
    job, pool = job_and_pool()
    dist = Distribution("j", [
        Placement("A", 1, 0, 2),
        Placement("B", 1, 2, 5),
    ])
    trace = simulate_execution(job, dist, pool, actual_level=0.0)
    assert trace.runs["B"].actual_start == 2


def test_explicit_actual_durations():
    job, pool = job_and_pool()
    dist = Distribution("j", [
        Placement("A", 1, 0, 2),
        Placement("B", 2, 3, 6),
    ])
    trace = simulate_execution(job, dist, pool,
                               actual_durations={"A": 7, "B": 1})
    assert trace.runs["A"].actual_duration == 7
    assert trace.runs["B"].actual_duration == 1
    with pytest.raises(ValueError):
        simulate_execution(job, dist, pool, actual_durations={"A": 0})


def test_trace_metrics():
    job, pool = job_and_pool()
    dist = Distribution("j", [
        Placement("A", 1, 0, 2),
        Placement("B", 2, 3, 6),
    ])
    trace = simulate_execution(job, dist, pool, actual_level=1.0)
    assert trace.total_execution_time == 4 + 6
    assert trace.run_time == trace.makespan  # first start is 0
    assert trace.mean_start_deviation() == pytest.approx((0 + 2) / 2)
    assert 0 < trace.deviation_to_runtime_ratio() < 1


# ----------------------------------------------------------------------
# replay_fcfs: committed jobs sharing nodes
# ----------------------------------------------------------------------

NEUTRAL = NeutralTransferModel()


def single_task_job(job_id, best, worst):
    return Job(job_id, [Task("T", volume=10, best_time=best,
                             worst_time=worst)], deadline=50)


def booked_single(job_id, node_id, start, best, worst, level):
    job = single_task_job(job_id, best, worst)
    dist = Distribution(job_id, [Placement("T", node_id, start,
                                           start + best)])
    return BookedJob(job, dist, level, NEUTRAL)


def test_overrun_on_a_shared_node_makes_the_next_job_wait():
    _, pool = job_and_pool()
    late = booked_single("late", 1, 0, best=2, worst=4, level=1.0)
    next_ = booked_single("next", 1, 2, best=2, worst=4, level=0.0)
    first, second = replay_fcfs([late, next_], pool)
    assert (first.runs["T"].actual_start, first.runs["T"].actual_end) == (
        0, 4)
    # Reserved at 2 and ready at 2, but the node is busy until 4.
    assert second.runs["T"].actual_start == 4
    assert second.runs["T"].start_deviation == 2
    # Replayed alone, the same job would have started on time.
    alone = simulate_execution(next_.job, next_.distribution, pool,
                               actual_level=0.0)
    assert alone.runs["T"].actual_start == 2


def chain(worst_a):
    """A -> B with A overrunning to ``worst_a`` at level 1: A on node 1
    at [0, 2), B on node 2 at [3, 6)."""
    job = Job("chain",
              [Task("A", volume=10, best_time=2, worst_time=worst_a),
               Task("B", volume=10, best_time=3, worst_time=6)],
              [DataTransfer("D1", "A", "B", base_time=1)], deadline=50)
    dist = Distribution("chain", [Placement("A", 1, 0, 2),
                                  Placement("B", 2, 3, 6)])
    return BookedJob(job, dist, 1.0, NEUTRAL)


def test_node_serves_requests_in_ready_order_not_reservation_order():
    _, pool = job_and_pool()
    # The hog holds node 2 from 0 to 10, overrunning [0, 3).
    hog = booked_single("hog", 2, 0, best=3, worst=10, level=1.0)
    # B is reserved first on node 2, but A runs to 8, so B asks for the
    # node only at 8 + transfer 1 = 9.
    late_input = chain(worst_a=8)
    # T is reserved later, at [6, 8), and asks for node 2 at 6.
    early = booked_single("early", 2, 6, best=2, worst=4, level=0.0)
    _, chained, single = replay_fcfs([hog, late_input, early], pool)
    assert single.runs["T"].actual_start == 10
    assert (chained.runs["B"].actual_start,
            chained.runs["B"].actual_end) == (12, 18)


def test_simultaneous_requests_go_by_reserved_start_then_commit_order():
    _, pool = job_and_pool()
    hog = booked_single("hog", 2, 0, best=3, worst=10, level=1.0)
    # B (reserved at 3, input at 7 + 1) and T (reserved at 8) both ask
    # for node 2 at 8: the earlier reservation goes first, although T
    # was committed first.
    tied = booked_single("tied", 2, 8, best=1, worst=1, level=0.0)
    _, single, chained = replay_fcfs([hog, tied, chain(worst_a=7)], pool)
    assert chained.runs["B"].actual_start == 10
    assert single.runs["T"].actual_start == 16
    # Equal reserved starts (overlapping reservations, which a checked
    # co-allocation never has) fall back to commit order.
    one = booked_single("one", 1, 0, best=2, worst=2, level=0.0)
    two = booked_single("two", 1, 0, best=2, worst=2, level=0.0)
    assert [t.runs["T"].actual_start
            for t in replay_fcfs([two, one], pool)] == [0, 2]


def test_replay_fcfs_of_nothing_is_empty():
    _, pool = job_and_pool()
    assert replay_fcfs([], pool) == []


def test_punctual_multi_job_replay_equals_per_job_replay():
    """Committed reservations never overlap, so with actual levels within
    plan the shared-node replay is every job's contention-free replay."""
    from repro.core.strategy import StrategyType
    from repro.flow.simulation import OnlineConfig, OnlineSimulation
    from repro.grid.data import default_policy_models
    from repro.sim import RandomStreams
    from repro.workload import generate_pool

    pool = generate_pool(RandomStreams(5).stream("pool"))
    simulation = OnlineSimulation(pool, seed=5, config=OnlineConfig(
        horizon=200, mean_interarrival=4.0, plan_latency=2,
        stypes=(StrategyType.S1, StrategyType.S2, StrategyType.MS1)))
    simulation.run()
    models = default_policy_models()
    committed = [r for r in simulation.metascheduler.records if r.committed]
    assert len(committed) > 5
    for fraction in (1.0, 0.5):
        booked = [BookedJob(r.strategy.scheduled_job, r.chosen.distribution,
                            r.chosen.level * fraction,
                            models[r.strategy.spec.policy])
                  for r in committed]
        for item, trace in zip(booked, replay_fcfs(booked, pool)):
            alone = simulate_execution(
                item.job, item.distribution, pool,
                actual_level=item.actual_level,
                transfer_model=item.transfer_model)
            assert trace.runs == alone.runs
