"""Deterministic replay of a distribution with *actual* task durations.

A supporting schedule reserves wall time from user estimations; reality
then differs ("actual solving time Ti for a task can be different from
user estimation Tij").  This module replays a distribution against
actual durations, propagating delays through the job's precedence
structure, and reports the start-time forecast errors and run times
behind the Fig. 4b/4c factors.  :func:`simulate_execution` replays one
job on otherwise idle nodes; :func:`replay_fcfs` replays every job the
online lane committed together, each node serving its ready tasks first
come, first served, so an overrun also delays other jobs' tasks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

from ..core.job import Job
from ..core.resources import ResourcePool
from ..core.schedule import Distribution, Placement
from ..core.transfers import NeutralTransferModel, TransferModel

__all__ = ["TaskRun", "ExecutionTrace", "simulate_execution", "BookedJob",
           "replay_fcfs"]


@dataclass(frozen=True)
class TaskRun:
    """Actual timing of one task during replay."""

    task_id: str
    node_id: int
    planned_start: int
    planned_end: int
    actual_start: int
    actual_end: int

    @property
    def start_deviation(self) -> int:
        """How late the task started versus the supporting schedule."""
        return self.actual_start - self.planned_start

    @property
    def actual_duration(self) -> int:
        """How long the task really ran."""
        return self.actual_end - self.actual_start


@dataclass
class ExecutionTrace:
    """Replay result for a whole job."""

    job_id: str
    runs: dict[str, TaskRun] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        """Actual completion time of the last task."""
        if not self.runs:
            return 0
        return max(run.actual_end for run in self.runs.values())

    @property
    def run_time(self) -> int:
        """Wall time from first actual start to last actual end."""
        if not self.runs:
            return 0
        first = min(run.actual_start for run in self.runs.values())
        return self.makespan - first

    @property
    def total_execution_time(self) -> int:
        """Sum of actual task durations (Fig. 4b's task execution time)."""
        return sum(run.actual_duration for run in self.runs.values())

    def mean_start_deviation(self) -> float:
        """Average start-time forecast error over all tasks."""
        if not self.runs:
            return 0.0
        return (sum(run.start_deviation for run in self.runs.values())
                / len(self.runs))

    def deviation_to_runtime_ratio(self) -> float:
        """The Fig. 4c factor: start deviation over job run time."""
        run_time = self.run_time
        if run_time <= 0:
            return 0.0
        return self.mean_start_deviation() / run_time

    def met_deadline(self, deadline: int, release: int = 0) -> bool:
        """True if the actual completion stayed within the fixed time."""
        return self.makespan <= release + deadline


def simulate_execution(job: Job, distribution: Distribution,
                       pool: ResourcePool,
                       actual_level: float = 0.0,
                       transfer_model: Optional[TransferModel] = None,
                       actual_durations: Optional[Mapping[str, int]] = None,
                       ) -> ExecutionTrace:
    """Replay ``distribution`` with actual durations.

    Actual durations default to each task's duration at ``actual_level``
    on its assigned node; ``actual_durations`` overrides per task.  A
    task starts at the later of its reserved start and the moment all
    its inputs are available (predecessor actual end + transfer lag).
    Nodes are contention-free: the job is replayed on its own.
    """
    transfer_model = transfer_model or NeutralTransferModel()
    trace = ExecutionTrace(job_id=job.job_id)

    for task_id in job.topological_order():
        placement = distribution.placement(task_id)
        ready = _input_ready(job, task_id, placement, trace, pool,
                             transfer_model)
        trace.runs[task_id] = _run(placement, ready, _actual_duration(
            job, task_id, pool, placement, actual_level, actual_durations))
    return trace


class BookedJob(NamedTuple):
    """A committed job as :func:`replay_fcfs` replays it."""

    job: Job
    distribution: Distribution
    actual_level: float
    transfer_model: TransferModel


def replay_fcfs(booked: Sequence[BookedJob],
                pool: ResourcePool) -> list[ExecutionTrace]:
    """Replay several committed jobs that share the pool's nodes.

    Each task requests its node once it is ready, by the rule of
    :func:`simulate_execution`: its reserved start, or its last input's
    actual end plus transfer lag if later.  A node serves its requests
    first come, first served, one task at a time, so a task that
    overruns its reservation delays whatever asked for the node after
    it, of its own job or another.  Simultaneous requests go in order
    of reserved start, then of ``booked`` (commit order), then of task
    id.  Returns one trace per booked job, in ``booked`` order.
    """
    traces = [ExecutionTrace(job_id=item.job.job_id) for item in booked]
    waiting = [{task_id: len(item.job.predecessors(task_id))
                for task_id in item.job.tasks} for item in booked]
    requests: list[tuple[int, int, int, str]] = []

    def request(order: int, task_id: str) -> None:
        item = booked[order]
        placement = item.distribution.placement(task_id)
        ready = _input_ready(item.job, task_id, placement, traces[order],
                             pool, item.transfer_model)
        heapq.heappush(requests, (ready, placement.start, order, task_id))

    for order, pending in enumerate(waiting):
        for task_id, count in pending.items():
            if not count:
                request(order, task_id)
    # A request is pushed when its last input is served, and it is ready
    # later than that input was, so requests leave the heap in ready
    # order: first come, first served on every node at once.
    node_free: dict[int, int] = {}
    while requests:
        ready, _, order, task_id = heapq.heappop(requests)
        item = booked[order]
        placement = item.distribution.placement(task_id)
        start = max(ready, node_free.get(placement.node_id, ready))
        run = _run(placement, start, _actual_duration(
            item.job, task_id, pool, placement, item.actual_level))
        node_free[placement.node_id] = run.actual_end
        traces[order].runs[task_id] = run
        for successor in item.job.successors(task_id):
            waiting[order][successor] -= 1
            if not waiting[order][successor]:
                request(order, successor)
    return traces


def _actual_duration(job: Job, task_id: str, pool: ResourcePool,
                     placement: Placement, actual_level: float,
                     overrides: Optional[Mapping[str, int]] = None) -> int:
    """The task's duration at ``actual_level`` on its node, unless
    ``overrides`` gives it."""
    if overrides is not None and task_id in overrides:
        duration = overrides[task_id]
        if duration <= 0:
            raise ValueError(
                f"actual duration for {task_id!r} must be positive")
        return duration
    return job.task(task_id).duration_on(
        pool.node(placement.node_id).performance, actual_level)


def _input_ready(job: Job, task_id: str, placement: Placement,
                 trace: ExecutionTrace, pool: ResourcePool,
                 transfer_model: TransferModel) -> int:
    """The reserved start, or the last input's arrival if later."""
    node = pool.node(placement.node_id)
    ready = placement.start
    for pred in job.predecessors(task_id):
        pred_run = trace.runs[pred]
        lag = transfer_model.time(job.transfer_between(pred, task_id),
                                  pool.node(pred_run.node_id), node)
        ready = max(ready, pred_run.actual_end + lag)
    return ready


def _run(placement: Placement, start: int, duration: int) -> TaskRun:
    return TaskRun(
        task_id=placement.task_id, node_id=placement.node_id,
        planned_start=placement.start, planned_end=placement.end,
        actual_start=start, actual_end=start + duration)
