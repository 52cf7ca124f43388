"""Compound jobs: DAGs of heterogeneous tasks joined by data transfers.

The paper's information graph (Fig. 2a) has task vertices ``P1..P6`` and
data-transfer vertices ``D1..D8``.  We model tasks as graph vertices and
data transfers as labelled edges, which is equivalent: a transfer always
connects exactly one producer task to one consumer task.

Every task carries *user estimations*: a relative computation volume
``V`` and best/worst base execution times on the reference (fastest)
node.  Actual durations on a concrete node follow from the node's
relative performance (see :meth:`Task.duration_on`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .units import EPSILON, ceil_units, interpolate, scale_duration

__all__ = ["Task", "DataTransfer", "Job", "JobValidationError"]


def _sha(payload: str) -> str:
    """Process-independent digest of a canonical string (not ``hash()``,
    whose salt changes per interpreter run)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class JobValidationError(ValueError):
    """The job structure violates a DAG or referential invariant."""


@dataclass(frozen=True)
class Task:
    """One task of a compound job.

    Parameters
    ----------
    task_id:
        Unique name within the job (e.g. ``"P1"``).
    volume:
        Relative computation volume ``V_i`` used by the cost function.
    best_time:
        Optimistic base execution time (slots on the reference node).
    worst_time:
        Pessimistic base execution time; defaults to ``best_time``.
    """

    task_id: str
    volume: float
    best_time: int
    worst_time: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.volume < 0:
            raise ValueError(f"volume must be non-negative, got {self.volume}")
        if self.best_time <= 0:
            raise ValueError(
                f"best_time must be positive, got {self.best_time}")
        if self.worst_time is None:
            object.__setattr__(self, "worst_time", self.best_time)
        elif self.worst_time < self.best_time:
            raise ValueError(
                f"worst_time ({self.worst_time}) must be >= best_time "
                f"({self.best_time})")

    def base_time(self, level: float = 0.0) -> int:
        """Base execution time at estimation ``level`` (0 = best, 1 = worst)."""
        # __post_init__ guarantees worst_time; the fallback narrows the
        # Optional for type checkers.
        worst = self.worst_time if self.worst_time is not None \
            else self.best_time
        return ceil_units(interpolate(self.best_time, worst, level))

    def duration_on(self, performance: float, level: float = 0.0) -> int:
        """Execution slots on a node of the given relative performance."""
        return scale_duration(self.base_time(level), performance)

    def duration_array(self, performances, level: float = 0.0):
        """Vectorized :meth:`duration_on` over many performances.

        ``performances`` is a float64 numpy array; the result is the
        int64 array of per-node durations.  Elementwise the same float
        operations as :func:`~repro.core.units.scale_duration`
        (division, epsilon-tolerant ceil), so the values are
        bit-identical to the scalar path.
        """
        base = self.base_time(level)
        return np.ceil(base / performances - EPSILON).astype(np.int64)


@dataclass(frozen=True)
class DataTransfer:
    """A data dependency between two tasks.

    ``base_time`` is the transfer time between *distinct* nodes under the
    neutral data policy; concrete policies scale it (see
    :mod:`repro.grid.data`).  Transfers between tasks co-located on one
    node take no time.
    """

    transfer_id: str
    src: str
    dst: str
    volume: float = 1.0
    base_time: int = 1

    def __post_init__(self) -> None:
        if not self.transfer_id:
            raise ValueError("transfer_id must be non-empty")
        if self.src == self.dst:
            raise ValueError(f"self-transfer on task {self.src!r}")
        if self.volume < 0:
            raise ValueError(f"volume must be non-negative, got {self.volume}")
        if self.base_time < 0:
            raise ValueError(
                f"base_time must be non-negative, got {self.base_time}")


class Job:
    """A compound (multiprocessor) job: a DAG of tasks plus a deadline.

    Parameters
    ----------
    job_id:
        Unique job name.
    tasks:
        The job's tasks; ids must be unique.
    transfers:
        Data transfers; endpoints must name existing tasks, at most one
        transfer per (src, dst) pair, and the graph must be acyclic.
    deadline:
        The fixed completion time of the job (slots from its start).
    owner:
        The submitting VO user (used by the economic model).
    """

    def __init__(self, job_id: str, tasks: Iterable[Task],
                 transfers: Iterable[DataTransfer] = (),
                 deadline: int = 0, owner: str = "anonymous"):
        self.job_id = job_id
        self.tasks: dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self.tasks:
                raise JobValidationError(
                    f"duplicate task id {task.task_id!r} in job {job_id!r}")
            self.tasks[task.task_id] = task
        self.transfers: list[DataTransfer] = list(transfers)
        self.deadline = deadline
        self.owner = owner

        if not self.tasks:
            raise JobValidationError(f"job {job_id!r} has no tasks")
        if deadline < 0:
            raise JobValidationError(
                f"deadline must be non-negative, got {deadline}")

        self._succ: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        self._pred: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        self._transfer_by_edge: dict[tuple[str, str], DataTransfer] = {}
        seen_ids: set[str] = set()
        for transfer in self.transfers:
            if transfer.transfer_id in seen_ids:
                raise JobValidationError(
                    f"duplicate transfer id {transfer.transfer_id!r}")
            seen_ids.add(transfer.transfer_id)
            for endpoint in (transfer.src, transfer.dst):
                if endpoint not in self.tasks:
                    raise JobValidationError(
                        f"transfer {transfer.transfer_id!r} references "
                        f"unknown task {endpoint!r}")
            edge = (transfer.src, transfer.dst)
            if edge in self._transfer_by_edge:
                raise JobValidationError(
                    f"parallel transfers on edge {edge!r}")
            self._transfer_by_edge[edge] = transfer
            self._succ[transfer.src].append(transfer.dst)
            self._pred[transfer.dst].append(transfer.src)

        self._topo_order = self._compute_topo_order()
        # Semantic key, computed on first use: a pure function of the
        # job structure, which is immutable once construction succeeds.
        self._structural_hash: Optional[str] = None

    # ------------------------------------------------------------------
    # Semantic key (plan-cache identity)
    # ------------------------------------------------------------------

    @property
    def structural_hash(self) -> str:
        """Labelled-structure digest: everything generation reads.

        Covers the tasks in insertion order with all user estimations,
        the transfers in insertion order with their endpoints and
        timings, and the deadline — but **not** ``job_id`` or ``owner``
        (generation never consults either; they only tag the finished
        distributions and the economic charge).  Two jobs with equal
        structural hashes are identical up to renaming the job, so a
        deterministic generator produces placement-identical strategies
        for them: the key of the flow layer's plan cache.
        """
        value = self._structural_hash
        if value is None:
            value = _sha(repr((
                [(task.task_id, task.volume, task.best_time,
                  task.worst_time) for task in self.tasks.values()],
                [(t.transfer_id, t.src, t.dst, t.volume, t.base_time)
                 for t in self.transfers],
                self.deadline)))
            self._structural_hash = value
        return value

    def clone(self, job_id: str, owner: Optional[str] = None) -> "Job":
        """An O(1) copy of this job under a new identity.

        The task set, transfer list, dependency maps, topological order
        and cached structural hash are all immutable once construction
        succeeded, so the clone *shares* them instead of re-validating
        the DAG — the template-workload path clones one job per arrival
        and must not pay O(tasks + edges) each time.  Only ``job_id``
        and (optionally) ``owner`` differ; neither is covered by the
        structural hash, so sharing the cached hash is sound.
        """
        other = object.__new__(type(self))
        other.job_id = job_id
        other.tasks = self.tasks
        other.transfers = self.transfers
        other.deadline = self.deadline
        other.owner = self.owner if owner is None else owner
        other._succ = self._succ
        other._pred = self._pred
        other._transfer_by_edge = self._transfer_by_edge
        other._topo_order = self._topo_order
        other._structural_hash = self._structural_hash
        return other

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.tasks

    def task(self, task_id: str) -> Task:
        """Return the task with the given id."""
        try:
            return self.tasks[task_id]
        except KeyError:
            raise KeyError(
                f"job {self.job_id!r} has no task {task_id!r}") from None

    def successors(self, task_id: str) -> list[str]:
        """Tasks that directly consume the output of ``task_id``."""
        return list(self._succ[task_id])

    def predecessors(self, task_id: str) -> list[str]:
        """Tasks whose output ``task_id`` directly consumes."""
        return list(self._pred[task_id])

    def transfer_between(self, src: str, dst: str) -> Optional[DataTransfer]:
        """The transfer on edge (src, dst), or None if no such edge."""
        return self._transfer_by_edge.get((src, dst))

    def sources(self) -> list[str]:
        """Tasks with no predecessors, in insertion order."""
        return [tid for tid in self.tasks if not self._pred[tid]]

    def sinks(self) -> list[str]:
        """Tasks with no successors, in insertion order."""
        return [tid for tid in self.tasks if not self._succ[tid]]

    def topological_order(self) -> list[str]:
        """A deterministic topological ordering of task ids."""
        return list(self._topo_order)

    def _compute_topo_order(self) -> list[str]:
        in_degree = {tid: len(self._pred[tid]) for tid in self.tasks}
        # Deterministic Kahn: always pick the first ready task in
        # insertion order.
        order: list[str] = []
        ready = [tid for tid in self.tasks if in_degree[tid] == 0]
        while ready:
            current = ready.pop(0)
            order.append(current)
            newly_ready = []
            for succ in self._succ[current]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    newly_ready.append(succ)
            # Keep insertion order among the newly ready tasks.
            ready.extend(sorted(newly_ready,
                                key=list(self.tasks).index))
        if len(order) != len(self.tasks):
            raise JobValidationError(
                f"job {self.job_id!r} contains a dependency cycle")
        return order

    # ------------------------------------------------------------------
    # Path / chain utilities for the critical works method
    # ------------------------------------------------------------------

    def all_paths(self, limit: int = 10000) -> list[list[str]]:
        """All source→sink task chains, in DFS order.

        ``limit`` bounds the enumeration on pathological graphs; the jobs
        in the paper's experiments have a handful of paths.

        Pure enumeration — repeated callers should go through
        :meth:`repro.core.context.SchedulingContext.job_paths`, which
        memoizes per job (the DAG is immutable once built).
        """
        paths: list[list[str]] = []
        # An explicit stack of pending prefixes, pushed in reverse so
        # pops follow DFS order (a self-recursive closure would leave a
        # reference cycle behind on every call).
        pending = [[source] for source in reversed(self.sources())]
        while pending and len(paths) < limit:
            prefix = pending.pop()
            successors = self._succ[prefix[-1]]
            if successors:
                pending.extend(prefix + [succ]
                               for succ in reversed(successors))
            else:
                paths.append(prefix)
        return paths

    def chain_length(self, chain: Sequence[str], performance: float = 1.0,
                     level: float = 0.0,
                     transfer_time: Optional[Callable[[DataTransfer], int]]
                     = None) -> int:
        """Estimated length of a task chain on nodes of one performance.

        Includes the data-transfer times along the chain, matching the
        paper's "longest (in terms of estimated execution time) chain ...
        including data transfer time" definition of a critical work.
        """
        if transfer_time is None:
            transfer_time = lambda t: t.base_time  # noqa: E731
        total = 0
        for index, task_id in enumerate(chain):
            total += self.task(task_id).duration_on(performance, level)
            if index + 1 < len(chain):
                transfer = self.transfer_between(task_id, chain[index + 1])
                if transfer is None:
                    raise ValueError(
                        f"chain edge ({task_id!r}, {chain[index + 1]!r}) "
                        f"is not in job {self.job_id!r}")
                total += transfer_time(transfer)
        return total

    def critical_chains(self, performance: float = 1.0, level: float = 0.0
                        ) -> list[tuple[int, list[str]]]:
        """All source→sink chains sorted by decreasing estimated length.

        Ties break on the chain's task ids so the order is deterministic.
        Returns ``(length, chain)`` pairs; the head is the critical work
        of the whole job.
        """
        scored = [
            (self.chain_length(path, performance, level), path)
            for path in self.all_paths()
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        return scored

    def total_volume(self) -> float:
        """Sum of task volumes (used by relative-cost metrics)."""
        return sum(task.volume for task in self.tasks.values())

    def max_width(self) -> int:
        """The task parallelism degree: the largest set of tasks at one
        precedence depth (how many nodes the job can use at once)."""
        depth: dict[str, int] = {}
        for task_id in self._topo_order:
            preds = self._pred[task_id]
            depth[task_id] = (max(depth[p] for p in preds) + 1
                              if preds else 0)
        counts: dict[int, int] = {}
        for level in depth.values():
            counts[level] = counts.get(level, 0) + 1
        return max(counts.values())

    def minimal_makespan(self, best_performance: float = 1.0) -> int:
        """Lower bound on completion time: the critical path at best perf."""
        chains = self.critical_chains(best_performance)
        return chains[0][0] if chains else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Job {self.job_id!r}: {len(self.tasks)} tasks, "
                f"{len(self.transfers)} transfers, deadline={self.deadline}>")
