"""Computation granularity control: coarsening compound jobs.

Strategy S3 of the paper works with *coarse-grain computations*: tasks
are aggregated so there are fewer, bigger tasks and fewer data exchanges.
Coarsening merges a task into its sole predecessor whenever that
predecessor has it as its only successor (a linear section of the DAG);
the internal data transfer disappears (the data never leaves the node),
volumes and base times add up, and external edges are re-attached.
"""

from __future__ import annotations

from typing import Optional

from .job import DataTransfer, Job, Task
from .units import ceil_units

__all__ = ["coarsen"]


def coarsen(job: Job, factor: float = 2.0,
            target_tasks: Optional[int] = None,
            aggressive: bool = False) -> Job:
    """Return a coarser version of ``job``.

    Parameters
    ----------
    factor:
        Desired reduction ratio; merging stops once the task count drops
        to ``ceil(len(job) / factor)`` or no merge remains.
    target_tasks:
        Explicit task-count target overriding ``factor``.
    aggressive:
        When False only strictly linear sections merge (src's sole
        successor, dst's sole predecessor).  When True any edge whose
        contraction keeps the graph acyclic may merge — linear sections
        first — so fork/join structures coarsen too (tasks absorbed into
        a neighbour simply serialize on its node; a conservative
        abstraction for "coarse-grain computations").

    The result is a new job (the input is untouched) whose task ids are
    ``+``-joined chains of the merged originals, e.g. ``"P1+P2"``.
    """
    if target_tasks is None:
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        target_tasks = max(1, ceil_units(len(job) / factor))
    if target_tasks < 1:
        raise ValueError(f"target_tasks must be >= 1, got {target_tasks}")

    # Mutable mirror of the DAG.
    tasks: dict[str, Task] = dict(job.tasks)
    succ: dict[str, list[str]] = {t: job.successors(t) for t in job.tasks}
    pred: dict[str, list[str]] = {t: job.predecessors(t) for t in job.tasks}
    edges: dict[tuple[str, str], DataTransfer] = {
        (t.src, t.dst): t for t in job.transfers}

    def has_indirect_path(source: str, target: str) -> bool:
        """True when target is reachable from source avoiding the direct
        edge — contracting such an edge would create a cycle."""
        stack = [s for s in succ[source] if s != target]
        seen = set(stack)
        while stack:
            current = stack.pop()
            if current == target:
                return True
            for nxt in succ[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def mergeable_edge() -> Optional[tuple[str, str]]:
        """The next edge to contract: linear sections first, then (in
        aggressive mode) any acyclicity-preserving edge."""
        fallback: Optional[tuple[str, str]] = None
        for head_id in tasks:
            for tail_id in succ[head_id]:
                linear = (len(succ[head_id]) == 1
                          and pred[tail_id] == [head_id])
                if linear:
                    return (head_id, tail_id)
                if (aggressive and fallback is None
                        and not has_indirect_path(head_id, tail_id)):
                    fallback = (head_id, tail_id)
        return fallback

    while len(tasks) > target_tasks:
        edge = mergeable_edge()
        if edge is None:
            break
        head_id, tail_id = edge
        head, tail = tasks[head_id], tasks[tail_id]
        merged_id = f"{head_id}+{tail_id}"
        merged = Task(
            merged_id,
            volume=head.volume + tail.volume,
            best_time=head.best_time + tail.best_time,
            worst_time=head.worst_time + tail.worst_time,
        )

        del tasks[head_id], tasks[tail_id]
        tasks[merged_id] = merged
        del edges[(head_id, tail_id)]

        def repoint(old_id: str, incoming: bool) -> list[str]:
            """Re-attach old_id's external edges onto the merged task."""
            attached: list[str] = []
            others = pred[old_id] if incoming else succ[old_id]
            for other in list(others):
                if other in (head_id, tail_id):
                    continue
                old_edge = (other, old_id) if incoming else (old_id, other)
                transfer = edges.pop(old_edge)
                new_edge = ((other, merged_id) if incoming
                            else (merged_id, other))
                if new_edge in edges:
                    # Parallel edges collapse: keep the slower transfer.
                    existing = edges[new_edge]
                    transfer = DataTransfer(
                        existing.transfer_id, new_edge[0], new_edge[1],
                        existing.volume + transfer.volume,
                        max(existing.base_time, transfer.base_time))
                else:
                    transfer = DataTransfer(
                        transfer.transfer_id, new_edge[0], new_edge[1],
                        transfer.volume, transfer.base_time)
                edges[new_edge] = transfer
                mirror = succ[other] if incoming else pred[other]
                mirror[:] = [m for m in mirror
                             if m not in (head_id, tail_id)]
                if merged_id not in mirror:
                    mirror.append(merged_id)
                if other not in attached:
                    attached.append(other)
            return attached

        new_pred = repoint(head_id, incoming=True)
        for other in repoint(tail_id, incoming=True):
            if other not in new_pred:
                new_pred.append(other)
        new_succ = repoint(head_id, incoming=False)
        for other in repoint(tail_id, incoming=False):
            if other not in new_succ:
                new_succ.append(other)

        del succ[head_id], succ[tail_id]
        del pred[head_id], pred[tail_id]
        succ[merged_id] = new_succ
        pred[merged_id] = new_pred

    coarse = Job(job.job_id, tasks.values(), edges.values(),
                 deadline=job.deadline, owner=job.owner)
    return coarse
