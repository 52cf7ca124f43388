"""Process fan-out with a deterministic in-order merge.

This is the one place the experiments layer constructs a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Process fan-out
lives in :mod:`repro.platform` only: the REP013 lint rule keeps ad-hoc
pools out of ``repro/experiments/``, ``repro/core/`` and
``repro/flow/`` (the sharded lane, ``repro.flow.sharded``, plans
in-process).  The contract is the one the PR-2 study runner
established: tasks are pure functions of their item (all randomness
forked from ``(seed, name, index)``), so results can be yielded in
submission order and any worker count is bit-identical to the
sequential path.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, Optional, TypeVar

__all__ = ["effective_workers", "fanout_map"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def effective_workers(workers: Optional[int], task_count: int) -> int:
    """Clamp a worker request to something sensible for ``task_count``.

    ``None`` means one worker per CPU; requests above the task count
    are clamped (a pool larger than the work is pure overhead), and
    non-positive requests are rejected.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return min(workers, max(1, task_count))


def fanout_map(fn: Callable[[_ItemT], _ResultT],
               items: Iterable[_ItemT],
               *,
               workers: Optional[int] = 1,
               chunksize: Optional[int] = None) -> Iterator[_ResultT]:
    """Yield ``fn(item)`` for every item, in submission order.

    ``workers <= 1`` runs inline (no pool, no pickling); anything
    larger fans out over a :class:`ProcessPoolExecutor` and merges via
    ``executor.map`` — which yields in submission order, so folding the
    results reproduces the sequential fold sample for sample.  ``fn``
    must be a picklable module-level callable and self-contained (no
    reliance on parent-process globals).
    """
    materialized = list(items)
    count = effective_workers(workers, len(materialized))
    if count <= 1 or len(materialized) <= 1:
        for item in materialized:
            yield fn(item)
        return
    if chunksize is None:
        chunksize = max(1, len(materialized) // (count * 4))
    with ProcessPoolExecutor(max_workers=count) as executor:
        yield from executor.map(fn, materialized, chunksize=chunksize)
