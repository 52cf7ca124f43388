"""A lightweight counter/timer registry for the scheduling kernel.

Hot paths report with the pattern::

    from ..perf import PERF
    ...
    if PERF.enabled:
        PERF.incr("calendar.conflicts")

so the disabled cost is one attribute read and one branch.  The
registry is process-global and *not* thread-safe by design: the
parallel study runner fans out over processes, and each process owns
its own registry.

Counter names reported by the kernel
------------------------------------

``calendar.conflicts``
    Overlap queries answered by :meth:`ReservationCalendar.conflicts`.
``calendar.is_free``
    Boolean availability probes (O(log n) fast path).
``calendar.earliest_fit``
    Lazy first-fit searches over free windows.
``calendar.latest_fit``
    Backward last-fit searches (the DP's latest-start pass).
``calendar.cow_copies``
    What-if snapshots taken via copy-on-write (O(1) each).
``calendar.materializations``
    Snapshots that were actually written to and paid the list copy.
``dp.expansions``
    DP state expansions actually performed.  The paper's
    strategy-generation expense metric (``evaluations``) counts the
    same events; branch-and-bound pruning and the latest-start pass,
    which keeps the search off states with no feasible tail, remove
    some of them while the schedules stay bit-identical.
``dp.pruned``
    Candidate transitions discarded by branch-and-bound bounds (work an
    unpruned search would have expanded).
``dp.incumbents_warm`` / ``dp.incumbents_cold``
    Multi-task chain searches that found a feasible incumbent to prune
    with vs. searches that found none and ran unpruned (defensive;
    expected 0: the latest-start pass keeps only rows that can complete
    the chain, so the greedy descent never dead-ends).  The names
    predate the removal of warm starts: ``dp.incumbents_warm`` counts
    every incumbent built, all of them by the cold greedy descent.  Chains the
    latest-start pass proves infeasible, and cost-objective chains
    under a cost model that is not start-invariant, count in neither.
    Deliberately *not* a ``*_hits``/``*_misses``
    pair: the incumbent machinery is not a cache, and the pair suffix is
    reserved for caches owned by the
    :class:`~repro.core.context.SchedulingContext`.
``dp.transfer_cache_hits`` / ``dp.transfer_cache_misses``
    Per-``(transfer, src, dst)`` transfer-time memoization in the task
    table's lag memo.  Only transfer models without ``uniform_lag``
    read it; every built-in model declares a uniform lag, so runs on
    them count neither.
``dp.fit_cache_hits`` / ``dp.fit_cache_misses``
    Interval-witness ``earliest_fit`` answers served from (or added
    to) the queried calendar content version's witness store, shared
    across DP calls and contexts; a hit means the node's calendar is
    provably unchanged since the answer was computed.  The store is
    freed with its version, so there is no eviction counter.
``dp.duration_cache_hits`` / ``dp.duration_cache_misses``
    The DP's task table (:class:`~repro.core.context.TaskTable`): one
    count per chain task and call, a hit when the task's durations at
    this (level, candidate node set) were already in the table, a miss
    when one vectorized sweep filled them.
``dp.warm_fallbacks``
    Pruned searches that fell back to an unpruned pass (defensive;
    expected 0).
``placement.gap_table_hits`` / ``placement.gap_table_misses``
    The context's version-keyed gap-table cache (a miss derives the
    table from the reservation list — the former
    ``placement.gap_rebuilds``); ``placement.gap_table_evictions``
    counts LRU drops.
``flow.offer_cache_hits`` / ``flow.offer_cache_misses``
    The context's offer memo, read once per
    :meth:`~repro.flow.sharding.ShardPlanner.plan` call before any
    plan-cache read: keyed on (structural hash, family, release, the
    version of every calendar the planner's managers read), it holds
    the offer competition's answer, no offer included.  A hit decides
    the arrival in one lookup; a miss runs the per-domain competition
    below and stores its answer.  ``flow.offer_cache_evictions``
    counts LRU drops.
``flow.plan_cache_hits`` / ``flow.plan_cache_misses``
    Metascheduler strategy reuse through the context's plan cache,
    keyed semantically: entries by (structural hash, family, domain),
    each holding concrete variants by (release, epoch slice).  A hit
    serves an identically structured plan against provably unchanged
    calendars; a miss generates cold.  Hits count domain plans served
    by either tier: an offer-memo hit counts one plan-cache hit per
    domain of the planner, as the competition it replaces would have.
    ``flow.plan_cache_evictions`` counts dropped entries and variants.
``flow.plan_rebinds``
    Exact plan-cache hits whose cached strategy was generated for a
    *different* job (a template sibling with the same structural
    hash).  The cached strategy is served as is; only an offer whose
    variant is booked is re-tagged to the requesting job, without any
    regeneration.  Always a subset of ``flow.plan_cache_hits``; an
    offer-memo hit counts one per domain whose memoized strategy was
    generated for another job.  The plan-cache *reuse rate* the flow
    tests floor is hits / (hits + misses).
``critical_works.rank_cache_hits`` / ``..._misses``
    Reuse of the context's per-(job, model, pool, level) critical-works
    ranking.
``job.paths_cache_hits`` / ``job.paths_cache_misses``
    Reuse of the context's per-job source→sink path enumeration.
``platform.store_served`` / ``platform.store_absent`` /
``platform.store_corrupt``
    Content-addressed result-store reads (``repro.platform.store``):
    verified records served without recomputation, keys with no record
    on disk, and records that existed but failed digest/key
    verification (treated as absent and recomputed).  Deliberately
    *not* a ``*_hits``/``*_misses`` pair — the store is a cross-run
    on-disk cache keyed by config content, not a
    :class:`~repro.core.context.SchedulingContext` cache, and the pair
    suffix is reserved for those.

Every ``*_hits``/``*_misses`` pair above is emitted by exactly one
cache owned by the :class:`~repro.core.context.SchedulingContext`
(see ``CONTEXT_CACHE_NAMES``); ``tests/perf/test_counter_audit.py``
enforces the invariant so orphaned pairs cannot accumulate.

Timer names
-----------

``strategy.generate``
    Wall time spent building whole strategies (all levels).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["PerfRegistry", "PERF", "derive_cache_stats"]


def derive_cache_stats(counters: dict[str, int]
                       ) -> dict[str, dict[str, float]]:
    """The one hit-rate reader: per-cache statistics from counter pairs.

    Every counter pair named ``<cache>_hits`` / ``<cache>_misses``
    (either side may be absent and defaults to 0) yields one entry
    ``{<cache>: {"hits": h, "misses": m, "hit_rate": h / (h + m)}}``.
    Pass ``PERF.snapshot()["counters"]`` from a run collected under
    :meth:`PerfRegistry.collecting`; the end-to-end benchmark report
    reads cache effectiveness this way.  Each derived name must correspond to
    a :class:`~repro.core.context.SchedulingContext` cache
    (``CONTEXT_CACHE_NAMES``) — the counter audit test keeps the two in
    lockstep.
    """
    names = {name[: -len(suffix)]
             for name in counters
             for suffix in ("_hits", "_misses")
             if name.endswith(suffix)}
    stats: dict[str, dict[str, float]] = {}
    for name in sorted(names):
        hits = int(counters.get(f"{name}_hits", 0))
        misses = int(counters.get(f"{name}_misses", 0))
        total = hits + misses
        stats[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }
    return stats


class PerfRegistry:
    """Process-global performance counters and phase timers."""

    __slots__ = ("enabled", "counters", "timers")

    def __init__(self) -> None:
        #: Hot paths check this flag before reporting; keep it cheap.
        self.enabled: bool = False
        self.counters: dict[str, int] = {}
        #: Accumulated wall seconds per phase name.
        self.timers: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        """Start collecting (does not clear previous numbers)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting; accumulated numbers stay readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every counter and timer."""
        self.counters.clear()
        self.timers.clear()

    @contextmanager
    def collecting(self, reset: bool = True) -> Iterator["PerfRegistry"]:
        """Enable within a block, restoring the previous state after."""
        was_enabled = self.enabled
        if reset:
            self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = was_enabled

    # ------------------------------------------------------------------
    # Reporting (call sites guard on ``enabled``)
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the block's wall time under ``name``.

        Reports only when the registry is enabled at entry, so call
        sites can use it unconditionally.
        """
        if not self.enabled:
            yield
            return
        started = time.perf_counter()  # lint: perf-timer — real elapsed time
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started  # lint: perf-timer
            self.timers[name] = self.timers.get(name, 0.0) + elapsed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A JSON-ready copy of the current numbers."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {name: round(seconds, 6)
                       for name, seconds in sorted(self.timers.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (f"<PerfRegistry {state}: {len(self.counters)} counters, "
                f"{len(self.timers)} timers>")


#: The process-global registry the kernel reports into.
PERF = PerfRegistry()
