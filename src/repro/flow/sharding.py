"""Domain sharding: partitioning the VO and the offer competition.

The paper's virtual organization is a federation of *domains*, each
with its own job manager; nothing in the model requires one process to
plan every domain's jobs serially.  This module supplies the planning
half of the flow layer, shared by both lanes through
:class:`~repro.flow.metascheduler.Metascheduler`:

* :func:`partition_domains` — a balanced, deterministic partition of
  the VO's domains into shards (a disjoint cover of the pool;
  property-tested in ``tests/property/test_shard_partition.py``), one
  metascheduler per shard in the sharded lane
  (:mod:`repro.flow.sharded`);
* :func:`plan_with_cache` — the flow layer's plan-cache read (an
  exact hit, else cold generation) and its counters;
* :class:`ShardPlanner` — a set of domain managers over one
  :class:`~repro.core.context.SchedulingContext`, choosing the
  cheapest admissible offer: the offer competition behind
  :meth:`~repro.flow.metascheduler.Metascheduler.plan_job`, with its
  answers memoized exactly per (structure, family, release, calendar
  versions) in the context's offer memo.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Mapping, Optional, Sequence, Tuple)

from ..core.calendar import ReservationCalendar
from ..core.context import PlanCache, SchedulingContext
from ..perf import PERF
from .manager import JobManager

if TYPE_CHECKING:
    from ..core.job import Job
    from ..core.resources import ResourcePool
    from ..core.strategy import Strategy, StrategyType

__all__ = ["partition_domains", "plan_with_cache", "ShardPlanner"]


def partition_domains(domains: Sequence[str],
                      shards: int) -> list[Tuple[str, ...]]:
    """Partition domain names into at most ``shards`` balanced groups.

    Deterministic round-robin over the domains in the order given
    (callers pass ``pool.domains()`` — first-appearance order), so the
    same layout always produces the same partition: shard ``i`` owns
    domains ``i, i + shards, i + 2 * shards, ...``.  Every domain lands
    in exactly one shard (a disjoint cover) and group sizes differ by
    at most one.  With more shards than domains the extra shards are
    simply not created; with ``shards == 1`` the single "shard" is the
    whole VO.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if not domains:
        raise ValueError("cannot partition an empty domain list")
    if len(set(domains)) != len(domains):
        raise ValueError(f"duplicate domain names in {domains!r}")
    count = min(shards, len(domains))
    groups: list[list[str]] = [[] for _ in range(count)]
    for index, domain in enumerate(domains):
        groups[index % count].append(domain)
    return [tuple(group) for group in groups]


def plan_with_cache(manager: JobManager, job: "Job", stype: "StrategyType",
                    release: int,
                    calendars: Mapping[int, ReservationCalendar],
                    plans: PlanCache) -> "Strategy":
    """Plan one job on one manager through the semantic plan cache.

    Every offer of :meth:`ShardPlanner.plan` is read here, so both
    lanes count reuse identically.  A read resolves one of two ways:

    * **exact hit** (``flow.plan_cache_hits``) — a variant with the
      same structural hash, the same release, and an unchanged epoch
      slice over the domain's nodes exists; generation inputs are
      byte-identical, so the cached strategy itself is returned, still
      bound to the job it was generated for.  Serving it to another
      job (a template sibling) counts ``flow.plan_rebinds``; the copy
      under the caller's job id is made only when a variant of the
      offer is booked (:meth:`~repro.core.strategy.Strategy.rebind`
      in the metascheduler's commit), never here;
    * **miss** (``flow.plan_cache_misses``) — no variant matches, and
      the strategy is generated cold.

    The domain's epoch slice is read off ``calendars``: snapshot copies
    share content versions with their masters — the same values
    ``grid.epoch_slice`` reports — so no grid handle is needed.
    Generated strategies are stored under their semantic key; nothing
    is retained per job id, and a hit stores nothing.  Compare offers
    by their schedules' costs and placements only: a served strategy's
    ``job`` may be a sibling.
    """
    structural_hash = job.structural_hash
    epochs = tuple(calendars[node_id].version
                   for node_id in manager.pool.node_ids())
    cached = plans.lookup(structural_hash, stype, manager.domain, release,
                          epochs)
    if cached is not None:
        if PERF.enabled:
            PERF.incr("flow.plan_cache_hits")
            if cached.job is not job:
                # Served across template siblings: same structure, same
                # epochs — only the recorded job identity differs.
                PERF.incr("flow.plan_rebinds")
        return cached
    if PERF.enabled:
        PERF.incr("flow.plan_cache_misses")
    strategy = manager.plan(job, calendars, stype, release=release)
    plans.store(structural_hash, stype, manager.domain, release, epochs,
                strategy)
    return strategy


class ShardPlanner:
    """The offer competition over a set of domains.

    Owns one :class:`~repro.flow.manager.JobManager` per domain, in the
    order given, over one :class:`~repro.core.context.SchedulingContext`
    (its plan cache included).  Each
    :class:`~repro.flow.metascheduler.Metascheduler` owns one planner:
    over every domain in the online lane, over one shard's domains in
    the sharded lane, so concurrent shards never touch each other's
    caches.
    """

    def __init__(self, domains: Sequence[str],
                 pool: "ResourcePool", policy_models=None, cost_model=None,
                 context: Optional[SchedulingContext] = None):
        if not domains:
            raise ValueError("a planner needs at least one domain")
        self.context = context if context is not None else SchedulingContext()
        self.managers = [
            JobManager(domain, pool, policy_models, cost_model,
                       context=self.context)
            for domain in domains
        ]
        #: Every node the managers read, in manager order: the calendar
        #: versions of the offer memo's key.
        self._node_ids = tuple(node_id for manager in self.managers
                               for node_id in manager.pool.node_ids())

    def plan(self, job: "Job", stype: "StrategyType", release: int,
             calendars: Mapping[int, ReservationCalendar]
             ) -> Optional[Tuple[JobManager, "Strategy"]]:
        """The best offer for a job, or None when inadmissible.

        The cheapest admissible offer wins; the first manager wins cost
        ties.  ``calendars`` must cover (at least) the planner's nodes;
        managers slice their own domains out.  Nothing is booked, and
        the offer's strategy is served from the plan cache as stored:
        it may still be bound to a template sibling of ``job``.

        A repeat of an earlier call's exact inputs — the same structure,
        family and release against the same calendar versions — is
        answered from the context's offer memo (``flow.offer_cache``):
        the same offer strategy, or None again.  Generation reads
        nothing else and the competition is deterministic, so the memo
        is exact.  It counts, per domain, the plan-cache hits and
        rebinds the competition would have counted.  The memo stores
        the winner's manager index, not the manager, so the context
        holds no reference back to its planner.
        """
        key = (job.structural_hash, stype, release,
               tuple([calendars[node_id].version
                      for node_id in self._node_ids]))
        offers = self.context.offers
        memo = offers.get(key)
        if memo is not None:
            winner, strategies = memo
            if PERF.enabled:
                PERF.incr("flow.offer_cache_hits")
                PERF.incr("flow.plan_cache_hits", len(strategies))
                rebinds = sum(1 for strategy in strategies
                              if strategy.job is not job)
                if rebinds:
                    PERF.incr("flow.plan_rebinds", rebinds)
            if winner is None:
                return None
            return self.managers[winner], strategies[winner]
        if PERF.enabled:
            PERF.incr("flow.offer_cache_misses")
        winner = None
        best_cost = float("inf")
        planned: list["Strategy"] = []
        for index, manager in enumerate(self.managers):
            strategy = plan_with_cache(manager, job, stype, release,
                                       calendars, self.context.plans)
            planned.append(strategy)
            chosen = strategy.best_schedule()
            if chosen is None:
                continue
            if chosen.outcome.cost < best_cost:
                winner = index
                best_cost = chosen.outcome.cost
        offers[key] = (winner, tuple(planned))
        if winner is None:
            return None
        return self.managers[winner], planned[winner]
