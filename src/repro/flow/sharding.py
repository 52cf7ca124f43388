"""Domain sharding: partitioning the VO and planning per shard.

The paper's virtual organization is a federation of *domains*, each
with its own job manager; nothing in the model requires one process to
plan every domain's jobs serially.  This module supplies the pieces the
sharded online engine (:mod:`repro.flow.sharded`) is built from, and
the plan-cache read the metascheduler shares with it:

* :func:`partition_domains` — a balanced, deterministic partition of
  the VO's domains into shards (a disjoint cover of the pool;
  property-tested in ``tests/property/test_shard_partition.py``);
* :func:`plan_with_cache` — the flow layer's graded plan-cache read
  (exact hit → warm repair → coarse seed → cold generation), factored
  out of the metascheduler so shard planners and the metascheduler
  share one implementation and one set of counters;
* :class:`ShardPlanner` — one shard's managers over one shard-owned
  :class:`~repro.core.context.SchedulingContext`, choosing the
  cheapest admissible offer exactly like the metascheduler does over
  the full VO (so one shard over all domains reproduces sequential
  dispatch bit for bit);
* :func:`replica_calendars` — bulk reconstruction of a shard's
  calendars from shared-memory gap tables on the worker side.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Mapping, Optional, Sequence, Tuple)

from ..core.calendar import GapTable, ReservationCalendar
from ..core.context import PlanCache, SchedulingContext
from ..perf import PERF
from .manager import JobManager

if TYPE_CHECKING:
    from ..core.job import Job
    from ..core.resources import ResourcePool
    from ..core.strategy import Strategy, StrategyType

__all__ = ["partition_domains", "plan_with_cache", "ShardPlanner",
           "replica_calendars"]


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
                    plans: PlanCache, *,
                    epochs: Optional[Tuple[int, ...]] = None,
                    retain: bool = True) -> "Strategy":
    """Plan one job on one manager through the semantic plan cache.

    The single implementation behind both the metascheduler's
    ``_plan_for`` and the shard planners, so every lane counts reuse
    identically.  Reads resolve in four grades:

    * **exact hit** (``flow.plan_cache_hits``) — a variant with the
      same structural hash, the same release, and an unchanged epoch
      slice over the domain's nodes exists; generation inputs are
      byte-identical, so the strategy is served outright (rebound to
      this job's id when it was generated for a template sibling —
      ``flow.plan_rebinds``);
    * **warm repair** (``flow.plan_repairs``) — a same-structure
      variant exists but its release/epochs drifted; its per-level
      assignments seed a warm-started regeneration that re-searches
      only what no longer fits, bit-identical to a cold replan;
    * **coarse seed** (``flow.plan_coarse_hits``) — not even the shape
      matched (the all-unique-jobs regime), but a strategy was
      previously generated for this (family, domain, pool signature);
      its assignments still warm-start the DP.  Seeds only *hint* the
      warm start — exact pruning ignores hints that no longer fit — so
      outcomes stay bit-identical to a cold pass;
    * **cold miss** (``flow.plan_coarse_misses``) — generate with no
      seed at all.

    ``epochs`` is the domain's epoch slice; when omitted it is read off
    ``calendars`` directly (snapshot copies share content versions with
    their masters — the same values ``grid.epoch_slice`` reports), so
    no grid handle is needed and worker processes can plan against
    replica calendars.  Freshly generated strategies are stored under
    their
    semantic key and as the coarse seed for their (family, domain,
    pool).  With ``retain=False`` the manager's per-job strategy
    retention is skipped — the sharded batch lane plans 10^5+ jobs
    through long-lived managers and must not accumulate a strategy per
    job id.
    """
    shape_hash = job.shape_hash
    structural_hash = job.structural_hash
    node_ids = manager.pool.node_ids()
    if epochs is None:
        epochs = tuple(calendars[node_id].version for node_id in node_ids)
    cached = plans.lookup(shape_hash, structural_hash, stype,
                          manager.domain, release, epochs)
    if cached is not None:
        if PERF.enabled:
            PERF.incr("flow.plan_cache_hits")
        strategy = cached.rebind(job)
        if strategy is not cached:
            # Served across template siblings: same structure, same
            # epochs — only the recorded job identity differs.
            if PERF.enabled:
                PERF.incr("flow.plan_rebinds")
            plans.store(shape_hash, structural_hash, stype,
                        manager.domain, release, epochs, strategy)
        if retain:
            # Keep the manager's retention behaviour identical to a
            # fresh plan() call.
            manager.strategies[job.job_id] = strategy
        return strategy
    seed = plans.repair_seed(shape_hash, structural_hash, stype,
                             manager.domain)
    if seed is not None:
        if PERF.enabled:
            PERF.incr("flow.plan_repairs")
        seed_hints = seed.level_hints()
    else:
        if PERF.enabled:
            PERF.incr("flow.plan_cache_misses")
        coarse = plans.coarse_seed(stype, manager.domain, node_ids)
        if coarse is not None:
            if PERF.enabled:
                PERF.incr("flow.plan_coarse_hits")
            seed_hints = coarse.level_hints()
        else:
            if PERF.enabled:
                PERF.incr("flow.plan_coarse_misses")
            seed_hints = None
    strategy = manager.plan(job, calendars, stype, release=release,
                            seed_hints=seed_hints)
    if not retain:
        manager.drop(job.job_id)
    plans.store(shape_hash, structural_hash, stype, manager.domain,
                release, epochs, strategy)
    plans.store_coarse(stype, manager.domain, node_ids, strategy)
    return strategy


class ShardPlanner:
    """One shard's job managers over one shard-owned context.

    Owns a :class:`~repro.core.context.SchedulingContext` (per the
    sharded design: contexts are shard-private, so concurrent shards
    never touch each other's caches) and one
    :class:`~repro.flow.manager.JobManager` per owned domain, in
    partition order.  :meth:`plan` mirrors the metascheduler's
    ``plan_job`` offer competition — cheapest admissible offer wins,
    first manager wins cost ties — restricted to the shard's domains,
    so a single shard owning every domain is the sequential
    metascheduler, bit for bit.
    """

    def __init__(self, shard_id: int, domains: Sequence[str],
                 pool: "ResourcePool", policy_models=None, cost_model=None,
                 context: Optional[SchedulingContext] = None):
        if not domains:
            raise ValueError(f"shard {shard_id} owns no domains")
        self.shard_id = shard_id
        self.domains = tuple(domains)
        self.context = context if context is not None else SchedulingContext()
        self.managers = [
            JobManager(domain, pool, policy_models, cost_model,
                       context=self.context)
            for domain in self.domains
        ]
        #: The shard's node ids, manager (domain) order then pool order —
        #: the slice of the VO this planner reads and its commits touch.
        self.node_ids: Tuple[int, ...] = tuple(
            node_id for manager in self.managers
            for node_id in manager.pool.node_ids())

    def plan(self, job: "Job", stype: "StrategyType", release: int,
             calendars: Mapping[int, ReservationCalendar]
             ) -> Optional[Tuple[JobManager, "Strategy"]]:
        """The shard's best offer for a job, or None when inadmissible.

        ``calendars`` must cover (at least) the shard's nodes; managers
        slice their own domains out.  Nothing is booked and nothing is
        retained per job id (``retain=False`` — see
        :func:`plan_with_cache`).
        """
        best: Optional[Tuple[JobManager, "Strategy"]] = None
        best_cost = float("inf")
        for manager in self.managers:
            strategy = plan_with_cache(manager, job, stype, release,
                                       calendars, self.context.plans,
                                       retain=False)
            chosen = strategy.best_schedule()
            if chosen is None:
                continue
            if chosen.outcome.cost < best_cost:
                best = (manager, strategy)
                best_cost = chosen.outcome.cost
        return best


def replica_calendars(tables: Mapping[int, GapTable],
                      tag: str = "replica"
                      ) -> dict[int, ReservationCalendar]:
    """Rebuild per-node calendars from (attached) gap tables.

    The worker side of an epoch sync: given the zero-copy gap-table
    views of a :class:`~repro.core.placement.SharedGapExport`, rebuild
    real calendars the planning kernel can run against.  A table with
    ``n + 1`` gaps encodes ``n`` reservations — reservation ``k`` is
    exactly ``[gap_end[k], gap_start[k + 1])`` (zero-length gaps are
    kept by the table, so even back-to-back reservations round-trip) —
    and :meth:`~repro.core.calendar.ReservationCalendar.from_busy`
    bulk-loads them in O(n).  Original reservation tags are not
    shipped: workers only plan against free space, never release or
    re-tag, so all replica reservations carry ``tag``.
    """
    calendars: dict[int, ReservationCalendar] = {}
    for node_id, table in tables.items():
        gaps = table.gap_start.shape[0]
        calendars[node_id] = ReservationCalendar.from_busy(
            table.gap_end[:gaps - 1], table.gap_start[1:], tag=tag)
    return calendars
