"""One epoch-aware session layer for every cache in the kernel.

After three optimization passes the kernel had grown seven independent
caches — ``earliest_fit`` interval witnesses, per-job transfer lags and
durations, gap tables and their stacked concatenations, critical-works
rankings, source→sink path enumerations, and the metascheduler's
epoch-keyed plan cache — each with its own plumbing (module globals,
scheduler attributes, optional keyword arguments threaded through the
DP) and its own ad-hoc eviction (wholesale ``clear()`` at a size
limit).  :class:`SchedulingContext` owns all of them behind one object:

* every cache keyed on data that pins its inputs exactly — calendar
  *content versions* (process-globally unique, shared by copy-on-write
  clones; see :attr:`~repro.core.calendar.ReservationCalendar.version`)
  for placement state, :meth:`~repro.grid.environment.GridEnvironment.
  epoch_slice` vectors for whole-domain plans, and pure value keys
  (task, node, level) for durations — so invalidation is never a
  heuristic: a mutated node simply stops matching its old keys;
* bounded caches evict **per entry, least-recently-used** instead of
  clearing wholesale (the plan-cache thrash fix: a hot key survives a
  flood of unrelated keys);
* per-*job* caches are keyed on the job's **structural hash** (its
  labelled task/transfer/deadline content, excluding the job id and
  owner; see :attr:`~repro.core.job.Job.structural_hash`) and scoped
  by the identity of the transfer model (lags differ across strategy
  families) and the pool (matrices and rankings are pool-indexed) —
  template-derived jobs that share a structure share durations, lags,
  rankings, and path enumerations, and one context stays safe to
  share across families, domains, and a whole online run;
* the flow layer's plan cache is **two-tier** (:class:`PlanCache`):
  an outer LRU of *plan skeletons* keyed on the job's order- and
  label-independent :attr:`~repro.core.job.Job.shape_hash` plus the
  strategy family and domain, each holding a handful of concrete
  strategies keyed on (structural hash, release, domain epoch slice).
  An exact variant hit is a free plan; a same-structure sibling with
  drifted epochs seeds an incremental *repair* (warm-started
  regeneration, bit-identical to a cold replan);
* one :meth:`stats` surface reports every cache's hit rate, size, and
  eviction count.

The module also defines the :class:`Scheduler` protocol —
``schedule(job, pool, calendars, context=...) -> SchedulingOutcome`` —
implemented by :class:`~repro.core.critical_works.
CriticalWorksScheduler` and the :mod:`repro.baselines` adapters, so
experiments, the metascheduler, and the benchmark dispatch through one
interface.

Sharing a context never changes results: every cache is exact (pure
value keys or content-version keys), so a warm context returns
bit-identical schedules to a cold one — asserted by the differential
tests in ``tests/core/test_context_differential.py`` and the stale-
entry property tests in ``tests/property/test_context_invalidation.py``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import (TYPE_CHECKING, Any, Dict, Generic, Iterator, List,
                    Mapping, Optional, Protocol, Sequence, Tuple, TypeVar,
                    ValuesView, runtime_checkable)

from ..perf import PERF
from .calendar import GapTable, ReservationCalendar
from .placement import StackedGaps

if TYPE_CHECKING:  # imports that would be circular at runtime
    from ..flow.metascheduler import Metascheduler  # noqa: F401
    from .critical_works import SchedulingOutcome
    from .job import Job
    from .resources import ResourcePool
    from .strategy import Strategy, StrategyType

__all__ = ["LruCache", "PlanCache", "SchedulingContext", "Scheduler",
           "CONTEXT_CACHE_NAMES", "merged_context_stats"]

K = TypeVar("K")
V = TypeVar("V")

#: Interval-witness fit buckets retained before LRU eviction; buckets
#: hold a handful of (earliest, start) witnesses each, so this caps the
#: memo in the tens of MB.
DEFAULT_FIT_CAPACITY = 1 << 16
#: Gap tables retained (one per live calendar content version).
DEFAULT_GAP_TABLE_CAPACITY = 8192
#: Stacked gap-table array sets retained (one per version sequence).
DEFAULT_STACK_CAPACITY = 1024
#: Plan skeletons (shape × family × domain) retained by the flow layer.
DEFAULT_PLAN_CAPACITY = 4096
#: Concrete strategy variants retained per plan skeleton.
DEFAULT_PLAN_VARIANTS = 8
#: Distinct job structures whose per-job caches are retained.
DEFAULT_STRUCT_CAPACITY = 4096
#: Coarse warm-start seeds retained by the plan cache — one freshest
#: strategy per (family, domain, pool signature), so the footprint is
#: tiny even with generous headroom.
DEFAULT_COARSE_CAPACITY = 512

#: Every cache (or counter pair) the context owns, as reported by
#: :meth:`SchedulingContext.stats`.  The orphan audit in
#: ``tests/perf/test_counter_audit.py`` asserts that each
#: ``*_hits``/``*_misses`` pair of the :mod:`repro.perf` registry maps
#: onto exactly one of these names.
CONTEXT_CACHE_NAMES: Tuple[str, ...] = (
    "dp.fit_cache",
    "dp.transfer_cache",
    "dp.duration_cache",
    "placement.gap_table",
    "placement.stack",
    "critical_works.rank_cache",
    "job.paths_cache",
    "flow.plan_cache",
    "flow.plan_coarse",
)


class LruCache(Generic[K, V]):
    """A bounded mapping with per-entry least-recently-used eviction.

    ``get`` refreshes recency; inserting past ``capacity`` evicts the
    least recently used entry (never the whole cache — the wholesale
    ``clear()`` the kernel's caches used before this layer existed).
    Evictions are counted locally (always) and mirrored to the perf
    registry as ``<name>_evictions`` when it is collecting.
    """

    __slots__ = ("name", "capacity", "evictions", "_data")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.evictions = 0
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def get(self, key: K) -> Optional[V]:
        """The cached value (refreshing its recency), or None."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1
            if PERF.enabled:
                # lint: counter-ok — fixed per-cache name, pairs registered
                PERF.incr(f"{self.name}_evictions")

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def values(self) -> "ValuesView[V]":
        """The live values, oldest first (recency is not refreshed)."""
        return self._data.values()

    def clear(self) -> None:
        """Drop every entry (evictions are not counted as LRU churn)."""
        self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<LruCache {self.name}: {len(self._data)}"
                f"/{self.capacity}, {self.evictions} evicted>")


#: Interval-witness bucket: parallel sorted (earliest, start) lists
#: (see ``find_fit`` in :func:`repro.core.dp.allocate_chain`).
_FitBucket = Tuple[List[int], List[Optional[int]]]
#: Fit-cache key: (node id, calendar version, duration, deadline).
_FitKey = Tuple[int, int, int, int]
#: Plan-skeleton key: (job shape hash, strategy family, domain).
_SkeletonKey = Tuple[str, "StrategyType", str]
#: Concrete-variant key: (structural hash, release, domain epoch slice).
_VariantKey = Tuple[str, int, Tuple[int, ...]]
#: Coarse-seed key: (strategy family, domain, pool signature) — no job
#: content at all, so unique-shape arrivals still find a warm start.
_CoarseKey = Tuple["StrategyType", str, Tuple[int, ...]]


class PlanCache:
    """The flow layer's two-tier semantic plan cache.

    The outer tier is an LRU of *plan skeletons* keyed on the job's
    shape hash (order- and label-independent DAG isomorphism class;
    :attr:`~repro.core.job.Job.shape_hash`), the strategy family, and
    the domain — all template-derived siblings of one job shape land in
    one skeleton.  Each skeleton holds a small recency-ordered set of
    *concrete variants* keyed on (structural hash, release, domain
    epoch slice).

    Reuse has two grades, both driven by the same skeleton:

    * :meth:`lookup` — an **exact** variant: same labelled structure,
      same release, unchanged epoch slice over the domain's nodes.
      Generation inputs are then byte-identical and the strategy is
      served outright (rebound to the requesting job's id).
    * :meth:`repair_seed` — a **stale sibling**: same labelled
      structure but drifted release/epochs.  Its per-level node
      assignments seed a warm-started regeneration
      (:meth:`~repro.core.strategy.StrategyGenerator.generate` with
      ``seed_hints``), which patches only the tasks whose placements no
      longer fit; exact branch-and-bound pruning keeps the repaired
      plan bit-identical to a cold replan.

    The shape tier exists so structurally distinct labelings of one
    shape share skeleton residency (and eviction fate) without ever
    sharing concrete placements — label-sensitive tie-breaks in
    generation make cross-label reuse unsound, so exact reuse and
    repair seeds are always gated on the structural hash.

    Below both graded tiers sits a *coarse* seed tier
    (:meth:`coarse_seed` / :meth:`store_coarse`): the freshest
    strategy generated per (family, domain, pool-signature) key,
    regardless of job shape.  When even the shape hash misses — the
    all-unique-jobs regime, where every arrival is its own shape —
    the coarse seed's per-level node assignments still warm-start the
    DP.  Seeds only ever *hint* the warm start (hints that no longer
    fit are ignored by exact pruning), so coarse-seeded generation is
    bit-identical to a cold one; only the work saved differs.
    """

    __slots__ = ("variant_capacity", "variant_evictions", "_skeletons",
                 "coarse_capacity", "coarse_evictions", "_coarse")

    def __init__(self, name: str, capacity: int,
                 variant_capacity: int = DEFAULT_PLAN_VARIANTS,
                 coarse_capacity: int = DEFAULT_COARSE_CAPACITY) -> None:
        if variant_capacity < 1:
            raise ValueError(
                f"variant_capacity must be positive, got {variant_capacity}")
        if coarse_capacity < 1:
            raise ValueError(
                f"coarse_capacity must be positive, got {coarse_capacity}")
        self.variant_capacity = variant_capacity
        self.variant_evictions = 0
        self.coarse_capacity = coarse_capacity
        self.coarse_evictions = 0
        self._skeletons: LruCache[
            _SkeletonKey, "OrderedDict[_VariantKey, Strategy]"] = LruCache(
                name, capacity)
        self._coarse: "OrderedDict[_CoarseKey, Strategy]" = OrderedDict()

    @property
    def name(self) -> str:
        return self._skeletons.name

    @property
    def capacity(self) -> int:
        """Skeleton capacity of the outer LRU tier."""
        return self._skeletons.capacity

    @property
    def evictions(self) -> int:
        """Evicted skeletons plus variants displaced within skeletons."""
        return self._skeletons.evictions + self.variant_evictions

    def lookup(self, shape_hash: str, structural_hash: str,
               stype: "StrategyType", domain: str, release: int,
               epochs: Tuple[int, ...]) -> Optional["Strategy"]:
        """The exact cached strategy for these inputs, or None.

        A hit requires the same labelled structure, the same release,
        and an unchanged epoch slice over the domain's nodes — the
        generation inputs are then byte-identical, so reuse is exact.
        Callers count hits/repairs/misses; the cache itself does not.
        """
        variants = self._skeletons.get((shape_hash, stype, domain))
        if variants is None:
            return None
        key = (structural_hash, release, epochs)
        strategy = variants.get(key)
        if strategy is not None:
            variants.move_to_end(key)
        return strategy

    def repair_seed(self, shape_hash: str, structural_hash: str,
                    stype: "StrategyType", domain: str
                    ) -> Optional["Strategy"]:
        """The freshest same-structure variant, release/epochs ignored.

        The returned strategy is (presumed) stale — its epochs drifted
        or its release differs — and is only fit to *seed* a repair,
        never to be served as a plan.
        """
        variants = self._skeletons.get((shape_hash, stype, domain))
        if variants:
            for key in reversed(variants):
                if key[0] == structural_hash:
                    return variants[key]
        return None

    def store(self, shape_hash: str, structural_hash: str,
              stype: "StrategyType", domain: str, release: int,
              epochs: Tuple[int, ...], strategy: "Strategy") -> None:
        """Retain a freshly generated strategy under its semantic key."""
        skeleton_key = (shape_hash, stype, domain)
        variants = self._skeletons.get(skeleton_key)
        if variants is None:
            variants = OrderedDict()
            self._skeletons[skeleton_key] = variants
        variants[(structural_hash, release, epochs)] = strategy
        variants.move_to_end((structural_hash, release, epochs))
        if len(variants) > self.variant_capacity:
            variants.popitem(last=False)
            self.variant_evictions += 1
            if PERF.enabled:
                # lint: counter-ok — fixed per-cache name, pairs registered
                PERF.incr(f"{self.name}_evictions")

    def coarse_seed(self, stype: "StrategyType", domain: str,
                    pool_signature: Tuple[int, ...]
                    ) -> Optional["Strategy"]:
        """The freshest strategy seen for this (family, domain, pool).

        The fallback seed when the shape hash itself misses: any prior
        strategy over the same nodes carries per-level node assignments
        worth hinting the warm-started DP with.  Like
        :meth:`repair_seed` output, the strategy is only fit to seed —
        never to be served.  Callers count hits/misses.
        """
        key = (stype, domain, pool_signature)
        strategy = self._coarse.get(key)
        if strategy is not None:
            self._coarse.move_to_end(key)
        return strategy

    def store_coarse(self, stype: "StrategyType", domain: str,
                     pool_signature: Tuple[int, ...],
                     strategy: "Strategy") -> None:
        """Retain the freshest strategy for this (family, domain, pool)."""
        key = (stype, domain, pool_signature)
        self._coarse[key] = strategy
        self._coarse.move_to_end(key)
        if len(self._coarse) > self.coarse_capacity:
            self._coarse.popitem(last=False)
            self.coarse_evictions += 1

    def coarse_count(self) -> int:
        """Coarse warm-start seeds currently retained."""
        return len(self._coarse)

    def __len__(self) -> int:
        """Concrete variants retained across every skeleton."""
        return sum(len(variants) for variants in self._skeletons.values())

    def skeleton_count(self) -> int:
        """Plan skeletons currently resident in the outer tier."""
        return len(self._skeletons)

    def clear(self) -> None:
        """Drop every skeleton, variant, and coarse seed (not churn)."""
        self._skeletons.clear()
        self._coarse.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PlanCache {self.name}: {len(self)} variants in "
                f"{len(self._skeletons)}/{self.capacity} skeletons, "
                f"{self.evictions} evicted>")


class SchedulingContext:
    """Session state shared by every scheduler touching one environment.

    Create one per logical scheduling session — a strategy generator, a
    metascheduler and all its domain managers, a whole online run — and
    pass it down; every component then shares the same placement
    knowledge.  A default-constructed context is always safe: sharing
    only ever changes speed, never results.
    """

    def __init__(self, fit_capacity: int = DEFAULT_FIT_CAPACITY,
                 gap_table_capacity: int = DEFAULT_GAP_TABLE_CAPACITY,
                 stack_capacity: int = DEFAULT_STACK_CAPACITY,
                 plan_capacity: int = DEFAULT_PLAN_CAPACITY,
                 struct_capacity: int = DEFAULT_STRUCT_CAPACITY) -> None:
        #: Interval-witness ``earliest_fit`` memo, bucketed on (node,
        #: calendar version, duration, deadline); consumed directly by
        #: the DP inner loop (:func:`repro.core.dp.allocate_chain`).
        self.fit_cache: LruCache[_FitKey, _FitBucket] = LruCache(
            "dp.fit_cache", fit_capacity)
        #: The flow layer's two-tier semantic plan cache (shape-keyed
        #: skeletons holding epoch-keyed concrete strategies), consumed
        #: by :class:`~repro.flow.metascheduler.Metascheduler`.
        self.plans: PlanCache = PlanCache("flow.plan_cache", plan_capacity)
        self._gap_tables: LruCache[int, GapTable] = LruCache(
            "placement.gap_table", gap_table_capacity)
        self._stacks: LruCache[Tuple[int, ...], StackedGaps] = LruCache(
            "placement.stack", stack_capacity)
        #: Per-structure caches, LRU-keyed on the job's structural hash
        #: so template-derived siblings share durations, lags, rankings
        #: and path enumerations; the inner mapping is keyed on
        #: (kind, *scope tokens).
        self._struct_caches: LruCache[
            str, Dict[Tuple[object, ...], Dict[Any, Any]]] = LruCache(
                "job.struct_cache", struct_capacity)
        #: Cross-call row-price memo for cost models declaring a
        #: ``price_key`` (see :class:`~repro.core.costs.CostModel`):
        #: ``(price_key, task volume, duration, node id) -> cost``.
        #: Keys fully determine the value by the models' declaration,
        #: so entries never go stale; the key space is the workload's
        #: (volume, duration, node) diversity, which bounds the memo
        #: naturally.
        self.price_memo: Dict[Tuple[object, ...], float] = {}
        #: Per-pool node-performance vectors, by pool identity token
        #: (see :meth:`pool_performances`).
        self._pool_arrays: Dict[int, Any] = {}
        #: Identity tokens for scope objects (transfer models, pools):
        #: id -> (token, weak ref).  Tokens are monotonic and never
        #: reused, so an address recycled by the allocator can never
        #: alias a dead object's cache scope.
        self._tokens: Dict[int, Tuple[int, "weakref.ref[object]"]] = {}
        self._next_token = 0

    # ------------------------------------------------------------------
    # Identity scoping
    # ------------------------------------------------------------------

    def token(self, obj: object) -> int:
        """A stable identity token for a scope object.

        Distinct live objects always get distinct tokens (unlike raw
        ``id()``, which the allocator recycles); the same object always
        gets the same token.  Used to scope per-job caches by transfer
        model and pool identity without requiring those objects to be
        hashable.
        """
        entry = self._tokens.get(id(obj))
        if entry is not None and entry[1]() is obj:
            return entry[0]
        token = self._next_token
        self._next_token += 1
        self._tokens[id(obj)] = (token, weakref.ref(obj))
        if len(self._tokens) > 4096:
            self._prune_tokens()
        return token

    def _prune_tokens(self) -> None:
        dead = [key for key, (_, ref) in self._tokens.items()
                if ref() is None]
        for key in dead:
            del self._tokens[key]

    def job_cache(self, job: "Job", kind: str,
                  *scope: object) -> Dict[Any, Any]:
        """The per-structure cache dict of one kind, scoped by identities.

        Caches are keyed on the job's structural hash — the labelled
        task/transfer/deadline content, excluding the job id and owner
        (:attr:`~repro.core.job.Job.structural_hash`) — so every
        template-derived sibling of one structure shares durations,
        lags, matrices, rankings, and paths.  All of these memos are
        functions of exactly that content (plus the scoped models), so
        sharing is exact.  ``scope`` objects (transfer models, pools)
        are resolved to identity tokens: lags depend on the transfer
        model, matrices and rankings additionally on the pool's node
        order, so caches of different scopes must never alias.
        """
        per_struct = self._struct_caches.get(job.structural_hash)
        if per_struct is None:
            per_struct = {}
            self._struct_caches[job.structural_hash] = per_struct
        # Key shapes are specialized by arity: this accessor sits on the
        # DP's per-call path (three lookups per chain allocation), and
        # the generic tuple-of-tokens build dominated its cost.
        if not scope:
            key: Tuple[object, ...] = (kind,)
        elif len(scope) == 1:
            key = (kind, self.token(scope[0]))
        else:
            key = (kind,) + tuple(self.token(item) for item in scope)
        cache = per_struct.get(key)
        if cache is None:
            cache = {}
            per_struct[key] = cache
        return cache

    def pool_performances(self, pool: "ResourcePool") -> Any:
        """The pool's node-performance vector (float64, pool order).

        Cached by pool identity token: node performances are immutable
        and a pool's node order is fixed, so the vector is a constant of
        the pool — yet the DP was rebuilding it on every chain
        allocation.
        """
        token = self.token(pool)
        array = self._pool_arrays.get(token)
        if array is None:
            import numpy as np

            array = np.fromiter((node.performance for node in pool),
                                dtype=np.float64, count=len(pool))
            self._pool_arrays[token] = array
        return array

    # ------------------------------------------------------------------
    # Per-job caches consumed by the DP and the critical-works method
    # ------------------------------------------------------------------

    def transfer_lags(self, job: "Job",
                      model: object) -> Dict[Tuple[str, int, int], int]:
        """``(transfer id, src node, dst node) -> lag`` memo.

        Scoped per transfer model: the strategy families time the same
        edge differently (replication vs remote access vs static), so a
        shared context must never serve one family another's lags.
        """
        return self.job_cache(job, "transfer", model)

    def durations(self, job: "Job"
                  ) -> Dict[Tuple[str, int, float], int]:
        """``(task id, node id, level) -> duration`` memo (pure keys)."""
        return self.job_cache(job, "duration")

    def transfer_matrices(self, job: "Job", model: object,
                          pool: object) -> Dict[str, Any]:
        """``transfer id -> (src × dst)`` lag-matrix memo for the batch
        engine; indexed by *pool position*, hence scoped per pool."""
        return self.job_cache(job, "matrix", model, pool)

    def rankings(self, job: "Job", model: object, pool: object
                 ) -> Dict[float, List[Tuple[int, List[str]]]]:
        """``level -> ranked critical works`` memo.

        Chain-length estimates use the pool's fastest node and the
        transfer model's timing, hence the (model, pool) scope.
        """
        return self.job_cache(job, "rank", model, pool)

    def job_paths(self, job: "Job",
                  limit: int = 10000) -> List[List[str]]:
        """The job's source→sink chains, memoized per enumeration limit.

        Jobs are immutable once built, so the enumeration is pure;
        treat the returned list as read-only.
        """
        cache = self.job_cache(job, "paths")
        paths: Optional[List[List[str]]] = cache.get(limit)
        if paths is None:
            if PERF.enabled:
                PERF.incr("job.paths_cache_misses")
            paths = job.all_paths(limit)
            cache[limit] = paths
        elif PERF.enabled:
            PERF.incr("job.paths_cache_hits")
        return paths

    # ------------------------------------------------------------------
    # Placement caches (content-version keyed)
    # ------------------------------------------------------------------

    def gap_table(self, calendar: ReservationCalendar,
                  build: bool = True) -> Optional[GapTable]:
        """The calendar's gap table, cached by content version.

        With ``build=False`` only a previously materialized table is
        returned (None otherwise) — the probe the DP uses to decide
        between the batch kernel and the scalar fallback: freshly
        mutated what-if copies have fresh versions and no table, so
        they take the scalar path without ever paying a rebuild.
        Stale versions of mutated calendars can never be queried again,
        so LRU eviction only ever retires dead or cold entries.
        """
        table = self._gap_tables.get(calendar.version)
        if table is not None:
            if PERF.enabled:
                PERF.incr("placement.gap_table_hits")
            return table
        if not build:
            return None
        if PERF.enabled:
            PERF.incr("placement.gap_table_misses")
        table = calendar.gap_table()
        self._gap_tables[table.version] = table
        return table

    def cached_stack(self, versions: Tuple[int, ...]
                     ) -> Optional[StackedGaps]:
        """A previously stacked array set for this exact version
        sequence (the stacked arrays are self-contained, so a hit is
        exact even after the per-calendar tables were evicted)."""
        stacked = self._stacks.get(versions)
        if stacked is not None and PERF.enabled:
            PERF.incr("placement.stack_hits")
        return stacked

    def stack_gap_tables(self, tables: Sequence[GapTable]) -> StackedGaps:
        """Stack tables for :func:`~repro.core.placement.
        batch_earliest_fit`, cached by the version sequence."""
        key = tuple(table.version for table in tables)
        stacked = self._stacks.get(key)
        if stacked is not None:
            if PERF.enabled:
                PERF.incr("placement.stack_hits")
            return stacked
        if PERF.enabled:
            PERF.incr("placement.stack_misses")
        stacked = StackedGaps(tables)
        self._stacks[key] = stacked
        return stacked

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self, counters: Optional[Mapping[str, int]] = None
              ) -> Dict[str, Dict[str, object]]:
        """Per-cache statistics: hit rates, sizes, and evictions.

        Structural numbers (entries, capacity, evictions) are tracked
        by the context itself; hit/miss counts come from the perf
        registry (pass a counter snapshot, or the live ``PERF.counters``
        is read), so hit rates are only meaningful for runs collected
        under :meth:`~repro.perf.registry.PerfRegistry.collecting`.
        """
        if counters is None:
            counters = PERF.counters

        def pair(name: str, **extra: object) -> Dict[str, object]:
            hits = int(counters.get(f"{name}_hits", 0))
            misses = int(counters.get(f"{name}_misses", 0))
            total = hits + misses
            entry: Dict[str, object] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            }
            entry.update(extra)
            return entry

        out: Dict[str, Dict[str, object]] = {}
        for lru in (self.fit_cache, self._gap_tables, self._stacks):
            out[lru.name] = pair(lru.name, policy="lru",
                                 entries=len(lru), capacity=lru.capacity,
                                 evictions=lru.evictions)
        plan_stats = pair(
            self.plans.name, policy="two-tier-lru",
            entries=len(self.plans),
            skeletons=self.plans.skeleton_count(),
            capacity=self.plans.capacity,
            evictions=self.plans.evictions,
            repairs=int(counters.get("flow.plan_repairs", 0)),
            rebinds=int(counters.get("flow.plan_rebinds", 0)))
        # Reads split three ways: exact hits, warm repairs (a stale
        # sibling seeded regeneration), cold misses.  The reuse rate —
        # reads the cache served exactly or seeded — is what the flow
        # tests floor on the template scenarios.
        reads = (int(plan_stats["hits"]) + int(plan_stats["repairs"])
                 + int(plan_stats["misses"]))
        plan_stats["reuse_rate"] = (
            round((int(plan_stats["hits"]) + int(plan_stats["repairs"]))
                  / reads, 4)
            if reads else 0.0)
        out[self.plans.name] = plan_stats
        # The coarse seed tier below the plan cache: consulted only on
        # cold misses (no exact variant, no same-structure repair seed),
        # so hits + misses here equals the plan cache's miss count.
        out["flow.plan_coarse"] = pair(
            "flow.plan_coarse", policy="coarse-seed",
            entries=self.plans.coarse_count(),
            capacity=self.plans.coarse_capacity,
            evictions=self.plans.coarse_evictions)

        sizes = {"transfer": 0, "duration": 0, "matrix": 0, "rank": 0,
                 "paths": 0}
        structs = 0
        for per_struct in self._struct_caches.values():
            structs += 1
            for key, cache in per_struct.items():
                kind = key[0]
                if isinstance(kind, str) and kind in sizes:
                    sizes[kind] += len(cache)
        shared = {"dp.transfer_cache": "transfer",
                  "dp.duration_cache": "duration",
                  "critical_works.rank_cache": "rank",
                  "job.paths_cache": "paths"}
        for name, kind in shared.items():
            out[name] = pair(name, policy="struct-lru",
                             entries=sizes[kind], structs=structs)
        out["dp.transfer_matrices"] = {
            "policy": "struct-lru", "entries": sizes["matrix"],
            "structs": structs,
            "builds": int(counters.get("dp.transfer_matrix_builds", 0)),
        }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SchedulingContext fit={len(self.fit_cache)} "
                f"gaps={len(self._gap_tables)} stacks={len(self._stacks)} "
                f"plans={len(self.plans)} "
                f"structs={len(self._struct_caches)}>")


@runtime_checkable
class Scheduler(Protocol):
    """One interface for every application-level scheduler.

    Implemented by :class:`~repro.core.critical_works.
    CriticalWorksScheduler` and the :mod:`repro.baselines.adapters`
    wrappers (greedy, HEFT, independent-task heuristics), so the
    experiments, the metascheduler, and the benchmark dispatch through
    a single shape instead of three.
    """

    def schedule(self, job: "Job", pool: "ResourcePool",
                 calendars: Mapping[int, ReservationCalendar], *,
                 context: Optional[SchedulingContext] = None,
                 level: float = 0.0,
                 release: int = 0) -> "SchedulingOutcome":
        """Build one schedule for ``job`` on ``pool`` against
        ``calendars`` (not mutated), optionally through a shared
        ``context``."""
        ...  # pragma: no cover - protocol


#: ``stats()`` keys that describe a context's own storage — summed
#: across shards by :func:`merged_context_stats`.  Everything else in a
#: stats entry derives from the (process-global) perf counters and must
#: be read once, not once per shard.
_STRUCTURAL_STAT_KEYS = ("entries", "capacity", "evictions", "skeletons",
                         "structs")


def merged_context_stats(
        contexts: Sequence[SchedulingContext],
        counters: Optional[Mapping[str, int]] = None
        ) -> Dict[str, Dict[str, object]]:
    """One ``stats()`` view over the per-shard contexts of a sharded run.

    Hit/miss/repair numbers come from the perf counter snapshot, which
    already aggregates every shard (workers fold their deltas into the
    parent registry), so they are taken from a single :meth:`~
    SchedulingContext.stats` call — reading them per shard would
    multiply-count.  Structural numbers (entries, capacities,
    evictions, skeleton and struct counts) are per-context storage and
    are summed across shards.
    """
    if not contexts:
        raise ValueError("merged_context_stats needs at least one context")
    merged = contexts[0].stats(counters)
    for context in contexts[1:]:
        for name, entry in context.stats({}).items():
            base = merged.setdefault(name, {})
            for key in _STRUCTURAL_STAT_KEYS:
                if key in entry:
                    base[key] = int(base.get(key, 0)) + int(entry[key])
    return merged


def _iter_caches(context: SchedulingContext) -> Iterator[str]:
    """Names of the caches a context reports (testing helper)."""
    yield from context.stats()
