"""One epoch-aware session layer for every cache in the kernel.

After three optimization passes the kernel had grown independent
caches — ``earliest_fit`` interval witnesses, per-job transfer lags and
durations, gap tables, critical-works rankings, source→sink path
enumerations, and the metascheduler's epoch-keyed plan cache — each
with its own plumbing (module globals, scheduler attributes, optional
keyword arguments threaded through the DP) and its own ad-hoc eviction
(wholesale ``clear()`` at a size limit).  :class:`SchedulingContext`
owns all of them behind one object except the interval witnesses,
which live on the calendar content version they describe
(:meth:`~repro.core.calendar.ReservationCalendar.fit_witnesses`) and
die with it:

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
  families) and the pool (rankings are pool-indexed) —
  template-derived jobs that share a structure share durations, lags,
  rankings, and path enumerations, and one context stays safe to
  share across families, domains, and a whole online run;
* the flow layer's plan cache (:class:`PlanCache`) is an LRU of
  entries keyed on the job's structural hash, the strategy family and
  the domain, each holding a handful of concrete strategies keyed on
  (release, domain epoch slice).  An exact variant hit is a free plan;
  a sibling with drifted epochs seeds an incremental *repair*
  (warm-started regeneration, bit-identical to a cold replan).

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
from typing import (TYPE_CHECKING, Any, Dict, Generic, List, Mapping,
                    Optional, Protocol, Tuple, TypeVar, ValuesView,
                    runtime_checkable)

from ..perf import PERF
from .calendar import GapTable, ReservationCalendar

if TYPE_CHECKING:  # imports that would be circular at runtime
    from ..flow.metascheduler import Metascheduler  # noqa: F401
    from .critical_works import SchedulingOutcome
    from .job import Job
    from .resources import ResourcePool
    from .strategy import Strategy, StrategyType

__all__ = ["LruCache", "PlanCache", "SchedulingContext", "Scheduler",
           "CONTEXT_CACHE_NAMES"]

K = TypeVar("K")
V = TypeVar("V")

#: Gap tables retained (one per live calendar content version).
DEFAULT_GAP_TABLE_CAPACITY = 8192
#: Plan entries (structure × family × domain) retained by the flow layer.
DEFAULT_PLAN_CAPACITY = 4096
#: Concrete strategy variants retained per plan entry.
DEFAULT_PLAN_VARIANTS = 8
#: Distinct job structures whose per-job caches are retained.
DEFAULT_STRUCT_CAPACITY = 4096

#: Every cache (or counter pair) the context owns; hit rates are read
#: through :func:`~repro.perf.registry.derive_cache_stats`.  The orphan
#: audit in ``tests/perf/test_counter_audit.py`` asserts that each
#: ``*_hits``/``*_misses`` pair of the :mod:`repro.perf` registry maps
#: onto exactly one of these names.
CONTEXT_CACHE_NAMES: Tuple[str, ...] = (
    "dp.fit_cache",
    "dp.transfer_cache",
    "dp.duration_cache",
    "placement.gap_table",
    "critical_works.rank_cache",
    "job.paths_cache",
    "flow.plan_cache",
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


#: Plan-entry key: (structural hash, strategy family, domain).
_PlanKey = Tuple[str, "StrategyType", str]
#: Variant key within one entry: (release, domain epoch slice).
_VariantKey = Tuple[int, Tuple[int, ...]]


class PlanCache:
    """The flow layer's semantic plan cache.

    An LRU of *plan entries* keyed on the job's structural hash
    (:attr:`~repro.core.job.Job.structural_hash`), the strategy family,
    and the domain — every template-derived sibling of one labelled
    structure lands in one entry.  Each entry holds at most
    :data:`DEFAULT_PLAN_VARIANTS` concrete strategies, recency-ordered
    and keyed on (release, domain epoch slice).

    Reuse has two grades, both read off the same entry:

    * :meth:`lookup` — an **exact** variant: same release, unchanged
      epoch slice over the domain's nodes.  Generation inputs are then
      byte-identical and the strategy is served outright (rebound to
      the requesting job's id).
    * :meth:`repair_seed` — a **stale sibling**: the freshest variant
      of the entry, whatever its release/epochs.  Its per-level node
      assignments seed a warm-started regeneration
      (:meth:`~repro.core.strategy.StrategyGenerator.generate` with
      ``seed_hints``), which patches only the tasks whose placements no
      longer fit; exact branch-and-bound pruning keeps the repaired
      plan bit-identical to a cold replan.

    The key is the *labelled* structure because label-sensitive
    tie-breaks in generation make reuse across relabelled jobs unsound.
    """

    __slots__ = ("variant_evictions", "_entries")

    def __init__(self, name: str, capacity: int) -> None:
        self.variant_evictions = 0
        self._entries: LruCache[
            _PlanKey, "OrderedDict[_VariantKey, Strategy]"] = LruCache(
                name, capacity)

    @property
    def name(self) -> str:
        return self._entries.name

    @property
    def capacity(self) -> int:
        """Entry capacity of the LRU."""
        return self._entries.capacity

    @property
    def evictions(self) -> int:
        """Evicted entries plus variants displaced within entries."""
        return self._entries.evictions + self.variant_evictions

    def lookup(self, structural_hash: str, stype: "StrategyType",
               domain: str, release: int,
               epochs: Tuple[int, ...]) -> Optional["Strategy"]:
        """The exact cached strategy for these inputs, or None.

        A hit requires the same labelled structure, the same release,
        and an unchanged epoch slice over the domain's nodes — the
        generation inputs are then byte-identical, so reuse is exact.
        Callers count hits/repairs/misses; the cache itself does not.
        """
        variants = self._entries.get((structural_hash, stype, domain))
        if variants is None:
            return None
        key = (release, epochs)
        strategy = variants.get(key)
        if strategy is not None:
            variants.move_to_end(key)
        return strategy

    def repair_seed(self, structural_hash: str, stype: "StrategyType",
                    domain: str) -> Optional["Strategy"]:
        """The freshest same-structure variant, release/epochs ignored.

        The returned strategy is (presumed) stale — its epochs drifted
        or its release differs — and is only fit to *seed* a repair,
        never to be served as a plan.
        """
        variants = self._entries.get((structural_hash, stype, domain))
        if variants:
            return next(reversed(variants.values()))
        return None

    def store(self, structural_hash: str, stype: "StrategyType",
              domain: str, release: int, epochs: Tuple[int, ...],
              strategy: "Strategy") -> None:
        """Retain a strategy under its semantic key."""
        entry_key = (structural_hash, stype, domain)
        variants = self._entries.get(entry_key)
        if variants is None:
            variants = OrderedDict()
            self._entries[entry_key] = variants
        key = (release, epochs)
        variants[key] = strategy
        variants.move_to_end(key)
        if len(variants) > DEFAULT_PLAN_VARIANTS:
            variants.popitem(last=False)
            self.variant_evictions += 1
            if PERF.enabled:
                # lint: counter-ok — fixed per-cache name, pairs registered
                PERF.incr(f"{self.name}_evictions")

    def __len__(self) -> int:
        """Concrete variants retained across every entry."""
        return sum(len(variants) for variants in self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PlanCache {self.name}: {len(self)} variants in "
                f"{len(self._entries)}/{self.capacity} entries, "
                f"{self.evictions} evicted>")


class SchedulingContext:
    """Session state shared by every scheduler touching one environment.

    Create one per logical scheduling session — a strategy generator, a
    metascheduler and all its domain managers, a whole online run — and
    pass it down; every component then shares the same placement
    knowledge.  A default-constructed context is always safe: sharing
    only ever changes speed, never results.
    """

    def __init__(self, gap_table_capacity: int = DEFAULT_GAP_TABLE_CAPACITY,
                 plan_capacity: int = DEFAULT_PLAN_CAPACITY,
                 struct_capacity: int = DEFAULT_STRUCT_CAPACITY) -> None:
        #: The flow layer's semantic plan cache (structure-keyed entries
        #: holding epoch-keyed concrete strategies), read through
        #: :func:`~repro.flow.sharding.plan_with_cache`.
        self.plans: PlanCache = PlanCache("flow.plan_cache", plan_capacity)
        self._gap_tables: LruCache[int, GapTable] = LruCache(
            "placement.gap_table", gap_table_capacity)
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
        lags, rankings, and paths.  All of these memos are
        functions of exactly that content (plus the scoped models), so
        sharing is exact.  ``scope`` objects (transfer models, pools)
        are resolved to identity tokens: lags depend on the transfer
        model, rankings additionally on the pool's node order, so
        caches of different scopes must never alias.
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

    def gap_table(self, calendar: ReservationCalendar) -> GapTable:
        """The calendar's gap table, cached by content version.

        Copy-on-write clones share their master's version, so a table
        built for one snapshot serves every unmutated copy.  Stale
        versions of mutated calendars can never be queried again, so
        LRU eviction only ever retires dead or cold entries.
        """
        table = self._gap_tables.get(calendar.version)
        if table is not None:
            if PERF.enabled:
                PERF.incr("placement.gap_table_hits")
            return table
        if PERF.enabled:
            PERF.incr("placement.gap_table_misses")
        table = calendar.gap_table()
        self._gap_tables[table.version] = table
        return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SchedulingContext gaps={len(self._gap_tables)} "
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
