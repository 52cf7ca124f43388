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
  (level, candidate node set) for the DP's task tables — so
  invalidation is never a heuristic: a mutated node simply stops
  matching its old keys;
* bounded caches evict **per entry, least-recently-used** instead of
  clearing wholesale (the plan-cache thrash fix: a hot key survives a
  flood of unrelated keys);
* per-*job* caches are keyed on the job's **structural hash** (its
  labelled task/transfer/deadline content, excluding the job id and
  owner; see :attr:`~repro.core.job.Job.structural_hash`) and scoped
  by the identity of the transfer model (lags differ across strategy
  families), the cost model (prices differ too; models are immutable)
  and the pool (rankings and task tables are pool-indexed) —
  template-derived jobs that share a structure share task tables,
  rankings, and path enumerations, and one context stays safe to
  share across families, domains, and a whole online run;
* the flow layer's plan cache (:class:`PlanCache`) is an LRU of
  entries keyed on the job's structural hash, the strategy family and
  the domain, each holding a handful of concrete strategies keyed on
  (release, domain epoch slice).  An exact variant hit is a free plan;
  anything else is generated cold;
* in front of it, the offer memo (:attr:`SchedulingContext.offers`)
  decides a repeated arrival in one lookup: it maps (structural hash,
  family, release, the version of every calendar the planner's
  managers read) to the offer competition's answer: the winning
  manager's index and every domain's strategy, or no offer at all.
  Equal versions mean identical calendars, so a repeat is answered
  exactly.

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
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, Generic, List,
                    Mapping, Optional, Protocol, Tuple, TypeVar,
                    ValuesView, runtime_checkable)

from ..perf import PERF
from .calendar import GapTable, ReservationCalendar

if TYPE_CHECKING:  # imports that would be circular at runtime
    from ..flow.metascheduler import Metascheduler  # noqa: F401
    from .critical_works import SchedulingOutcome
    from .job import DataTransfer, Job, Task
    from .resources import ProcessorNode, ResourcePool
    from .strategy import Strategy, StrategyType

__all__ = ["LruCache", "PlanCache", "SchedulingContext", "Scheduler",
           "TaskTable", "CONTEXT_CACHE_NAMES"]

K = TypeVar("K")
V = TypeVar("V")

#: Gap tables retained (one per live calendar content version).
DEFAULT_GAP_TABLE_CAPACITY = 8192
#: Plan entries (structure × family × domain) retained by the flow
#: layer.  The pinned workloads' working sets are far smaller: the
#: online lane holds a handful of jobs in flight (3 entries each), the
#: template crowd 12 entries, a shard context at most 27.
DEFAULT_PLAN_CAPACITY = 64
#: Concrete strategy variants retained per plan entry.
DEFAULT_PLAN_VARIANTS = 8
#: Offers (structure × family × release × calendar versions) retained
#: by the offer memo.  Working sets: a sharded shard about 3 keys per
#: window plus the transient keys of commit-time replans; the online
#: template crowd about 4 keys per slot.
DEFAULT_OFFER_CAPACITY = 64
#: Distinct job structures whose per-job caches are retained: the jobs
#: in flight (a handful online, 2 templates, one at a time in batch
#: generation), so a structure's task tables go once it is done.
DEFAULT_STRUCT_CAPACITY = 64

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
    "flow.offer_cache",
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

    Reuse has one grade: :meth:`lookup` finds an **exact** variant —
    same release, unchanged epoch slice over the domain's nodes.
    Generation inputs are then byte-identical and the stored strategy
    itself is served, still bound to the job it was generated for;
    entries are never rewritten for the job that reads them.  The flow
    layer rebinds only the offer it books, and generates cold on a
    miss.

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
        Callers count hits and misses; the cache itself does not.
        """
        variants = self._entries.get((structural_hash, stype, domain))
        if variants is None:
            return None
        key = (release, epochs)
        strategy = variants.get(key)
        if strategy is not None:
            variants.move_to_end(key)
        return strategy

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


#: One neighbour edge of a task: (neighbour id, transfer, uniform lag
#: — None under a transfer model with per-pair lags).
_Edge = Tuple[str, "DataTransfer", Optional[int]]
#: A candidate node set: None for the whole pool, else the node ids.
_NodeSet = Optional[FrozenSet[int]]


class TaskTable:
    """The DP's per-job facts under one (transfer model, cost model, pool).

    Filled by :func:`~repro.core.dp.allocate_chain` and held in the
    context's struct LRU (:meth:`SchedulingContext.task_table`), so
    every estimation level, every chain of the job and every template
    sibling reads one table instead of re-deriving the same durations,
    prices and edges:

    * ``tasks`` — once per structure: task id -> (task, predecessor
      edges, successor edges).
    * ``nodes`` — candidate node set -> (candidate nodes in pool order,
      their float64 performance vector).
    * ``rows`` — (level, candidate node set) -> task id -> ``[durations,
      prices]``, both aligned with the candidate nodes.  Durations come
      from one ``duration_array`` sweep on first use.  Prices stay
      ``None`` until a row is first priced (start-invariant cost models
      only); then the list holds ``None`` for each node not yet priced.
    * ``lags`` — ``(transfer id, src node id, dst node id) -> lag``,
      filled only under transfer models without ``uniform_lag``.

    Every value is a pure function of the scope (cost models are
    immutable) and the key, so sharing a table never changes results.
    Tables hold no calendars, so they pin no dead calendar version or
    fit-witness store.
    """

    __slots__ = ("tasks", "nodes", "rows", "lags")

    def __init__(self) -> None:
        self.tasks: Dict[str, Tuple["Task", Tuple[_Edge, ...],
                                    Tuple[_Edge, ...]]] = {}
        self.nodes: Dict[_NodeSet, Tuple[List["ProcessorNode"], Any]] = {}
        self.rows: Dict[Tuple[float, _NodeSet],
                        Dict[str, List[Any]]] = {}
        self.lags: Dict[Tuple[str, int, int], int] = {}


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
        #: The offer memo in front of the plan cache, read by
        #: :meth:`~repro.flow.sharding.ShardPlanner.plan`: (structural
        #: hash, family, release, calendar versions in manager order)
        #: -> (the winning manager's index or None, every domain's
        #: strategy in manager order).
        self.offers: LruCache[
            Tuple[Any, ...],
            Tuple[Optional[int], Tuple["Strategy", ...]]] = LruCache(
                "flow.offer_cache", DEFAULT_OFFER_CAPACITY)
        self._gap_tables: LruCache[int, GapTable] = LruCache(
            "placement.gap_table", gap_table_capacity)
        #: Per-structure caches, LRU-keyed on the job's structural hash
        #: so template-derived siblings share task tables, rankings and
        #: path enumerations; the inner mapping is keyed on
        #: (kind, *scope tokens).
        self._struct_caches: LruCache[
            str, Dict[Tuple[object, ...], Any]] = LruCache(
                "job.struct_cache", struct_capacity)
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

    def _struct_entry(self, job: "Job") -> Dict[Tuple[object, ...], Any]:
        """The job structure's inner cache mapping (LRU-refreshed)."""
        per_struct = self._struct_caches.get(job.structural_hash)
        if per_struct is None:
            per_struct = {}
            self._struct_caches[job.structural_hash] = per_struct
        return per_struct

    def job_cache(self, job: "Job", kind: str,
                  *scope: object) -> Dict[Any, Any]:
        """The per-structure cache dict of one kind, scoped by identities.

        Caches are keyed on the job's structural hash — the labelled
        task/transfer/deadline content, excluding the job id and owner
        (:attr:`~repro.core.job.Job.structural_hash`) — so every
        template-derived sibling of one structure shares rankings and
        paths.  All of these memos are functions of exactly that
        content (plus the scoped models), so sharing is exact.
        ``scope`` objects (transfer models, pools) are resolved to
        identity tokens: rankings depend on the transfer model and the
        pool's node order, so caches of different scopes must never
        alias.
        """
        per_struct = self._struct_entry(job)
        key = (kind,) + tuple(self.token(item) for item in scope)
        cache = per_struct.get(key)
        if cache is None:
            cache = {}
            per_struct[key] = cache
        return cache

    # ------------------------------------------------------------------
    # Per-job caches consumed by the DP and the critical-works method
    # ------------------------------------------------------------------

    def task_table(self, job: "Job", transfer_model: object,
                   cost_model: object, pool: object) -> TaskTable:
        """The DP's :class:`TaskTable` for the job's structure.

        Scoped by the identities of the transfer model (lags), the cost
        model (prices) and the pool (node order, durations): the one
        context lookup of every chain allocation.
        """
        per_struct = self._struct_entry(job)
        key = ("table", self.token(transfer_model), self.token(cost_model),
               self.token(pool))
        table: Optional[TaskTable] = per_struct.get(key)
        if table is None:
            table = TaskTable()
            per_struct[key] = table
        return table

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
                f"plans={len(self.plans)} offers={len(self.offers)} "
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
