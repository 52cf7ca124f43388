"""The sharded lane: 10^5+ online arrivals, planned per shard.

The scaling lane of the job-flow layer.  Shards partition the VO's
domains (:func:`~repro.flow.sharding.partition_domains` assigns whole
domains), and each shard is run by its own
:class:`~repro.flow.metascheduler.Metascheduler` over its own
scheduling context.  Arrivals are grouped into fixed-width *windows*;
each window is planned shard-by-shard against a frozen snapshot of the
environment (the window's start state) and then committed in arrival
order against the live calendars through the metascheduler's commit
discipline (variant fallback, then bounded replans), which resolves
whatever drifted inside the window.  Two shards can never race for a
slot — cross-shard conflicts are structurally impossible, and
arbitration is only ever needed between same-window jobs of one shard.

Planning runs in-process: shards are planned one after another inside
one process, and concurrency is logical — each job only ever meets its
own shard's domains, which is where the speedup at ``shards=N`` comes
from.  Process fan-out belongs to :mod:`repro.platform`, not here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.job import Job
from ..core.resources import ResourcePool
from ..core.strategy import StrategyType
from ..grid.environment import GridEnvironment
from ..sim import RandomStreams
from .metascheduler import Metascheduler, PlannedDispatch
from .sharding import partition_domains

__all__ = ["ShardedConfig", "ShardedOutcome", "ShardedSimulation"]


@dataclass(frozen=True)
class ShardedConfig:
    """Parameters of a sharded run."""

    #: Total arrivals to plan and commit.
    jobs: int = 1000
    #: Mean inter-arrival gap (slots); at 10^5 jobs this is what sets
    #: the schedule span, so keep it small.
    mean_interarrival: float = 0.05
    #: Slots per commit window.  All jobs arriving inside one window
    #: are planned against the window's start state with release at the
    #: window end, then committed in arrival order.
    window: int = 4
    #: Domain shards (the semantic knob: each arrival is planned only
    #: against its shard's domains).  1 = the whole VO per job.
    shards: int = 1
    #: Planning processes.  Only 1 (in-process planning) is supported;
    #: the field stays so existing configurations keep constructing.
    workers: int = 1
    #: Background utilization pre-loaded before the run.
    busy_fraction: float = 0.2
    background_burst: int = 6
    #: Background horizon; None derives one covering the arrival span.
    horizon: Optional[int] = None
    #: Strategy families assigned round-robin to arrivals.  S1/S2 by
    #: default.  Cache hits are served uncopied and only a booked offer
    #: is rebound, so S3's costlier rebind (it rebuilds the aggregated
    #: job) is paid once per commit, not once per hit.
    stypes: Tuple[StrategyType, ...] = (StrategyType.S1, StrategyType.S2)
    #: Replans allowed when every variant of a same-window neighbour's
    #: plan was stolen at commit time (intra-shard arbitration).
    conflict_retries: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.window < 1:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.workers != 1:
            raise ValueError(
                f"only in-process planning (workers=1) is supported, "
                f"got workers={self.workers}")
        if not self.stypes:
            raise ValueError("at least one strategy family is required")
        if self.conflict_retries < 0:
            raise ValueError(
                f"conflict_retries must be >= 0, got {self.conflict_retries}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass
class ShardedOutcome:
    """Accounting for one arrival through the sharded lane."""

    job_id: str
    index: int
    stype: StrategyType
    shard: int
    committed: bool
    #: "", or why not: "inadmissible" / "conflict".
    reason: str = ""
    domain: Optional[str] = None
    cost: Optional[float] = None
    makespan: Optional[int] = None
    #: Variant fallbacks tried at commit time (reallocation mechanism).
    reallocations: int = 0
    #: Full replans after every variant was stolen (arbitration).
    replans: int = 0


class ShardedSimulation:
    """Windowed plan/commit of a large arrival stream over shards.

    Keeps one :class:`ShardedOutcome` per arrival; the shards'
    metaschedulers keep no ``records``."""

    def __init__(self, pool: ResourcePool, seed: int = 0,
                 config: Optional[ShardedConfig] = None,
                 job_factory: Optional[Callable[..., Job]] = None,
                 policy_models=None, cost_model=None):
        """``job_factory(rng, index) -> Job`` builds arrival ``index``
        (see :class:`~repro.workload.generator.TemplateWorkload`); None
        uses the Section 4 generator."""
        self.pool = pool
        self.seed = seed
        self.config = config or ShardedConfig()
        self.streams = RandomStreams(seed)
        self.grid = GridEnvironment(pool)
        self.partition = partition_domains(pool.domains(),
                                           self.config.shards)
        #: One metascheduler per shard, each over its own context.
        self.metaschedulers = [
            Metascheduler(self.grid, policy_models, cost_model,
                          conflict_retries=self.config.conflict_retries,
                          domains=group)
            for group in self.partition]
        self._job_factory = job_factory
        self.outcomes: List[ShardedOutcome] = []
        self.windows = 0

    # ------------------------------------------------------------------

    def _job(self, index: int) -> Tuple[Job, StrategyType]:
        factory = self._job_factory
        if factory is None:
            from ..workload.generator import generate_job as factory
        job = factory(self.streams.fork("jobs", index), index)
        stype = self.config.stypes[index % len(self.config.stypes)]
        return job, stype

    def _arrival_windows(self) -> List[Tuple[int, List[int]]]:
        """Arrival indices grouped by window, both in ascending order."""
        rng = self.streams.stream("arrivals")
        window = self.config.window
        grouped: Dict[int, List[int]] = {}
        clock = 0.0
        for index in range(self.config.jobs):
            clock += float(rng.exponential(self.config.mean_interarrival))
            grouped.setdefault(int(clock // window), []).append(index)
        return sorted(grouped.items())

    def _derived_horizon(self, windows: List[Tuple[int, List[int]]]) -> int:
        if self.config.horizon is not None:
            return self.config.horizon
        last = windows[-1][0] + 1 if windows else 1
        return max(64, 2 * last * self.config.window)

    def run(self) -> List[ShardedOutcome]:
        """Plan and commit every arrival; returns outcomes in order."""
        config = self.config
        windows = self._arrival_windows()
        if config.busy_fraction > 0:
            self.grid.apply_background_load(
                self.streams.stream("background"), config.busy_fraction,
                self._derived_horizon(windows),
                max_burst=config.background_burst)
        self.windows = len(windows)
        for window_index, indices in windows:
            release = (window_index + 1) * config.window
            self._commit_window(indices, self._plan_window(indices, release))
        return self.outcomes

    def _shard_of(self, index: int) -> int:
        return index % len(self.metaschedulers)

    def _plan_window(self, indices: List[int], release: int
                     ) -> Dict[int, PlannedDispatch]:
        """Plan a window's jobs, each against its own shard only.

        Every job is planned against the *window start* state — the
        frozen snapshot all shards share — so planning is a pure
        function of (window state, shard, job).
        """
        by_shard: Dict[int, List[int]] = {}
        for index in indices:
            by_shard.setdefault(self._shard_of(index), []).append(index)
        planned: Dict[int, PlannedDispatch] = {}
        snapshot = self.grid.snapshot()
        for shard_id in sorted(by_shard):
            metascheduler = self.metaschedulers[shard_id]
            for index in by_shard[shard_id]:
                job, stype = self._job(index)
                planned[index] = metascheduler.plan_job(
                    job, stype, release, calendars=snapshot)
        return planned

    def _commit_window(self, indices: List[int],
                       planned: Dict[int, PlannedDispatch]) -> None:
        """Commit a planned window in arrival order against live state.

        The in-order merge: each arrival is committed by its shard's
        metascheduler, whose fallbacks resolve same-window neighbours
        of one shard that planned overlapping slots (replans stay on
        the job's own shard).  Cross-shard conflicts cannot happen
        (shards own disjoint nodes).
        """
        for index in indices:
            shard_id = self._shard_of(index)
            record = self.metaschedulers[shard_id].commit(planned[index])
            chosen = record.chosen
            self.outcomes.append(ShardedOutcome(
                job_id=record.job_id, index=index, stype=record.stype,
                shard=shard_id, committed=record.committed,
                reason=record.reason, domain=record.domain,
                cost=None if chosen is None else chosen.outcome.cost,
                makespan=None if chosen is None else chosen.outcome.makespan,
                reallocations=record.reallocations,
                replans=record.replans))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def admission_rate(self) -> float:
        """Fraction of arrivals that got a committed schedule."""
        if not self.outcomes:
            return 0.0
        committed = sum(1 for o in self.outcomes if o.committed)
        return committed / len(self.outcomes)

    def digest(self) -> str:
        """A content hash of every schedule and outcome of the run.

        Covers each node's final reservation list (start, end, tag —
        the committed schedules themselves) and every per-job outcome,
        so two runs with equal digests placed every task identically.
        """
        hasher = hashlib.sha256()
        for node_id in sorted(self.grid.calendars):
            hasher.update(f"n{node_id}".encode())
            for r in self.grid.calendars[node_id].reservations:
                hasher.update(f":{r.start},{r.end},{r.tag}".encode())
        for o in self.outcomes:
            hasher.update(
                f"|{o.index},{o.job_id},{o.shard},{int(o.committed)},"
                f"{o.domain},{o.cost},{o.makespan},{o.reason},"
                f"{o.reallocations},{o.replans}".encode())
        return hasher.hexdigest()
