"""The metascheduler: top of the Fig. 1 hierarchy.

Users submit compound jobs; the metascheduler groups them into flows by
strategy type, routes each job to the domain whose job manager offers
the best admissible strategy, commits the chosen supporting schedule
into the Grid environment, and — when the environment changed between
planning and commitment — falls back to the strategy's other supporting
schedules (the dynamic reallocation mechanism) before re-planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.context import SchedulingContext
from ..core.job import Job
from ..core.strategy import Strategy, StrategyType, SupportingSchedule
from ..grid.environment import GridEnvironment
from ..local.manager import LocalResourceManager, RequestRefused
from ..local.request import ResourceRequest
from .economics import InsufficientBudget, VOEconomics
from .manager import JobManager
from .sharding import plan_with_cache

__all__ = ["FlowRecord", "PlannedDispatch", "Metascheduler"]


@dataclass
class FlowRecord:
    """Outcome of dispatching one job through the framework."""

    job_id: str
    stype: StrategyType
    #: Domain that won the job (None when rejected everywhere).
    domain: Optional[str]
    strategy: Optional[Strategy]
    #: The supporting schedule actually committed.
    chosen: Optional[SupportingSchedule]
    committed: bool
    #: Supporting-schedule switches needed at commit time (reallocation).
    reallocations: int = 0
    charge: Optional[float] = None
    #: Why the job was not committed ("inadmissible", "conflict",
    #: "budget"); empty when committed.
    reason: str = ""


@dataclass
class PlannedDispatch:
    """Phase-one output of a two-phase dispatch.

    Produced by :meth:`Metascheduler.plan_job`, consumed by
    :meth:`Metascheduler.commit_planned` — possibly at a later
    simulated instant (planning latency).  ``manager``/``strategy``
    are None when no domain offered an admissible strategy."""

    job: Job
    stype: StrategyType
    release: int
    manager: Optional["JobManager"]
    strategy: Optional[Strategy]


class Metascheduler:
    """Routes job flows over the domain managers of one VO.

    ``conflict_retries`` (default 0 — the historical behaviour) allows
    a job whose every supporting schedule was stolen between planning
    and commitment to be re-planned against the drifted environment up
    to that many times.  Replanning consults the epoch-keyed plan cache
    first, so managers whose domain calendars did not change reuse the
    already-generated strategy outright.
    """

    def __init__(self, grid: GridEnvironment,
                 policy_models=None, cost_model=None,
                 economics: Optional[VOEconomics] = None,
                 use_local_managers: bool = False,
                 conflict_retries: int = 0,
                 context: Optional[SchedulingContext] = None):
        self.grid = grid
        self.economics = economics
        if conflict_retries < 0:
            raise ValueError(
                f"conflict_retries must be >= 0, got {conflict_retries}")
        self.conflict_retries = conflict_retries
        #: Session cache layer shared by every domain manager's strategy
        #: generator and by the plan cache below (``context.plans``): a
        #: two-tier semantic cache — skeletons keyed (job shape hash,
        #: family, domain), concrete variants keyed (structural hash,
        #: release, domain epoch slice).  An exact variant hit
        #: guarantees byte-identical generation inputs (strategy
        #: generation is deterministic, so reuse is exact); a stale
        #: same-structure variant instead seeds an incremental repair.
        #: Bounded by per-entry LRU eviction, so a flood of one-shot
        #: keys can no longer wipe hot entries wholesale.
        self.context = context if context is not None else SchedulingContext()
        self.managers: list[JobManager] = [
            JobManager(domain, grid.pool, policy_models, cost_model,
                       context=self.context)
            for domain in grid.pool.domains()
        ]
        #: When True, commitments go through each domain's local
        #: resource manager as explicit resource requests (the full
        #: Fig. 1 hierarchy) instead of booking calendars directly.
        #: The local managers share the grid's calendars, so both paths
        #: see the same environment state.
        self.use_local_managers = use_local_managers
        self.local_managers: dict[str, LocalResourceManager] = {}
        if use_local_managers:
            for manager in self.managers:
                calendars = {node.node_id: grid.calendars[node.node_id]
                             for node in manager.pool}
                self.local_managers[manager.domain] = LocalResourceManager(
                    manager.pool, calendars)
        #: Pending (job, strategy type) pairs grouped into flows.
        self.flows: dict[StrategyType, list[Job]] = {
            stype: [] for stype in StrategyType}
        self.records: list[FlowRecord] = []

    # ------------------------------------------------------------------

    def submit(self, job: Job, stype: StrategyType) -> None:
        """Add a job to the flow of the given strategy type."""
        self.flows[stype].append(job)

    def pending(self) -> list[tuple[Job, StrategyType]]:
        """Jobs awaiting dispatch, in service order.

        Flows interleave fairly (round-robin over types); inside the
        batch, users bidding a higher surge factor go first (the
        dynamic-priority economics of Section 5).
        """
        queue: list[tuple[Job, StrategyType]] = []
        cursors = {stype: 0 for stype in self.flows}
        progressed = True
        while progressed:
            progressed = False
            for stype in StrategyType:
                flow = self.flows[stype]
                if cursors[stype] < len(flow):
                    queue.append((flow[cursors[stype]], stype))
                    cursors[stype] += 1
                    progressed = True
        if self.economics is not None:
            queue.sort(key=lambda item: -self._priority(item[0]))
        return queue

    def _priority(self, job: Job) -> float:
        if (self.economics is not None
                and self.economics.has_account(job.owner)):
            return self.economics.priority_of(job.owner)
        return 1.0

    # ------------------------------------------------------------------

    def dispatch(self, release: int = 0) -> list[FlowRecord]:
        """Plan and commit every pending job; returns their records."""
        batch = self.pending()
        for stype in self.flows:
            self.flows[stype] = []
        records = [self._dispatch_one(job, stype, release)
                   for job, stype in batch]
        self.records.extend(records)
        return records

    def _dispatch_one(self, job: Job, stype: StrategyType,
                      release: int) -> FlowRecord:
        return self._finish(self.plan_job(job, stype, release))

    def _plan_for(self, manager: JobManager, job: Job, stype: StrategyType,
                  release: int, calendars) -> Strategy:
        """Plan through the graded semantic plan cache.

        Delegates to :func:`repro.flow.sharding.plan_with_cache` — the
        one implementation of the exact-hit → warm-repair →
        coarse-seed → cold-miss ladder shared with the shard planners.
        The grid stays the epoch authority here (snapshot calendars
        share the same content versions, so either source is exact).
        """
        epochs = self.grid.epoch_slice(manager.pool.node_ids())
        return plan_with_cache(manager, job, stype, release, calendars,
                               self.context.plans, epochs=epochs)

    def plan_job(self, job: Job, stype: StrategyType,
                 release: int) -> PlannedDispatch:
        """Phase one of dispatch: plan on every domain, pick the cheapest.

        Nothing is booked; the returned :class:`PlannedDispatch` can be
        committed later with :meth:`commit_planned`.  Plans go through
        the epoch-keyed cache, so re-planning the same job against
        unchanged domain calendars is free.
        """
        calendars = self.grid.snapshot()
        best: Optional[tuple[JobManager, Strategy]] = None
        best_cost = float("inf")
        for manager in self.managers:
            strategy = self._plan_for(manager, job, stype, release,
                                      calendars)
            chosen = strategy.best_schedule()
            if chosen is None:
                continue
            if chosen.outcome.cost < best_cost:
                best = (manager, strategy)
                best_cost = chosen.outcome.cost
        if best is None:
            return PlannedDispatch(job, stype, release, None, None)
        return PlannedDispatch(job, stype, release, best[0], best[1])

    def commit_planned(self, planned: PlannedDispatch) -> FlowRecord:
        """Phase two of dispatch: commit a previously planned job.

        When the environment drifted between planning and commitment the
        usual fallbacks apply — first across the strategy's supporting
        schedules (reallocation), then up to ``conflict_retries``
        replans at the *original* release.  Replans consult the plan
        cache, so only domains whose calendars changed re-generate.
        The outcome is appended to :attr:`records`.
        """
        record = self._finish(planned)
        self.records.append(record)
        return record

    def _finish(self, planned: PlannedDispatch) -> FlowRecord:
        job, stype = planned.job, planned.stype
        if planned.manager is None:
            return FlowRecord(job_id=job.job_id, stype=stype, domain=None,
                              strategy=None, chosen=None, committed=False,
                              reason="inadmissible")
        record = self._commit(job, stype, planned.manager, planned.strategy)
        retries = 0
        while record.reason == "conflict" and retries < self.conflict_retries:
            # Every variant was stolen between planning and commitment;
            # re-plan against the drifted calendars.  Managers whose
            # domains are untouched hit the plan cache exactly and only
            # re-offer; the drifted domain repairs its own stale plan —
            # the entry stored when this job was first planned seeds a
            # warm regeneration instead of a cold replan.
            retries += 1
            replanned = self.plan_job(job, stype, planned.release)
            if replanned.manager is None:
                return FlowRecord(job_id=job.job_id, stype=stype,
                                  domain=None, strategy=None, chosen=None,
                                  committed=False, reason="inadmissible")
            record = self._commit(job, stype, replanned.manager,
                                  replanned.strategy)
        return record

    def _commit(self, job: Job, stype: StrategyType, manager: JobManager,
                strategy: Strategy) -> FlowRecord:
        """Commit the cheapest variant that still fits the environment."""
        variants = sorted(strategy.admissible_schedules(),
                          key=lambda s: (s.outcome.cost, s.outcome.makespan))
        reallocations = 0
        for variant in variants:
            if not self.grid.can_commit(variant.distribution):
                # The environment drifted since planning: fall back to
                # the next supporting schedule (reallocation mechanism).
                reallocations += 1
                continue
            charge = None
            if (self.economics is not None
                    and self.economics.has_account(job.owner)):
                try:
                    charge = self.economics.charge(
                        job.owner, variant.distribution,
                        strategy.scheduled_job, manager.pool)
                except InsufficientBudget:
                    return FlowRecord(
                        job_id=job.job_id, stype=stype,
                        domain=manager.domain, strategy=strategy,
                        chosen=None, committed=False,
                        reallocations=reallocations, reason="budget")
            self._book(job, manager.domain, variant)
            return FlowRecord(
                job_id=job.job_id, stype=stype, domain=manager.domain,
                strategy=strategy, chosen=variant, committed=True,
                reallocations=reallocations, charge=charge)
        return FlowRecord(
            job_id=job.job_id, stype=stype, domain=manager.domain,
            strategy=strategy, chosen=None, committed=False,
            reallocations=reallocations, reason="conflict")

    def _book(self, job: Job, domain: str,
              variant: SupportingSchedule) -> None:
        """Reserve a checked-available variant, via the domain's local
        manager (full Fig. 1 hierarchy) or directly on the calendars."""
        if not self.use_local_managers:
            self.grid.commit_distribution(variant.distribution)
            return
        requests = [
            ResourceRequest.from_placement(job.job_id, placement,
                                           owner=job.owner)
            for placement in variant.distribution
        ]
        # can_commit passed just above and dispatch is sequential, so
        # the grants cannot be refused unless the shared-calendar
        # invariant broke.
        try:
            grants = self.local_managers[domain].handle_all(requests)
        except RequestRefused as refusal:  # pragma: no cover - invariant
            raise RuntimeError(
                f"local manager refused a slot can_commit approved: "
                f"{refusal}") from refusal
        assert len(grants) == len(requests)
