"""The metascheduler: top of the Fig. 1 hierarchy.

Users submit compound jobs; the metascheduler groups them into flows by
strategy type, routes each job to the domain whose job manager offers
the best admissible strategy, commits the chosen supporting schedule
into the Grid environment, and — when the environment changed between
planning and commitment — falls back to the strategy's other supporting
schedules (the dynamic reallocation mechanism) before re-planning.

Both flow lanes commit here: the online lane
(:mod:`repro.flow.simulation`) runs one metascheduler over every
domain, the sharded lane (:mod:`repro.flow.sharded`) one per shard
over that shard's domains.  Every calendar booking goes through
:meth:`Metascheduler._book`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..core.calendar import ReservationCalendar
from ..core.context import SchedulingContext
from ..core.job import Job
from ..core.strategy import Strategy, StrategyType, SupportingSchedule
from ..grid.environment import GridEnvironment
from ..local.manager import LocalResourceManager, RequestRefused
from ..local.request import ResourceRequest
from .economics import InsufficientBudget, VOEconomics
from .manager import JobManager
from .sharding import ShardPlanner
# Bound here only as an instrumentation seam: profilers patch
# ``repro.flow.metascheduler.plan_with_cache`` by name, so it must stay
# importable from this module.
from .sharding import plan_with_cache  # noqa: F401

__all__ = ["FlowRecord", "PlannedDispatch", "Metascheduler"]


@dataclass
class FlowRecord:
    """Outcome of dispatching one job through the framework."""

    job_id: str
    stype: StrategyType
    #: Domain that won the job (None when rejected everywhere).
    domain: Optional[str]
    #: The plan committed from: the job's own copy once a variant was
    #: booked or charged; on a conflict, the plan as the cache served
    #: it (possibly bound to a template sibling).
    strategy: Optional[Strategy]
    #: The supporting schedule actually committed.
    chosen: Optional[SupportingSchedule]
    committed: bool
    #: Supporting-schedule switches needed at commit time (reallocation),
    #: summed over every replan.
    reallocations: int = 0
    charge: Optional[float] = None
    #: Why the job was not committed ("inadmissible", "conflict",
    #: "budget"); empty when committed.
    reason: str = ""
    #: Full replans after every variant was stolen (arbitration).
    replans: int = 0


@dataclass
class PlannedDispatch:
    """Phase-one output of a two-phase dispatch.

    Produced by :meth:`Metascheduler.plan_job`, consumed by
    :meth:`Metascheduler.commit_planned` — possibly at a later
    simulated instant (planning latency).  ``manager``/``strategy``
    are None when no domain offered an admissible strategy; a served
    ``strategy`` may still be bound to a template sibling of ``job``."""

    job: Job
    stype: StrategyType
    release: int
    manager: Optional["JobManager"]
    strategy: Optional[Strategy]


class Metascheduler:
    """Routes job flows over the domain managers of one VO.

    ``domains`` (default: every domain of the pool, in pool order)
    restricts the metascheduler to a subset — one shard of the sharded
    lane.  ``conflict_retries`` (default 0 — the historical behaviour)
    allows a job whose every supporting schedule was stolen between
    planning and commitment to be re-planned against the drifted
    environment up to that many times.  Replanning consults the
    epoch-keyed plan cache first, so managers whose domain calendars
    did not change reuse the already-generated strategy outright.
    """

    def __init__(self, grid: GridEnvironment,
                 policy_models=None, cost_model=None,
                 economics: Optional[VOEconomics] = None,
                 use_local_managers: bool = False,
                 conflict_retries: int = 0,
                 context: Optional[SchedulingContext] = None,
                 domains: Optional[Sequence[str]] = None):
        self.grid = grid
        self.economics = economics
        if conflict_retries < 0:
            raise ValueError(
                f"conflict_retries must be >= 0, got {conflict_retries}")
        self.conflict_retries = conflict_retries
        #: The offer competition over this metascheduler's domains.  Its
        #: context — the plan cache (``context.plans``) included — is
        #: the session cache layer of every domain manager.
        self.planner = ShardPlanner(
            grid.pool.domains() if domains is None else domains,
            grid.pool, policy_models, cost_model, context=context)
        self.context = self.planner.context
        self.managers: list[JobManager] = self.planner.managers
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
        records = [self.commit(self.plan_job(job, stype, release))
                   for job, stype in batch]
        self.records.extend(records)
        return records

    def plan_job(self, job: Job, stype: StrategyType, release: int,
                 calendars: Optional[Mapping[int, ReservationCalendar]]
                 = None) -> PlannedDispatch:
        """Phase one of dispatch: plan on every domain, pick the cheapest.

        Plans against ``calendars`` (the sharded lane's window snapshot)
        or the grid's live calendars, through the plan cache
        (:meth:`ShardPlanner.plan`).  Planning never mutates its input —
        each critical-works pass books onto its own copy-on-write
        copies — so the live calendars need no snapshot.  Nothing is
        booked; commit the result later with :meth:`commit_planned` or
        :meth:`commit`.
        """
        if calendars is None:
            calendars = self.grid.calendars
        offer = self.planner.plan(job, stype, release, calendars)
        if offer is None:
            return PlannedDispatch(job, stype, release, None, None)
        return PlannedDispatch(job, stype, release, offer[0], offer[1])

    def commit_planned(self, planned: PlannedDispatch) -> FlowRecord:
        """Phase two of dispatch: :meth:`commit` a previously planned
        job and append the outcome to :attr:`records`."""
        record = self.commit(planned)
        self.records.append(record)
        return record

    def commit(self, planned: PlannedDispatch) -> FlowRecord:
        """Commit a planned job against the live calendars.

        The one commit discipline of both lanes.  When the environment
        drifted between planning and commitment the fallbacks apply —
        first across the strategy's supporting schedules
        (reallocation), then up to ``conflict_retries`` replans at the
        *original* release.  Replans consult the plan cache, so only
        domains whose calendars changed re-generate.  The returned
        record counts reallocations and replans over every attempt; it
        is not appended to :attr:`records`.
        """
        job, stype = planned.job, planned.stype
        reallocations = replans = 0
        while True:
            if planned.manager is None or planned.strategy is None:
                return FlowRecord(job_id=job.job_id, stype=stype,
                                  domain=None, strategy=None, chosen=None,
                                  committed=False,
                                  reallocations=reallocations,
                                  reason="inadmissible", replans=replans)
            record = self._commit(job, stype, planned.manager,
                                  planned.strategy, planned.release)
            record.reallocations += reallocations
            record.replans = replans
            if (record.reason != "conflict"
                    or replans >= self.conflict_retries):
                return record
            # Every variant was stolen between planning and commitment;
            # re-plan against the drifted calendars.  Managers whose
            # domains are untouched hit the plan cache exactly and only
            # re-offer; the drifted domain plans afresh.
            reallocations = record.reallocations
            replans += 1
            planned = self.plan_job(job, stype, planned.release)

    def _commit(self, job: Job, stype: StrategyType, manager: JobManager,
                strategy: Strategy, release: int = 0) -> FlowRecord:
        """Commit the cheapest variant that still fits the environment.

        ``strategy`` may be a plan-cache hit still bound to a template
        sibling; it is rebound to ``job`` only once a variant fits, so
        conflicted attempts make no copy.
        """
        variants = sorted(strategy.admissible_schedules(),
                          key=lambda s: (s.outcome.cost, s.outcome.makespan))
        reallocations = 0
        for variant in variants:
            if not self.grid.can_commit(variant.distribution):
                # The environment drifted since planning: fall back to
                # the next supporting schedule (reallocation mechanism).
                reallocations += 1
                continue
            if strategy.job is not job:
                # Charge and book this job's copy of the variant.
                position = next(index for index, schedule
                                in enumerate(strategy.schedules)
                                if schedule is variant)
                strategy = strategy.rebind(job)
                variant = strategy.schedules[position]
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
            self._book(manager.domain, strategy, variant, release)
            return FlowRecord(
                job_id=job.job_id, stype=stype, domain=manager.domain,
                strategy=strategy, chosen=variant, committed=True,
                reallocations=reallocations, charge=charge)
        return FlowRecord(
            job_id=job.job_id, stype=stype, domain=manager.domain,
            strategy=strategy, chosen=None, committed=False,
            reallocations=reallocations, reason="conflict")

    def _book(self, domain: str, strategy: Strategy,
              variant: SupportingSchedule, release: int) -> None:
        """Reserve a checked-available variant, via the domain's local
        manager (full Fig. 1 hierarchy) or directly on the calendars:
        the flow layer's only booking.  Booking does not need
        ``release``; it is passed so that a check at this seam sees the
        instant the variant was planned for."""
        if not self.use_local_managers:
            self.grid.commit_distribution(variant.distribution)
            return
        job = strategy.job
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
