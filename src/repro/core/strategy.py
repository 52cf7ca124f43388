"""Scheduling strategies: sets of supporting schedules.

A *strategy* (Section 3) is a set of possible resource allocations and
schedules — *supporting schedules* — for a compound job, one per
anticipated environment event.  Here an event is an estimation level:
the degree to which actual task durations approach the user's worst-case
estimates.  The metascheduler later activates the supporting schedule
matching the observed environment and switches between them when
resources change (the reallocation mechanism).

The paper's strategy families:

* **S1** — fine-grain computations, active data replication, full
  estimation coverage;
* **S2** — fine-grain computations, remote data access, full coverage;
* **S3** — coarse-grain computations, static data storage, full coverage;
* **MS1** — S1 restricted to the best- and worst-case estimates only
  (cheaper to generate, less complete coverage of events).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from ..perf import PERF
from .calendar import ReservationCalendar
from .collisions import Collision
from .context import SchedulingContext
from .costs import BalancedTimeCost, CostModel
from .critical_works import CriticalWorksScheduler, SchedulingOutcome
from .granularity import coarsen
from .units import ceil_units
from .job import Job
from .resources import ResourcePool
from .schedule import Distribution
from .transfers import TransferModel

__all__ = [
    "DataPolicyKind",
    "StrategyType",
    "StrategySpec",
    "STRATEGY_SPECS",
    "LEVEL_EPS",
    "SupportingSchedule",
    "Strategy",
    "StrategyGenerator",
]

#: Tolerance for comparing estimation levels.  Levels are thirds
#: (0, 1/3, 2/3, 1), so equality checks between a planning level and an
#: observed level must absorb float representation error; a variant
#: covers a level when ``variant.level >= level - LEVEL_EPS``.
LEVEL_EPS = 1e-9


class DataPolicyKind(enum.Enum):
    """Data handling regimes distinguishing the strategy families."""

    REPLICATION = "replication"    # active data replication (S1, MS1)
    REMOTE_ACCESS = "remote"       # data read remotely on demand (S2)
    STATIC = "static"              # data stays where produced (S3)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class StrategyType(enum.Enum):
    """The strategy families evaluated in Section 4."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    MS1 = "MS1"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Full estimation coverage: four levels from best to worst case
#: (mirroring the four estimate rows of the Fig. 2 table).
FULL_LEVELS: tuple[float, ...] = (0.0, 1 / 3, 2 / 3, 1.0)
#: MS1 coverage: best and worst case only.
EXTREME_LEVELS: tuple[float, ...] = (0.0, 1.0)


@dataclass(frozen=True)
class StrategySpec:
    """Static description of one strategy family.

    Beyond granularity and data policy, a family fixes its optimization
    criterion — the paper stresses that strategies are *multicriteria*:
    S1/MS1 minimize cost (and therefore drift toward cheap slow nodes),
    S2 is "the fastest, most expensive and most accurate" family
    (finish-time first), and S3 "tries to monopolize processor
    resources with the highest performance and to minimize data
    exchanges" (cost-first on a restricted top-performance node set).
    """

    stype: StrategyType
    policy: DataPolicyKind
    levels: tuple[float, ...]
    #: 1.0 keeps the job fine-grain; larger factors merge linear
    #: sections.
    granularity_factor: float = 1.0
    #: DP criterion: "cost" (criterion-first) or "time" (finish-first).
    objective: str = "cost"
    #: Restrict jobs to the top-performance nodes they can use at once.
    monopolize: bool = False
    #: Selection pricing: "cf" (the economic CF term; cheap slow nodes
    #: win) or "balanced" (occupancy + CF; fast nodes win — S2).
    pricing: str = "cf"

    @property
    def coarse(self) -> bool:
        """True when this family aggregates tasks (S3)."""
        return self.granularity_factor > 1.0


STRATEGY_SPECS: dict[StrategyType, StrategySpec] = {
    StrategyType.S1: StrategySpec(
        StrategyType.S1, DataPolicyKind.REPLICATION, FULL_LEVELS),
    StrategyType.S2: StrategySpec(
        StrategyType.S2, DataPolicyKind.REMOTE_ACCESS, FULL_LEVELS,
        pricing="balanced"),
    StrategyType.S3: StrategySpec(
        StrategyType.S3, DataPolicyKind.STATIC, FULL_LEVELS,
        granularity_factor=2.0, monopolize=True),
    StrategyType.MS1: StrategySpec(
        StrategyType.MS1, DataPolicyKind.REPLICATION, EXTREME_LEVELS),
}


@dataclass
class SupportingSchedule:
    """One schedule variant of a strategy, for one estimation level."""

    level: float
    outcome: SchedulingOutcome

    @property
    def admissible(self) -> bool:
        """True when this variant meets the job's completion time."""
        return self.outcome.admissible

    @property
    def distribution(self) -> Optional[Distribution]:
        """The schedule itself (None when inadmissible)."""
        return self.outcome.distribution


@dataclass
class Strategy:
    """A generated strategy: the job's set of supporting schedules."""

    job: Job
    #: The job as scheduled (coarsened for S3; identical to job otherwise).
    scheduled_job: Job
    stype: StrategyType
    schedules: list[SupportingSchedule]
    #: Total DP state expansions over all supporting schedules.
    generation_expense: int

    @property
    def spec(self) -> StrategySpec:
        """The family description this strategy was generated from."""
        return STRATEGY_SPECS[self.stype]

    @property
    def admissible(self) -> bool:
        """True when at least one supporting schedule is admissible."""
        return any(schedule.admissible for schedule in self.schedules)

    @property
    def coverage(self) -> float:
        """How much of the best..worst event range the strategy covers.

        A supporting schedule planned at level ``L`` covers every actual
        level up to ``L`` (its reservations are long enough), so the
        covered range is the highest admissible planning level.  MS1,
        restricted to the extreme estimates, covers either everything
        (worst case admissible) or only the best-case point — "less
        complete ... in the sense of coverage of events".
        """
        admissible = self.admissible_schedules()
        if not admissible:
            return 0.0
        return max(schedule.level for schedule in admissible)

    def admissible_schedules(self) -> list[SupportingSchedule]:
        """All variants meeting the completion time, in level order."""
        return [s for s in self.schedules if s.admissible]

    def covering_schedules(self, level: float) -> list[SupportingSchedule]:
        """All admissible variants covering ``level``, in level order.

        A variant covers an observed level when its planning level is at
        least the observed one (within :data:`LEVEL_EPS`) — the
        reservations it made are then long enough for the actual
        durations.
        """
        return [s for s in self.admissible_schedules()
                if s.level >= level - LEVEL_EPS]

    def schedule_for_level(self, level: float
                           ) -> Optional[SupportingSchedule]:
        """The tightest admissible variant covering ``level``, if any."""
        candidates = self.covering_schedules(level)
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.level)

    def best_schedule(self) -> Optional[SupportingSchedule]:
        """The cheapest admissible variant (ties: earliest finish)."""
        candidates = self.admissible_schedules()
        if not candidates:
            return None
        return min(candidates,
                   key=lambda s: (s.outcome.cost, s.outcome.makespan))

    def cheapest_covering(self, level: float
                          ) -> Optional[SupportingSchedule]:
        """The cheapest admissible variant whose planning level covers
        an observed (or forecast) level — the variant the metascheduler
        activates: safe against the forecast, minimal in cost."""
        candidates = self.covering_schedules(level)
        if not candidates:
            return None
        return min(candidates,
                   key=lambda s: (s.outcome.cost, s.outcome.makespan))

    def all_collisions(self) -> list[Collision]:
        """Collisions across every supporting schedule."""
        collected: list[Collision] = []
        for schedule in self.schedules:
            collected.extend(schedule.outcome.collisions)
        return collected

    def level_hints(self) -> dict[float, dict[str, int]]:
        """Per-level task→node assignments, as warm-start seed hints.

        The repair path feeds these to :meth:`StrategyGenerator.
        generate` so a regeneration against drifted calendars starts
        from this (stale) strategy's placements: tasks whose nodes kept
        their slots re-fit as the branch-and-bound incumbent and only
        the drifted remainder is re-searched.  Hints never change
        results (exact pruning) — a hint that no longer fits merely
        costs the search it would have saved.
        """
        return {s.level: {p.task_id: p.node_id
                          for p in s.outcome.distribution}
                for s in self.schedules
                if s.outcome.distribution is not None}

    def rebind(self, job: Job) -> "Strategy":
        """This strategy re-addressed to a structurally identical job.

        Serving a cached plan across template-derived siblings must
        rewrite the job identity everywhere it is recorded — the
        distributions, outcomes, and collision records — while the
        frozen placements themselves are shared.  Only sound for jobs
        with equal :attr:`~repro.core.job.Job.structural_hash`:
        generation is deterministic in the labelled structure, so the
        rebound strategy is exactly what generating for ``job`` against
        the same calendars would have produced.
        """
        if job is self.job:
            return self
        if self.scheduled_job is self.job:
            scheduled_job = job
        else:
            # Coarse families (S3) schedule an aggregated job; rebuild
            # it under the new identity from the shared task objects.
            scheduled_job = Job(job.job_id,
                                self.scheduled_job.tasks.values(),
                                self.scheduled_job.transfers,
                                deadline=self.scheduled_job.deadline,
                                owner=job.owner)
        schedules = [
            SupportingSchedule(level=s.level,
                               outcome=_rebind_outcome(s.outcome,
                                                       job.job_id))
            for s in self.schedules
        ]
        return Strategy(job=job, scheduled_job=scheduled_job,
                        stype=self.stype, schedules=schedules,
                        generation_expense=self.generation_expense)


def _rebind_outcome(outcome: SchedulingOutcome,
                    job_id: str) -> SchedulingOutcome:
    """An outcome's copy under a new job id (placements shared)."""
    distribution = outcome.distribution
    if distribution is not None:
        distribution = Distribution(job_id, distribution,
                                    scenario=distribution.scenario)
    return SchedulingOutcome(
        job_id=job_id,
        distribution=distribution,
        admissible=outcome.admissible,
        collisions=[replace(collision, job_id=job_id)
                    for collision in outcome.collisions],
        evaluations=outcome.evaluations,
        level=outcome.level,
        cost=outcome.cost,
        makespan=outcome.makespan)


class StrategyGenerator:
    """Generates strategies of every family for compound jobs.

    Parameters
    ----------
    pool:
        Processor nodes visible to the generating job manager.
    policy_models:
        Mapping from :class:`DataPolicyKind` to a transfer model; when
        omitted, the Grid substrate's default models are used.
    cost_model:
        Placement pricing shared by all families (default: CF).
    warm_start:
        Seed each estimation level's DP with the previous level's
        node assignment as a branch-and-bound incumbent.  Generated
        strategies are bit-identical either way (the pruning is exact;
        see :func:`repro.core.dp.allocate_chain`); warm starts only
        reduce ``generation_expense`` and wall time.  On by default.
    context:
        The :class:`~repro.core.context.SchedulingContext` shared by
        every per-family scheduler the generator builds (one private
        context by default).  Metaschedulers pass their own so fit
        memos and per-job caches carry across managers and arrivals.
    """

    def __init__(self, pool: ResourcePool,
                 policy_models: Optional[Mapping[DataPolicyKind,
                                                 TransferModel]] = None,
                 cost_model: Optional[CostModel] = None,
                 balanced_cf_weight: Optional[float] = None,
                 warm_start: bool = True,
                 context: Optional[SchedulingContext] = None):
        self.pool = pool
        if policy_models is None:
            policy_models = _default_policy_models()
        self.policy_models = dict(policy_models)
        self.cost_model = cost_model
        #: CF weight of the S2 family's balanced criterion (None: the
        #: calibrated default of :class:`~repro.core.costs.BalancedTimeCost`).
        self.balanced_cf_weight = balanced_cf_weight
        self.warm_start = warm_start
        #: Session cache layer shared by all family schedulers.
        self.context = context if context is not None else SchedulingContext()
        self._schedulers: dict[StrategyType, CriticalWorksScheduler] = {}

    def scheduler_for(self, stype: StrategyType) -> CriticalWorksScheduler:
        """The (cached) critical-works scheduler for one family."""
        if stype not in self._schedulers:
            spec = STRATEGY_SPECS[stype]
            try:
                model = self.policy_models[spec.policy]
            except KeyError:
                raise KeyError(
                    f"no transfer model registered for policy {spec.policy}"
                ) from None
            if spec.pricing == "balanced":
                criterion = (BalancedTimeCost(self.balanced_cf_weight)
                             if self.balanced_cf_weight is not None
                             else BalancedTimeCost())
            else:
                criterion = self.cost_model
            self._schedulers[stype] = CriticalWorksScheduler(
                self.pool, model, criterion,
                objective=spec.objective, monopolize=spec.monopolize,
                accounting_model=self.cost_model, context=self.context)
        return self._schedulers[stype]

    def generate(self, job: Job,
                 calendars: Mapping[int, ReservationCalendar],
                 stype: StrategyType, release: int = 0,
                 seed_hints: Optional[Mapping[float, Mapping[str, int]]]
                 = None) -> Strategy:
        """Build the strategy of family ``stype`` for ``job``.

        ``calendars`` snapshot the environment load; they are not
        mutated.  One supporting schedule is produced per estimation
        level of the family.

        ``seed_hints`` (per-level task→node maps, typically a stale
        sibling strategy's :meth:`Strategy.level_hints`) warm-start the
        *repair* path: a level with no fresh previous-level hint seeds
        its DP from the stale assignment instead of starting cold.
        Hints only prune — exact branch-and-bound bounds keep the
        result bit-identical to a cold generation.
        """
        spec = STRATEGY_SPECS[stype]
        if not spec.coarse:
            scheduled_job = job
        else:
            # Aggressive coarsening down to the job's parallelism degree:
            # serial sections collapse but the parallel branches remain
            # (those branches are what collides on the monopolized top
            # nodes in Fig. 3b).
            target = max(2, job.max_width(),
                         ceil_units(len(job) / spec.granularity_factor))
            scheduled_job = coarsen(job, target_tasks=target,
                                    aggressive=True)
        scheduler = self.scheduler_for(stype)

        schedules: list[SupportingSchedule] = []
        expense = 0
        # One ranking cache services all levels below: the scheduler
        # re-ranks critical works per level but enumerates the DAG once.
        # With warm starts, each level additionally seeds its DP with
        # the previous level's node assignment — adjacent levels mostly
        # agree on nodes, so the incumbent prunes hard while leaving the
        # outcomes bit-identical.
        warm_hint: Optional[Mapping[str, int]] = None
        with PERF.timer("strategy.generate"):
            for level in spec.levels:
                hint = warm_hint
                if hint is None and seed_hints is not None and self.warm_start:
                    # Repair seed: the stale sibling's assignment for
                    # this same level (adjacent-level hints from *this*
                    # run always take precedence — they saw the current
                    # calendars).
                    hint = seed_hints.get(level)
                outcome = scheduler.build_schedule(
                    scheduled_job, calendars, level=level, release=release,
                    warm_hint=hint)
                expense += outcome.evaluations
                schedules.append(
                    SupportingSchedule(level=level, outcome=outcome))
                if self.warm_start and outcome.distribution is not None:
                    warm_hint = {p.task_id: p.node_id
                                 for p in outcome.distribution}

        return Strategy(job=job, scheduled_job=scheduled_job, stype=stype,
                        schedules=schedules, generation_expense=expense)


def _default_policy_models() -> dict[DataPolicyKind, TransferModel]:
    """The Grid substrate's standard policy timings (lazy import keeps
    the scheduling core importable without the grid package)."""
    from ..grid.data import default_policy_models

    return default_policy_models()
