"""The critical works method: application-level co-allocation of a job.

The method (Section 3, refined from the author's earlier papers) is a
multiphase procedure:

1. rank all source→sink chains of the job by estimated length on the
   fastest nodes, including data-transfer times — the longest chain of
   still-unassigned tasks is the next *critical work*;
2. allocate the critical work with the best combination of available
   resources via dynamic programming (:func:`repro.core.dp.allocate_chain`),
   respecting constraints from already-placed tasks;
3. detect *collisions* — tasks of different critical works competing for
   the same node/time — and resolve them by reallocating the later task
   to its next-best resource (possibly at a higher cost);
4. repeat until every task is placed, yielding one supporting schedule
   (:class:`~repro.core.schedule.Distribution`).

Collision mechanics: each critical work is first allocated against the
*base* resource snapshot (background load only), exactly like the paper's
independent per-chain optimization; overlaps with this job's previously
placed tasks are then genuine critical-works collisions, resolved by a
second DP pass against the fully-booked working calendars.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..perf import PERF
from .calendar import ReservationCalendar
from .collisions import Collision
from .context import SchedulingContext
from .costs import CostModel, VolumeOverTimeCost, distribution_cost
from .dp import allocate_chain
from .job import Job
from .resources import ResourcePool
from .schedule import Distribution, Placement
from .transfers import NeutralTransferModel, TransferModel

__all__ = ["SchedulingOutcome", "CriticalWorksScheduler",
           "ScheduleInvariantError", "DeadChains"]

#: Chains proved infeasible within one strategy generation: (chain,
#: candidate node set, deadline) -> the lowest level of the proof.
DeadChains = dict[tuple[tuple[str, ...], Optional[frozenset[int]], int],
                  float]


class ScheduleInvariantError(AssertionError):
    """A scheduler self-check found an invariant violation."""


@dataclass
class SchedulingOutcome:
    """Result of one critical-works run (one supporting schedule)."""

    job_id: str
    #: The complete schedule, or None when the job is inadmissible.
    distribution: Optional[Distribution]
    #: True when every task fit within the fixed completion time.
    admissible: bool
    collisions: list[Collision] = field(default_factory=list)
    #: DP state expansions — the generation-expense metric.
    evaluations: int = 0
    #: Estimation level the schedule was built for.
    level: float = 0.0
    cost: Optional[float] = None
    makespan: Optional[int] = None


class CriticalWorksScheduler:
    """Builds supporting schedules for compound jobs.

    Parameters
    ----------
    pool:
        The processor nodes available to this job's flow.
    transfer_model:
        Data-policy timing model (default neutral).
    cost_model:
        Placement pricing (default: the paper's CF term).
    self_check:
        When True, every outcome is run through the static verifier
        (:func:`repro.analysis.verify_outcome`) before being returned,
        and a :class:`ScheduleInvariantError` is raised on the first
        violation.  Off by default — the test suite turns it on
        globally via ``tests/conftest.py``.
    context:
        The :class:`~repro.core.context.SchedulingContext` holding
        every cache the scheduler and its DP calls consult (transfer
        lags, durations, rankings, job paths; fit witnesses live on
        the calendars).  Callers that schedule through several
        schedulers or across arrivals pass one shared context; by
        default the scheduler owns a private one.  All context caches
        are exact, so sharing never changes results.
    """

    def __init__(self, pool: ResourcePool,
                 transfer_model: Optional[TransferModel] = None,
                 cost_model: Optional[CostModel] = None,
                 objective: str = "cost",
                 monopolize: bool = False,
                 accounting_model: Optional[CostModel] = None,
                 self_check: bool = False,
                 context: Optional[SchedulingContext] = None):
        self.pool = pool
        self.transfer_model = transfer_model or NeutralTransferModel()
        #: Selection criterion the DP minimizes (a family's objective).
        self.cost_model = cost_model or VolumeOverTimeCost()
        #: Economic pricing reported on outcomes (always CF by default,
        #: so costs are comparable across strategy families).
        self.accounting_model = accounting_model or VolumeOverTimeCost()
        if objective not in ("cost", "time"):
            raise ValueError(f"unknown objective {objective!r}")
        #: DP optimization criterion ("cost" = CF-first, "time" =
        #: finish-first; see :func:`repro.core.dp.allocate_chain`).
        self.objective = objective
        #: When True, restrict every job to the highest-performance
        #: nodes it can use concurrently — the S3 family's behaviour of
        #: monopolizing the best resources to minimize data exchanges.
        self.monopolize = monopolize
        #: Invariant hook: verify every outcome before returning it.
        self.self_check = self_check
        #: Session cache layer; see the class docstring.  Rankings and
        #: the DP's task tables (durations, prices, lags) live here,
        #: scoped by (job, model, pool) keys so a shared context stays
        #: exact across schedulers.
        self.context = context if context is not None else SchedulingContext()

    def _allowed_nodes(self, job: Job) -> Optional[frozenset[int]]:
        if not self.monopolize:
            return None
        # One node above the parallelism degree leaves room to resolve
        # collisions without leaving the top-performance set.  Frozen,
        # because the DP keys its task table on the candidate node set.
        width = max(2, job.max_width()) + 1
        ranked = self.pool.sorted_by_performance()
        return frozenset(node.node_id for node in ranked[:width])

    # ------------------------------------------------------------------

    def critical_works(self, job: Job, level: float = 0.0,
                       context: Optional[SchedulingContext] = None
                       ) -> list[tuple[int, list[str]]]:
        """All chains ranked as critical works (longest first).

        Lengths are estimated on the fastest node of the pool, with
        transfer times from the data-policy model, matching "the longest
        chain ... along with the best combination of available resources".

        The ranking is cached in the context per (job, transfer model,
        pool, level); treat the returned list as read-only.
        """
        ctx = context if context is not None else self.context
        per_job = ctx.rankings(job, self.transfer_model, self.pool)
        cached = per_job.get(level)
        if cached is not None:
            if PERF.enabled:
                PERF.incr("critical_works.rank_cache_hits")
            return cached
        if PERF.enabled:
            PERF.incr("critical_works.rank_cache_misses")
        best_performance = self.pool.fastest().performance
        # Each task's duration and each edge's lag once per ranking, not
        # once per path through them; the sums are those of
        # :meth:`~repro.core.job.Job.chain_length`, term for term.
        durations = {task_id: task.duration_on(best_performance, level)
                     for task_id, task in job.tasks.items()}
        estimate = self.transfer_model.estimate
        lags = {(transfer.src, transfer.dst): estimate(transfer)
                for transfer in job.transfers}
        scored = []
        for path in ctx.job_paths(job):
            length = durations[path[0]]
            for earlier, later in zip(path, path[1:]):
                length += lags[earlier, later]
                length += durations[later]
            scored.append((length, path))
        scored.sort(key=lambda item: (-item[0], item[1]))
        per_job[level] = scored
        return scored

    def build_schedule(self, job: Job,
                       calendars: Mapping[int, ReservationCalendar],
                       level: float = 0.0, release: int = 0,
                       context: Optional[SchedulingContext] = None,
                       dead_chains: Optional[DeadChains] = None
                       ) -> SchedulingOutcome:
        """Run the critical works method once at one estimation level.

        ``calendars`` describe the environment load (background
        reservations of independent job flows); they are *not* mutated —
        booking the resulting distribution is the caller's decision.

        ``context`` overrides the scheduler's own
        :class:`~repro.core.context.SchedulingContext` for this call.

        ``dead_chains`` is shared by the levels of one strategy
        generation (:meth:`~repro.core.strategy.StrategyGenerator.
        generate`): it maps (chain, candidate node set, deadline) to the
        lowest level at which a phase-A allocation proved the chain
        infeasible with nothing of the job placed.  At that level or a
        higher one the chain fails at once instead of running the DP.
        Durations never shrink with the level, lags and the base
        calendars do not change, and placed tasks only add bounds, so
        the DP would fail too; a failed DP call adds no evaluations and
        no collisions, so the outcome is bit-identical to a call
        without the map.
        """
        ctx = context if context is not None else self.context
        outcome = SchedulingOutcome(job_id=job.job_id, distribution=None,
                                    admissible=False, level=level)
        deadline = release + job.deadline if job.deadline else None
        if deadline is None:
            # No fixed completion time: bound by a generous horizon so the
            # DP terminates; admissibility is then trivially true.
            deadline = release + 4 * max(
                1, job.minimal_makespan(self.pool.fastest().performance))

        allowed = self._allowed_nodes(job)
        placed = self._attempt(job, calendars, deadline, level, release,
                               outcome, allowed, ctx, dead_chains)
        if placed is None and allowed is not None:
            # The monopolized top-performance set could not host the job;
            # fall back to the whole pool (S3 keeps its coarse tasks and
            # static data policy but gives up the monopoly).
            placed = self._attempt(job, calendars, deadline, level,
                                   release, outcome, None, ctx, dead_chains)
        if placed is None:
            return outcome

        distribution = Distribution(job.job_id, placed.values(),
                                    scenario=f"level={level:g}")
        outcome.distribution = distribution
        outcome.makespan = distribution.makespan
        outcome.cost = distribution_cost(distribution, job, self.pool,
                                         self.accounting_model)
        outcome.admissible = (not job.deadline
                              or distribution.makespan <= deadline)
        if self.self_check:
            self._verify(job, outcome, release)
        return outcome

    def schedule(self, job: Job, pool: ResourcePool,
                 calendars: Mapping[int, ReservationCalendar], *,
                 context: Optional[SchedulingContext] = None,
                 level: float = 0.0,
                 release: int = 0) -> SchedulingOutcome:
        """:class:`~repro.core.context.Scheduler` protocol entry point.

        The scheduler's pool, models, and objective are construction
        state; the protocol's ``pool`` argument must match — passing a
        different pool is an error rather than a silent rebind, because
        the rankings are keyed to ``self.pool``.
        """
        if pool is not self.pool:
            raise ValueError(
                "CriticalWorksScheduler is bound to its construction "
                "pool; build a scheduler per pool")
        return self.build_schedule(job, calendars, level=level,
                                   release=release, context=context)

    def _verify(self, job: Job, outcome: SchedulingOutcome,
                release: int) -> None:
        """Invariant hook: fail loudly when an outcome breaks the rules.

        Imported lazily — :mod:`repro.analysis` depends on the core, so
        a module-level import would be circular.
        """
        from ..analysis import verify_outcome

        report = verify_outcome(job, outcome, self.pool,
                                transfer_model=self.transfer_model,
                                release=release,
                                accounting_model=self.accounting_model)
        if not report.ok:
            raise ScheduleInvariantError(
                f"self-check failed for job {job.job_id!r}:\n"
                f"{report.summary()}")

    # ------------------------------------------------------------------

    def _attempt(self, job: Job,
                 calendars: Mapping[int, ReservationCalendar],
                 deadline: int, level: float, release: int,
                 outcome: SchedulingOutcome,
                 allowed: Optional[frozenset[int]],
                 ctx: SchedulingContext,
                 dead_chains: Optional[DeadChains]
                 ) -> Optional[dict[str, Placement]]:
        """One full critical-works pass; None when the job cannot fit.

        When a segment cannot be placed because earlier critical works
        pinned its *descendants* too early (the sink of the first chain
        bounds every later chain), the method reallocates: the placed
        descendants are released and the path is retried, so the blocked
        segment extends over the released chain and co-allocates with it.
        """
        working = {node.node_id: calendars[node.node_id].copy()
                   for node in self.pool}
        placed: dict[str, Placement] = {}
        paths = [path for _, path in self.critical_works(job, level,
                                                         context=ctx)]
        repairs = 0
        index = 0
        while index < len(paths):
            failed_segment: Optional[list[str]] = None
            for segment in _unassigned_segments(paths[index], placed):
                if not self._place_segment(job, segment, calendars, working,
                                           placed, deadline, level, release,
                                           outcome, allowed, ctx,
                                           dead_chains):
                    failed_segment = segment
                    break
            if failed_segment is None:
                index += 1
                continue
            descendants = _placed_descendants(job, failed_segment, placed)
            if not descendants or repairs >= len(job.tasks):
                return None
            for task_id in descendants:
                placement = placed.pop(task_id)
                working[placement.node_id].release_tag(task_id)
            repairs += 1
            # Retry the same path: the blocked segment now extends over
            # the released chain-descendants and co-allocates with them.
        # Descendants released from side branches may belong to earlier
        # paths; a final sweep places whatever is left.
        if len(placed) != len(job.tasks):
            for path in paths:
                for segment in _unassigned_segments(path, placed):
                    if not self._place_segment(job, segment, calendars,
                                               working, placed, deadline,
                                               level, release, outcome,
                                               allowed, ctx, dead_chains):
                        return None
        if len(placed) != len(job.tasks):  # pragma: no cover - safety net
            return None
        return placed

    def _place_segment(self, job: Job, segment: list[str],
                       base: Mapping[int, ReservationCalendar],
                       working: dict[int, ReservationCalendar],
                       placed: dict[str, Placement],
                       deadline: int, level: float, release: int,
                       outcome: SchedulingOutcome,
                       allowed: Optional[frozenset[int]],
                       ctx: SchedulingContext,
                       dead_chains: Optional[DeadChains]) -> bool:
        """Allocate one run of unassigned tasks; returns False on failure."""
        # A chain an earlier level proved dead fails at once (see
        # ``build_schedule``).
        dead_key = (tuple(segment), allowed, deadline)
        if (dead_chains is not None
                and dead_chains.get(dead_key, level + 1) <= level):
            return False
        # Phase A: optimize the critical work against the base snapshot,
        # independently of this job's other critical works (this is what
        # makes collisions possible, as in the paper).
        tentative = allocate_chain(
            job, segment, self.pool, base, deadline, level,
            self.transfer_model, self.cost_model, fixed=placed,
            release=release, allowed_nodes=allowed,
            objective=self.objective, context=ctx)
        if tentative is None:
            if dead_chains is not None and not placed:
                dead_chains[dead_key] = level
            return False
        outcome.evaluations += tentative.evaluations

        pending = deque(tentative.placements)
        while pending:
            placement = pending.popleft()
            calendar = working[placement.node_id]
            blockers = calendar.conflicts(placement.start, placement.end)
            if not blockers:
                calendar.reserve(placement.start, placement.end,
                                 tag=placement.task_id)
                placed[placement.task_id] = placement
                continue

            # Collision: a task of an earlier critical work holds the slot.
            node = self.pool.node(placement.node_id)
            collision = Collision(
                job_id=job.job_id, task_id=placement.task_id,
                holder=blockers[0].tag, node_id=node.node_id,
                node_group=node.group, time=placement.start)
            # Repair restarts replay the same contention; count each
            # distinct event once.
            if collision not in outcome.collisions:
                outcome.collisions.append(collision)

            # Phase B: re-plan this task and the rest of the segment
            # against the fully-booked working calendars.
            remainder = [placement.task_id] + [p.task_id for p in pending]
            resolved = allocate_chain(
                job, remainder, self.pool, working, deadline, level,
                self.transfer_model, self.cost_model, fixed=placed,
                release=release, allowed_nodes=allowed,
                objective=self.objective, context=ctx)
            if resolved is None:
                return False
            outcome.evaluations += resolved.evaluations
            pending = deque(resolved.placements)

        # The DP's chain state holds only the previous task, so it can
        # break an edge between two non-adjacent tasks of the run (S3's
        # coarsening makes such skip edges).  Then re-place the run cut
        # before the edge's destination: its source is placed first and
        # bounds the destination like any fixed predecessor.
        cut = self._broken_skip_edge(job, segment, placed)
        if cut is None:
            return True
        for task_id in segment:
            working[placed.pop(task_id).node_id].release_tag(task_id)
        rest = (base, working, placed, deadline, level, release, outcome,
                allowed, ctx, dead_chains)
        return (self._place_segment(job, segment[:cut], *rest)
                and self._place_segment(job, segment[cut:], *rest))

    def _broken_skip_edge(self, job: Job, segment: list[str],
                          placed: Mapping[str, Placement]) -> Optional[int]:
        """Position in the placed ``segment`` of the first task starting
        before the output of an earlier, non-adjacent task of the
        segment arrives; None when every such edge holds."""
        for position in range(2, len(segment)):
            task_id = segment[position]
            target = placed[task_id]
            for pred in job.predecessors(task_id):
                if pred not in segment[:position - 1]:
                    continue
                transfer = job.transfer_between(pred, task_id)
                if transfer is None:  # pragma: no cover - preds have edges
                    continue
                source = placed[pred]
                lag = self.transfer_model.time(
                    transfer, self.pool.node(source.node_id),
                    self.pool.node(target.node_id))
                if target.start < source.end + lag:
                    return position
        return None


def _placed_descendants(job: Job, tasks: Sequence[str],
                        placed: Mapping[str, Placement]) -> list[str]:
    """Already-placed tasks downstream of any of ``tasks``."""
    frontier = list(tasks)
    seen: set[str] = set(frontier)
    found: list[str] = []
    while frontier:
        current = frontier.pop()
        for successor in job.successors(current):
            if successor in seen:
                continue
            seen.add(successor)
            frontier.append(successor)
            if successor in placed:
                found.append(successor)
    return found


def _unassigned_segments(path: Sequence[str],
                         placed: Mapping[str, Placement]) -> list[list[str]]:
    """Maximal runs of not-yet-placed tasks along a path."""
    segments: list[list[str]] = []
    current: list[str] = []
    for task_id in path:
        if task_id in placed:
            if current:
                segments.append(current)
                current = []
        else:
            current.append(task_id)
    if current:
        segments.append(current)
    return segments
