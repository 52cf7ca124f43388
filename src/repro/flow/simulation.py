"""Online operation of the framework on the discrete-event kernel.

The experiment studies (:mod:`repro.experiments.study`) evaluate the
framework analytically — plan, commit, replay.  This module runs it
*live*: a Poisson stream of compound jobs arrives over simulated time,
and each arrival is planned and committed by the metascheduler against
the current environment on the DES clock.  Execution never feeds back
into planning, so once the arrivals are over every committed job is
replayed in one pass (:func:`~repro.grid.execution.replay_fcfs`) with
its **actual** durations: an overrunning producer delays its consumers
and whatever asked for the same node after it — the end-to-end QoS
picture the paper's framework is meant to control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.job import Job
from ..core.resources import ResourcePool
from ..core.strategy import StrategyType
from ..grid.data import default_policy_models
from ..grid.environment import GridEnvironment
from ..grid.execution import BookedJob, ExecutionTrace, replay_fcfs
from ..sim import Environment, RandomStreams
from .economics import VOEconomics
from .metascheduler import FlowRecord, Metascheduler

__all__ = ["OnlineConfig", "JobOutcome", "OnlineSimulation"]


@dataclass(frozen=True)
class OnlineConfig:
    """Parameters of an online run."""

    #: Simulated slots during which jobs keep arriving.
    horizon: int = 300
    #: Mean inter-arrival gap between jobs (slots).
    mean_interarrival: float = 12.0
    #: Background utilization pre-loaded before the run.
    busy_fraction: float = 0.2
    background_burst: int = 20
    #: Strategy families assigned round-robin to arrivals.
    stypes: tuple[StrategyType, ...] = (
        StrategyType.S1, StrategyType.S2, StrategyType.S3,
        StrategyType.MS1)
    #: When True (default) actual durations stay within the activated
    #: schedule's planning level — estimates hold and jobs are punctual.
    #: When False actual levels are drawn over the whole [0, 1] range,
    #: so underestimated tasks overrun their reservations and push both
    #: their successors and the node's later work (QoS erosion).
    actual_within_plan: bool = True
    #: How many times a job whose variants were all stolen between
    #: planning and commitment is re-planned (epoch-aware: unchanged
    #: domains reuse their cached strategies).  0 keeps the historical
    #: reject-on-conflict behaviour.
    conflict_retries: int = 0
    #: Simulated slots between planning a job and committing its chosen
    #: schedule — the metascheduler's decision lag.  0 (the historical
    #: behaviour) plans and commits at the same instant, so nothing can
    #: drift in between; a positive lag lets other jobs commit first,
    #: making commitment conflicts (and hence epoch-aware replans that
    #: exercise the plan cache) actually possible.  Plans target release
    #: at the commit instant, so schedules never start before they are
    #: booked.
    plan_latency: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not self.stypes:
            raise ValueError("at least one strategy family is required")
        if self.conflict_retries < 0:
            raise ValueError(
                f"conflict_retries must be >= 0, got {self.conflict_retries}")
        if self.plan_latency < 0:
            raise ValueError(
                f"plan_latency must be >= 0, got {self.plan_latency}")


@dataclass
class JobOutcome:
    """End-to-end accounting for one job that entered the system."""

    job_id: str
    stype: StrategyType
    submitted: int
    committed: bool
    reason: str = ""
    #: Completion bound promised by the supporting schedule.
    planned_makespan: Optional[int] = None
    #: When the last task actually finished in the execution replay.
    actual_makespan: Optional[int] = None
    #: True when the actual completion met the job's fixed time.
    met_deadline: Optional[bool] = None
    charge: Optional[float] = None

    @property
    def slack(self) -> Optional[int]:
        """Planned minus actual completion (negative: ran late)."""
        if self.planned_makespan is None or self.actual_makespan is None:
            return None
        return self.planned_makespan - self.actual_makespan


class OnlineSimulation:
    """Drives jobs through plan → commit on the DES clock, then replays
    their execution."""

    def __init__(self, pool: ResourcePool, seed: int = 0,
                 config: Optional[OnlineConfig] = None,
                 economics: Optional[VOEconomics] = None,
                 job_factory: Optional[Callable[..., Job]] = None):
        """``job_factory(rng, index)`` -> Job; defaults to the Section 4
        random workload generator."""
        self.pool = pool
        self.config = config or OnlineConfig()
        self.streams = RandomStreams(seed)
        self.sim = Environment()
        self.grid = GridEnvironment(pool)
        self.metascheduler = Metascheduler(
            self.grid, economics=economics,
            conflict_retries=self.config.conflict_retries)
        #: The one long-lived cache layer of the whole run: plan cache,
        #: per-job memos, and gap tables carry across arrivals instead
        #: of starting cold per job.
        self.context = self.metascheduler.context
        self.outcomes: list[JobOutcome] = []
        #: Committed jobs in commit order, and their execution traces
        #: once :meth:`run` has replayed them.
        self._committed: list[tuple[FlowRecord, JobOutcome]] = []
        self.traces: list[ExecutionTrace] = []
        self._policy_models = default_policy_models()
        if job_factory is None:
            from ..workload.generator import generate_job

            job_factory = generate_job
        self._job_factory = job_factory

    # ------------------------------------------------------------------

    def run(self) -> list[JobOutcome]:
        """Run the whole scenario; returns per-job outcomes."""
        if self.config.busy_fraction > 0:
            self.grid.apply_background_load(
                self.streams.stream("background"),
                self.config.busy_fraction,
                self.config.horizon * 2,
                max_burst=self.config.background_burst)
        self.sim.process(self._arrivals())
        self.sim.run()
        self._replay()
        self.outcomes.sort(key=lambda o: (o.submitted, o.job_id))
        return self.outcomes

    def _arrivals(self):
        rng = self.streams.stream("arrivals")
        index = 0
        while True:
            gap = float(rng.exponential(self.config.mean_interarrival))
            yield self.sim.timeout(gap)
            if self.sim.now >= self.config.horizon:
                return
            job = self._job_factory(self.streams.fork("jobs", index), index)
            stype = self.config.stypes[index % len(self.config.stypes)]
            self._admit(job, stype)
            index += 1

    def _admit(self, job: Job, stype: StrategyType) -> None:
        now = int(self.sim.now)
        latency = self.config.plan_latency
        planned = self.metascheduler.plan_job(job, stype,
                                              release=now + latency)
        if latency:
            self.sim.process(self._deferred_commit(planned, now, latency))
        else:
            self._commit_admitted(planned, now)

    def _deferred_commit(self, planned, submitted: int, latency: int):
        """Commit a planned job ``plan_latency`` slots after planning.

        Other jobs' commitments can land in between; the metascheduler
        then falls back across supporting schedules and, if all were
        stolen, replans through the epoch-keyed plan cache."""
        yield self.sim.timeout(latency)
        self._commit_admitted(planned, submitted)

    def _commit_admitted(self, planned, submitted: int) -> None:
        record = self.metascheduler.commit_planned(planned)
        outcome = JobOutcome(job_id=planned.job.job_id, stype=planned.stype,
                             submitted=submitted, committed=record.committed,
                             reason=record.reason, charge=record.charge)
        self.outcomes.append(outcome)
        if record.committed:
            outcome.planned_makespan = record.chosen.outcome.makespan
            self._committed.append((record, outcome))

    def _replay(self) -> None:
        """Replay every committed job with actual durations, in one pass
        over the shared nodes, in commit order."""
        booked = []
        for record, _ in self._committed:
            ceiling = (record.chosen.level if self.config.actual_within_plan
                       else 1.0)
            actual_level = float(
                self.streams.fork(f"actual:{record.job_id}", 0)
                .uniform(0.0, ceiling))
            booked.append(BookedJob(
                record.strategy.scheduled_job, record.chosen.distribution,
                actual_level,
                self._policy_models[record.strategy.spec.policy]))
        self.traces = replay_fcfs(booked, self.pool)
        for (record, outcome), trace in zip(self._committed, self.traces):
            outcome.actual_makespan = trace.makespan
            deadline = record.strategy.scheduled_job.deadline
            if deadline:
                outcome.met_deadline = trace.met_deadline(
                    deadline, release=outcome.submitted)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def admission_rate(self) -> float:
        """Fraction of arrivals that got a committed schedule."""
        if not self.outcomes:
            return 0.0
        committed = sum(1 for o in self.outcomes if o.committed)
        return committed / len(self.outcomes)

    def deadline_hit_rate(self) -> float:
        """Fraction of executed jobs that met their fixed time."""
        executed = [o for o in self.outcomes if o.met_deadline is not None]
        if not executed:
            return 0.0
        return sum(1 for o in executed if o.met_deadline) / len(executed)

    def node_utilization(self) -> dict[int, float]:
        """Busy fraction of every node from time 0 to the later of the
        DES clock's last event and the last actual task end."""
        busy = {node.node_id: 0 for node in self.pool}
        elapsed = self.sim.now
        for trace in self.traces:
            for run in trace.runs.values():
                busy[run.node_id] += run.actual_duration
                elapsed = max(elapsed, run.actual_end)
        if elapsed <= 0:
            return dict.fromkeys(busy, 0.0)
        return {node_id: time / elapsed for node_id, time in busy.items()}
