"""Online operation of the framework on the discrete-event kernel.

The experiment studies (:mod:`repro.experiments.study`) evaluate the
framework analytically — plan, commit, replay.  This module runs it
*live*: a Poisson stream of compound jobs arrives over simulated time;
each arrival is planned and committed by the metascheduler against the
current environment; committed tasks then execute on
:class:`~repro.grid.node.NodeAgent` processes with their **actual**
durations, so an overrunning producer really does delay its consumers
and the next reservation on the same node — the end-to-end QoS picture
the paper's framework is meant to control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.job import Job
from ..core.resources import ResourcePool
from ..core.strategy import StrategyType
from ..grid.data import default_policy_models
from ..grid.environment import GridEnvironment
from ..grid.node import NodeAgent
from ..sim import Environment, RandomStreams, TimeWeightedStat
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
    #: When the last task actually finished on the DES clock.
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
    """Drives jobs through plan → commit → execute on the DES clock."""

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
        self.agents = {node.node_id: NodeAgent(self.sim, node)
                       for node in pool}
        #: Jobs planned-and-committed but not yet finished, over time.
        self.in_system = TimeWeightedStat()
        self.outcomes: list[JobOutcome] = []
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
            self.in_system.increment(self.sim.now)
            self.sim.process(self._execute(record, outcome))

    # ------------------------------------------------------------------

    def _execute(self, record: FlowRecord, outcome: JobOutcome):
        """Run every task of a committed job with actual durations."""
        strategy = record.strategy
        scheduled = strategy.scheduled_job
        distribution = record.chosen.distribution
        model = self._policy_models[strategy.spec.policy]
        ceiling = (record.chosen.level if self.config.actual_within_plan
                   else 1.0)
        actual_level = float(
            self.streams.fork(f"actual:{record.job_id}", 0)
            .uniform(0.0, ceiling))

        done: dict[str, object] = {
            task_id: self.sim.event() for task_id in scheduled.tasks}
        handles = []
        for task_id in scheduled.topological_order():
            handles.append(self.sim.process(self._run_task(
                scheduled, distribution, task_id, done, model,
                actual_level)))
        yield self.sim.all_of(handles)
        self.in_system.increment(self.sim.now, -1)
        outcome.actual_makespan = int(max(
            event.value for event in done.values()))
        if scheduled.deadline:
            outcome.met_deadline = (
                outcome.actual_makespan
                <= outcome.submitted + scheduled.deadline)

    def _run_task(self, scheduled: Job, distribution, task_id: str,
                  done: dict, model, actual_level: float):
        placement = distribution.placement(task_id)
        node = self.pool.node(placement.node_id)
        ready = float(placement.start)
        predecessors = scheduled.predecessors(task_id)
        if predecessors:
            yield self.sim.all_of([done[p] for p in predecessors])
            for pred in predecessors:
                transfer = scheduled.transfer_between(pred, task_id)
                pred_node = self.pool.node(
                    distribution.placement(pred).node_id)
                lag = model.time(transfer, pred_node, node)
                ready = max(ready, done[pred].value + lag)
        if self.sim.now < ready:
            yield self.sim.timeout(ready - self.sim.now)
        duration = scheduled.task(task_id).duration_on(
            node.performance, actual_level)
        run = yield self.agents[placement.node_id].execute(
            task_id, not_before=placement.start, duration=duration)
        done[task_id].succeed(run.end)

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
        """Busy fraction of every node over the elapsed simulation."""
        return {node_id: agent.utilization()
                for node_id, agent in self.agents.items()}

    def mean_concurrency(self) -> float:
        """Time-weighted mean number of jobs in the system."""
        return self.in_system.mean(until=self.sim.now)
