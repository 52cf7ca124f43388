"""The two underlying simulation studies behind Figs. 3 and 4.

* :func:`application_level_study` — per-job isolated environments, the
  Section 4 statistical study of the critical works method ("the main
  goal ... to estimate a forecast possibility for making application-
  level schedules without taking into account independent job flows").
  Feeds Fig. 3a (admissible %), Fig. 3b (collision split), and the
  strategy-expense ablation.
* :func:`coordinated_flow_study` — a shared environment per strategy
  family with job flows committed through the metascheduler.  Feeds
  Fig. 4a (load levels), Fig. 4b (cost / execution time), and Fig. 4c
  (time-to-live / start deviation).

Both studies are grid-shaped (:mod:`repro.platform`): the application
study's cells are (strategy family × job block) — a block is a
contiguous index range, so growing ``n_jobs`` only *adds* cells and
every previously cached block stays valid — and the coordinated study's
cells are whole per-family runs.  Cell runners are pure functions of
their config: all randomness forks from ``(seed, stream name, index)``,
which is what makes any worker count, and any cached/computed split,
bit-identical to the sequential path.

:func:`application_grid` / :func:`coordinated_grid` expose the specs
for the ``repro study`` CLI; the two study functions keep their
original dict-of-aggregates signatures by folding grid rows back
through ``from_row`` in cell order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Optional

from ..core.resources import NodeGroup
from ..core.strategy import StrategyGenerator, StrategyType
from ..flow.reallocation import strategy_time_to_live
from ..grid.data import default_policy_models
from ..grid.environment import GridEnvironment
from ..grid.execution import simulate_execution
from ..metrics.indices import ROW_SCHEMA_VERSION, StrategyAggregate
from ..metrics.stats import mean
from ..platform import ProgressEvent, Results, ResultStore, StudyGrid
from ..sim.rng import RandomStreams
from ..workload.generator import WorkloadConfig, generate_job, generate_pool
from .common import select_nodes_for_job

__all__ = [
    "ApplicationStudyConfig",
    "application_cell",
    "application_grid",
    "application_level_study",
    "CoordinatedStudyConfig",
    "CoordinatedRow",
    "coordinated_cell",
    "coordinated_grid",
    "coordinated_flow_study",
]

#: The families evaluated in the Fig. 3 study.
FIG3_TYPES: tuple[StrategyType, ...] = (
    StrategyType.S1, StrategyType.S2, StrategyType.S3)
#: The families shown in Fig. 4b/4c.
FIG4_TYPES: tuple[StrategyType, ...] = (
    StrategyType.MS1, StrategyType.S2, StrategyType.S3)

#: Jobs per application-study grid cell.  Coarse enough that the
#: per-cell pool rebuild is noise, fine enough that a grid run streams
#: progress and a resumed run salvages most of an interrupted study.
BLOCK_SIZE = 25


@dataclass(frozen=True)
class ApplicationStudyConfig:
    """Parameters of the Fig. 3 study (defaults are laptop-scale; the
    paper's 12 000 jobs are reachable with ``n_jobs=12000``)."""

    seed: int = 2009
    n_jobs: int = 200
    #: Background (independent-flow) utilization of every node,
    #: calibrated so roughly a third of jobs find admissible schedules
    #: (the paper's 38 / 37 / 33 % regime).
    busy_fraction: float = 0.8
    #: Candidate nodes offered per job (≈ 2× the parallelism degree).
    nodes_per_job: int = 8
    #: Horizon for background load as a multiple of the job deadline.
    horizon_factor: float = 3.0
    #: Largest contiguous background reservation (and thus the typical
    #: free-window granularity independent flows leave behind).
    background_burst: int = 30
    stypes: tuple[StrategyType, ...] = FIG3_TYPES
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)


# ----------------------------------------------------------------------
# Config (de)serialization — grid cells carry primitives only
# ----------------------------------------------------------------------

def _workload_to_config(workload: WorkloadConfig) -> dict[str, Any]:
    """A JSON-ready (and hashable-by-content) workload description."""
    payload: dict[str, Any] = {}
    for spec in fields(WorkloadConfig):
        value = getattr(workload, spec.name)
        payload[spec.name] = list(value) if isinstance(value, tuple) else value
    return payload


def _workload_from_config(data: Mapping[str, Any]) -> WorkloadConfig:
    kwargs = {name: tuple(value) if isinstance(value, (list, tuple)) else value
              for name, value in data.items()}
    return WorkloadConfig(**kwargs)


# ----------------------------------------------------------------------
# Application-level study (Fig. 3)
# ----------------------------------------------------------------------

def _study_job_strategies(pool: Any, policy_models: Any,
                          config: ApplicationStudyConfig, index: int) -> list:
    """Generate the strategies of one study job.

    Pure function of ``(config, index)`` given the shared pool: all
    randomness flows through ``streams.fork(name, index)``, which seeds
    from ``(seed, name, index)`` only — independent of generation order,
    which is what makes the grid fan-out bit-identical.
    """
    streams = RandomStreams(config.seed)
    job = generate_job(streams.fork("jobs", index), index, config.workload)
    subset = select_nodes_for_job(pool, streams.fork("nodes", index),
                                  config.nodes_per_job)
    environment = GridEnvironment(subset)
    horizon = max(1, int(job.deadline * config.horizon_factor))
    if config.busy_fraction > 0:
        environment.apply_background_load(
            streams.fork("background", index), config.busy_fraction,
            horizon, max_burst=config.background_burst)
    generator = StrategyGenerator(subset, policy_models)
    calendars = environment.snapshot()
    return [generator.generate(job, calendars, stype)
            for stype in config.stypes]


def application_cell(config: Mapping[str, Any]) -> dict[str, Any]:
    """One grid cell: a block of jobs under one strategy family.

    ``config`` is the cell's resolved primitives — study scalars, the
    workload dict, ``stype`` (family name), and ``block`` as a
    ``[lo, hi)`` index range.  Returns the block's
    :meth:`~repro.metrics.indices.StrategyAggregate.to_row` payload;
    merging block rows in cell order reproduces the single-pass fold.
    """
    stype = StrategyType[config["stype"]]
    study = ApplicationStudyConfig(
        seed=config["seed"],
        n_jobs=0,
        busy_fraction=config["busy_fraction"],
        nodes_per_job=config["nodes_per_job"],
        horizon_factor=config["horizon_factor"],
        background_burst=config["background_burst"],
        stypes=(stype,),
        workload=_workload_from_config(config["workload"]),
    )
    streams = RandomStreams(study.seed)
    pool = generate_pool(streams.stream("pool"), study.workload)
    policy_models = default_policy_models()
    aggregate = StrategyAggregate(stype=stype)
    lo, hi = config["block"]
    for index in range(lo, hi):
        for strategy in _study_job_strategies(pool, policy_models,
                                              study, index):
            aggregate.add(strategy)
    return aggregate.to_row()


def application_grid(config: Optional[ApplicationStudyConfig] = None,
                     block_size: int = BLOCK_SIZE) -> StudyGrid:
    """The Fig. 3 study as a declarative grid: family × job block.

    ``n_jobs`` is deliberately *not* part of the cell config — it only
    determines how many blocks exist, so raising it appends cells and
    every cached block from the smaller study is reused as-is.
    """
    config = config or ApplicationStudyConfig()
    blocks = [(lo, min(lo + block_size, config.n_jobs))
              for lo in range(0, config.n_jobs, block_size)]
    return StudyGrid(
        study="application",
        runner="repro.experiments.study:application_cell",
        axes={
            "stype": [stype.name for stype in config.stypes],
            "block": blocks,
        },
        base={
            "seed": config.seed,
            "busy_fraction": config.busy_fraction,
            "nodes_per_job": config.nodes_per_job,
            "horizon_factor": config.horizon_factor,
            "background_burst": config.background_burst,
            "workload": _workload_to_config(config.workload),
        },
        schema_version=ROW_SCHEMA_VERSION,
    )


def _fold_application_rows(results: Results
                           ) -> dict[StrategyType, StrategyAggregate]:
    merged: dict[StrategyType, StrategyAggregate] = {}
    for row in results:
        aggregate = StrategyAggregate.from_row(row)
        bucket = merged.get(aggregate.stype)
        if bucket is None:
            merged[aggregate.stype] = aggregate
        else:
            bucket.merge(aggregate)
    return merged


def application_level_study(config: Optional[ApplicationStudyConfig] = None,
                            workers: Optional[int] = 1,
                            store: Optional[ResultStore] = None,
                            resume: bool = True,
                            progress: Optional[
                                Callable[[ProgressEvent], None]] = None,
                            ) -> dict[StrategyType, StrategyAggregate]:
    """Generate strategies for isolated random jobs and aggregate.

    Runs the :func:`application_grid` pipeline and folds block rows in
    cell order, so the aggregates are bit-identical for any worker
    count (``None``: one per CPU) and for any cached/computed split
    when a ``store`` is supplied.
    """
    config = config or ApplicationStudyConfig()
    results = application_grid(config).run(
        workers=workers, store=store, resume=resume, progress=progress)
    return _fold_application_rows(results)


# ----------------------------------------------------------------------
# Coordinated job-flow study (Fig. 4)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinatedStudyConfig:
    """Parameters of the Fig. 4 coordinated job-flow study."""

    seed: int = 2009
    n_jobs: int = 60
    #: Shared-environment background utilization (high enough that the
    #: family objectives bind; see EXPERIMENTS.md calibration notes).
    busy_fraction: float = 0.45
    #: Simulation horizon (slots); releases spread over its first 60%.
    horizon: int = 240
    #: Drift: expected background events per slot (drives TTL).
    drift_rate: float = 0.4
    #: Noise on the forecast estimation level (uniform half-width).
    forecast_noise: float = 0.25
    stypes: tuple[StrategyType, ...] = FIG4_TYPES
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)


@dataclass
class CoordinatedRow:
    """Per-family outcome of the coordinated study."""

    #: Explicit serialization order (see :meth:`to_row`).
    ROW_FIELDS = ("stype", "committed", "rejected", "load_by_group",
                  "cost_per_volume", "execution_stretch",
                  "completion_stretch", "ttl", "start_deviation_ratio",
                  "switches")

    stype: StrategyType
    committed: int = 0
    rejected: int = 0
    load_by_group: dict[NodeGroup, float] = field(default_factory=dict)
    #: CF of the activated schedule per unit of job volume.
    cost_per_volume: float = 0.0
    #: Actual total task execution (reserved occupancy) over best-case work.
    execution_stretch: float = 0.0
    #: Job completion time over the best-case critical path ("slowness").
    completion_stretch: float = 0.0
    #: Mean strategy time-to-live in slots (capped at the horizon).
    ttl: float = 0.0
    #: Mean start-deviation / run-time ratio of executed jobs.
    start_deviation_ratio: float = 0.0
    #: Mean supporting-schedule switches during the TTL replay.
    switches: float = 0.0

    def to_row(self) -> dict[str, Any]:
        """A flat, JSON-ready row in :data:`ROW_FIELDS` order; the
        load mapping flattens to group names in :class:`NodeGroup`
        declaration order so equal rows serialize to equal bytes."""
        values: dict[str, Any] = {
            "stype": self.stype.name,
            "committed": self.committed,
            "rejected": self.rejected,
            "load_by_group": {
                group.name: self.load_by_group[group]
                for group in NodeGroup if group in self.load_by_group},
            "cost_per_volume": self.cost_per_volume,
            "execution_stretch": self.execution_stretch,
            "completion_stretch": self.completion_stretch,
            "ttl": self.ttl,
            "start_deviation_ratio": self.start_deviation_ratio,
            "switches": self.switches,
        }
        row = {"row_schema": ROW_SCHEMA_VERSION}
        row.update((name, values[name]) for name in self.ROW_FIELDS)
        return row

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "CoordinatedRow":
        """Rebuild from :meth:`to_row` output (extra keys ignored)."""
        schema = row.get("row_schema")
        if schema != ROW_SCHEMA_VERSION:
            raise ValueError(
                f"coordinated row schema {schema!r} != {ROW_SCHEMA_VERSION}")
        return cls(
            stype=StrategyType[row["stype"]],
            committed=int(row["committed"]),
            rejected=int(row["rejected"]),
            load_by_group={NodeGroup[name]: float(value)
                           for name, value in row["load_by_group"].items()},
            cost_per_volume=float(row["cost_per_volume"]),
            execution_stretch=float(row["execution_stretch"]),
            completion_stretch=float(row["completion_stretch"]),
            ttl=float(row["ttl"]),
            start_deviation_ratio=float(row["start_deviation_ratio"]),
            switches=float(row["switches"]),
        )


def _coordinated_family(config: CoordinatedStudyConfig,
                        stype: StrategyType) -> CoordinatedRow:
    """One family's full shared-environment run (independent seeds)."""
    policy_models = default_policy_models()
    streams = RandomStreams(config.seed)
    pool = generate_pool(streams.stream("pool"), config.workload)
    environment = GridEnvironment(pool)
    if config.busy_fraction > 0:
        environment.apply_background_load(
            streams.stream("background"), config.busy_fraction,
            config.horizon)
    generator = StrategyGenerator(pool, policy_models)
    row = CoordinatedRow(stype=stype)
    costs, stretches, ttls, deviations, switches = [], [], [], [], []
    completions = []

    for index in range(config.n_jobs):
        job_rng = streams.fork("jobs", index)
        job = generate_job(job_rng, index, config.workload)
        release = int(streams.fork("release", index).integers(
            0, max(1, int(config.horizon * 0.6))))
        actual_rng = streams.fork("actual", index)
        actual_level = float(actual_rng.uniform(0.0, 1.0))
        noise = float(actual_rng.uniform(-config.forecast_noise,
                                         config.forecast_noise))
        forecast_level = min(1.0, max(0.0, actual_level + noise))

        calendars = environment.snapshot()
        strategy = generator.generate(job, calendars, stype,
                                      release=release)
        chosen = (strategy.cheapest_covering(forecast_level)
                  or strategy.best_schedule())
        if chosen is None or not environment.can_commit(
                chosen.distribution):
            row.rejected += 1
            continue
        environment.commit_distribution(chosen.distribution)
        row.committed += 1

        scheduled = strategy.scheduled_job
        costs.append(chosen.outcome.cost / scheduled.total_volume())

        # Replay with the *actual* level: when the activated variant
        # planned below it (forecast undershoot), producers run past
        # their reservations and successors start late — the start-
        # deviation source of Fig. 4c.
        trace = simulate_execution(
            scheduled, chosen.distribution, pool,
            actual_level=actual_level,
            transfer_model=policy_models[strategy.spec.policy])
        best_work = sum(task.best_time
                        for task in scheduled.tasks.values())
        reserved = sum(p.duration for p in chosen.distribution)
        stretches.append(reserved / best_work if best_work else 0.0)
        critical_path = max(1, job.minimal_makespan(1.0))
        completions.append(
            (chosen.distribution.makespan - release) / critical_path)
        deviations.append(trace.deviation_to_runtime_ratio())

        drift = environment.sample_background_events(
            streams.fork("drift", index), config.drift_rate,
            config.horizon)
        ttl_result = strategy_time_to_live(
            strategy, drift, horizon=config.horizon,
            min_level=forecast_level)
        ttls.append(ttl_result.ttl)
        switches.append(ttl_result.switches)

    row.load_by_group = environment.utilization_by_group_tagged(
        0, config.horizon)
    row.cost_per_volume = mean(costs)
    row.execution_stretch = mean(stretches)
    row.completion_stretch = mean(completions)
    row.ttl = mean(ttls)
    row.start_deviation_ratio = mean(deviations)
    row.switches = mean(switches)
    return row


def coordinated_cell(config: Mapping[str, Any]) -> dict[str, Any]:
    """One grid cell: a whole shared-environment run for one family.

    Families can't be split into job blocks — each job's commit changes
    the environment every later job sees — so the family *is* the cell.
    """
    stype = StrategyType[config["stype"]]
    study = CoordinatedStudyConfig(
        seed=config["seed"],
        n_jobs=config["n_jobs"],
        busy_fraction=config["busy_fraction"],
        horizon=config["horizon"],
        drift_rate=config["drift_rate"],
        forecast_noise=config["forecast_noise"],
        stypes=(stype,),
        workload=_workload_from_config(config["workload"]),
    )
    return _coordinated_family(study, stype).to_row()


def coordinated_grid(config: Optional[CoordinatedStudyConfig] = None
                     ) -> StudyGrid:
    """The Fig. 4 study as a declarative grid: one cell per family."""
    config = config or CoordinatedStudyConfig()
    return StudyGrid(
        study="coordinated",
        runner="repro.experiments.study:coordinated_cell",
        axes={"stype": [stype.name for stype in config.stypes]},
        base={
            "seed": config.seed,
            "n_jobs": config.n_jobs,
            "busy_fraction": config.busy_fraction,
            "horizon": config.horizon,
            "drift_rate": config.drift_rate,
            "forecast_noise": config.forecast_noise,
            "workload": _workload_to_config(config.workload),
        },
        schema_version=ROW_SCHEMA_VERSION,
    )


def _fold_coordinated_rows(results: Results
                           ) -> dict[StrategyType, CoordinatedRow]:
    rows = {}
    for row in results:
        rebuilt = CoordinatedRow.from_row(row)
        rows[rebuilt.stype] = rebuilt
    return rows


def coordinated_flow_study(config: Optional[CoordinatedStudyConfig] = None,
                           workers: Optional[int] = 1,
                           store: Optional[ResultStore] = None,
                           resume: bool = True,
                           progress: Optional[
                               Callable[[ProgressEvent], None]] = None,
                           ) -> dict[StrategyType, CoordinatedRow]:
    """Run the shared-environment study once per strategy family.

    Every family sees the *same* jobs, node pool, background load, and
    drift events (identical seeds), so differences between rows are the
    strategies' doing.  Families are mutually independent (each owns a
    fresh environment), so the grid fans them out over processes; rows
    merge in family order and match the sequential results exactly.
    """
    config = config or CoordinatedStudyConfig()
    results = coordinated_grid(config).run(
        workers=workers, store=store, resume=resume, progress=progress)
    return _fold_coordinated_rows(results)
