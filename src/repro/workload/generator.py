"""Random workload generation following Section 4's parameterization.

"Strategies for more than 12000 jobs with a fixed completion time were
studied.  Every task of a job had randomized completion time estimations,
computation volumes, data transfer times and volumes with a uniform
distribution.  These parameters for various tasks had difference which
was equal to 2...3.  Processor nodes were selected in accordance to their
relative performance ... 0.66…1 / 0.33…0.66 / 0.33 ... A number of nodes
was conformed to a job structure, i.e. a task parallelism degree, and was
varied from 20 to 30."

Jobs are layered DAGs: a source layer, interior layers whose width is
the job's parallelism degree, and a sink layer, with every non-source
task consuming at least one upstream output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..core.job import DataTransfer, Job, Task
from ..core.resources import ProcessorNode, ResourcePool
from ..core.units import ceil_units
from ..sim.rng import RandomStreams

__all__ = ["WorkloadConfig", "generate_job", "generate_pool",
           "generate_workload", "TemplateWorkload"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the random workload (defaults follow Section 4)."""

    #: Interior layers of the task DAG (min, max inclusive).
    layers: tuple[int, int] = (1, 3)
    #: Tasks per interior layer — the parallelism degree (min, max).
    parallelism: tuple[int, int] = (2, 4)
    #: Base (reference-node) execution time of a task, uniform ints.
    base_time: tuple[int, int] = (2, 6)
    #: Worst-case multiplier over the best estimate (user uncertainty;
    #: the paper's "difference ... 2...3" is the across-task parameter
    #: spread, covered by the ``base_time``/``volume_rate`` ranges).
    estimate_spread: tuple[float, float] = (1.3, 1.8)
    #: Volume per base-time slot, uniform; V_i = rate × best_time.
    volume_rate: tuple[float, float] = (5.0, 15.0)
    #: Data transfer base times, uniform ints.
    transfer_time: tuple[int, int] = (1, 3)
    #: Data transfer volumes, uniform.
    transfer_volume: tuple[float, float] = (1.0, 3.0)
    #: Deadline = slack × critical path on the fastest node.
    deadline_slack: tuple[float, float] = (1.8, 2.8)
    #: Pool size range (paper: 20 to 30 nodes).
    pool_size: tuple[int, int] = (20, 30)
    #: Share of fast / medium nodes (the rest are slow at 0.33).
    fast_share: float = 0.3
    medium_share: float = 0.4

    def __post_init__(self) -> None:
        for name in ("layers", "parallelism", "base_time", "estimate_spread",
                     "volume_rate", "transfer_time", "transfer_volume",
                     "deadline_slack", "pool_size"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name}: min {low} exceeds max {high}")
        if self.layers[0] < 1:
            raise ValueError("jobs need at least one interior layer")
        if self.parallelism[0] < 1:
            raise ValueError("parallelism must be at least 1")
        if self.base_time[0] < 1:
            raise ValueError("base_time must be at least 1")
        if not 0 <= self.fast_share + self.medium_share <= 1:
            raise ValueError("group shares must sum to at most 1")


def _uniform_int(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    return float(rng.uniform(bounds[0], bounds[1]))


def generate_job(rng: np.random.Generator, index: int,
                 config: Optional[WorkloadConfig] = None,
                 owner: str = "user") -> Job:
    """One random compound job with a fixed completion time."""
    config = config or WorkloadConfig()

    layer_sizes = [1]
    for _ in range(_uniform_int(rng, config.layers)):
        layer_sizes.append(_uniform_int(rng, config.parallelism))
    layer_sizes.append(1)

    tasks: list[Task] = []
    layers: list[list[str]] = []
    counter = 0
    for size in layer_sizes:
        layer: list[str] = []
        for _ in range(size):
            counter += 1
            task_id = f"P{counter}"
            best = _uniform_int(rng, config.base_time)
            worst = ceil_units(best * _uniform(rng, config.estimate_spread))
            volume = round(best * _uniform(rng, config.volume_rate), 2)
            tasks.append(Task(task_id, volume=volume, best_time=best,
                              worst_time=worst))
            layer.append(task_id)
        layers.append(layer)

    transfers: list[DataTransfer] = []
    edge_count = 0

    def add_edge(src: str, dst: str) -> None:
        nonlocal edge_count
        edge_count += 1
        transfers.append(DataTransfer(
            f"D{edge_count}", src, dst,
            volume=round(_uniform(rng, config.transfer_volume), 2),
            base_time=_uniform_int(rng, config.transfer_time)))

    seen_edges: set[tuple[str, str]] = set()
    for upstream, downstream in zip(layers, layers[1:]):
        # Every downstream task consumes at least one upstream output.
        for dst in downstream:
            src = upstream[int(rng.integers(0, len(upstream)))]
            seen_edges.add((src, dst))
        # Every upstream task feeds at least one downstream task.
        for src in upstream:
            if not any((src, dst) in seen_edges for dst in downstream):
                dst = downstream[int(rng.integers(0, len(downstream)))]
                seen_edges.add((src, dst))
    for src, dst in sorted(seen_edges):
        add_edge(src, dst)

    job = Job(f"job{index}", tasks, transfers, deadline=0, owner=owner)
    slack = _uniform(rng, config.deadline_slack)
    deadline = max(1, ceil_units(job.minimal_makespan(1.0) * slack))
    return Job(job.job_id, tasks, transfers, deadline=deadline, owner=owner)


def generate_pool(rng: np.random.Generator,
                  config: Optional[WorkloadConfig] = None,
                  domains: int = 3) -> ResourcePool:
    """A heterogeneous pool matching the paper's three node groups."""
    config = config or WorkloadConfig()
    if domains < 1:
        raise ValueError(f"domains must be at least 1, got {domains}")
    size = _uniform_int(rng, config.pool_size)
    n_fast = max(1, round(size * config.fast_share))
    n_medium = max(1, round(size * config.medium_share))
    n_slow = max(1, size - n_fast - n_medium)

    performances: list[float] = []
    performances.extend(
        round(float(rng.uniform(0.66, 1.0)), 3) for _ in range(n_fast))
    performances.extend(
        round(float(rng.uniform(0.34, 0.66)), 3) for _ in range(n_medium))
    performances.extend(0.33 for _ in range(n_slow))

    order = sorted(range(len(performances)),
                   key=lambda j: (-performances[j], j))
    rank_of = {j: rank for rank, j in enumerate(order)}
    nodes = [
        ProcessorNode(node_id=i + 1, performance=performances[i],
                      type_index=rank_of[i] + 1,
                      domain=f"domain{i % domains + 1}")
        for i in range(len(performances))
    ]
    return ResourcePool(nodes)


class TemplateWorkload:
    """A skewed template workload: few job classes, many arrivals.

    A ``job_factory(rng, index) -> Job`` for
    :class:`~repro.flow.simulation.OnlineSimulation` and the sharded
    lane.  Construction is deterministic in its arguments.

    Each arrival picks a template with probability proportional to its
    weight and is cloned under its own ``job_id`` — so arrivals of the
    same template share a structural hash, the identity the flow
    layer's plan cache reuses plans across.  This is the flash-crowd
    profile of a production job flow: a handful of dominant pipelines
    submitted over and over.  Clones are made with
    :meth:`~repro.core.job.Job.clone`, which shares the immutable
    structure and the cached structural hash (it excludes the job id
    and owner), so each arrival costs O(1) instead of re-validating the
    DAG and re-hashing it — the difference is measurable at
    10^5-arrival scale.
    """

    def __init__(self, weights: tuple[float, ...], template_seed: int = 7,
                 config: Optional[WorkloadConfig] = None,
                 owner: str = "user") -> None:
        if not weights:
            raise ValueError("at least one template weight is required")
        if any(weight <= 0 for weight in weights):
            raise ValueError(f"weights must be positive, got {weights}")
        self.weights = tuple(weights)
        self.template_seed = template_seed
        self.config = config
        self.owner = owner
        streams = RandomStreams(template_seed)
        self.templates = [
            generate_job(streams.fork("template", t), t, config, owner)
            for t in range(len(weights))]
        # Materialize the hash once, so clones copy the value instead
        # of each re-hashing the template.
        for template in self.templates:
            template.structural_hash
        total = sum(weights)
        self.cumulative: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self.cumulative.append(acc)

    def __call__(self, rng: np.random.Generator, index: int) -> Job:
        draw = float(rng.random())
        chosen = self.templates[-1]
        for position, edge in enumerate(self.cumulative):
            if draw <= edge:
                chosen = self.templates[position]
                break
        return chosen.clone(f"job{index}", owner=self.owner)


def generate_workload(seed: int, n_jobs: int,
                      config: Optional[WorkloadConfig] = None,
                      owner: str = "user") -> Iterator[Job]:
    """Deterministic stream of ``n_jobs`` random jobs.

    Each job draws from its own forked stream, so job *k* is identical
    regardless of how many other jobs are consumed.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be non-negative, got {n_jobs}")
    streams = RandomStreams(seed)
    for index in range(n_jobs):
        yield generate_job(streams.fork("jobs", index), index, config, owner)
