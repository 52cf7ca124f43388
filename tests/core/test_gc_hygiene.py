"""Scheduling leaves no cyclic garbage behind.

Every DP call's state — its memo, candidate rows, closures, and the
calendar snapshots they reach — must be freed by reference counting the
moment the call returns.  A reference cycle anywhere on that path parks
all of it until a full collection walks it, which costs the online
workloads a large share of their wall time and peak memory.
"""

import gc

from repro.core.calendar import ReservationCalendar
from repro.core.dp import allocate_chain
from repro.core.job import DataTransfer, Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.strategy import StrategyGenerator, StrategyType
from repro.grid.environment import GridEnvironment
from repro.sim.rng import RandomStreams
from repro.workload.generator import generate_job, generate_pool

FAMILIES = (StrategyType.S1, StrategyType.S2, StrategyType.S3,
            StrategyType.MS1)


def _generate(generator, grid, streams, indices):
    for index in indices:
        job = generate_job(streams.fork("jobs", index), index)
        for stype in FAMILIES:
            generator.generate(job, grid.snapshot(), stype)


def _infeasible():
    """A chain whose deadline no node can meet (the DP returns None)."""
    job = Job("tight",
              [Task("A", volume=20, best_time=4),
               Task("B", volume=30, best_time=4)],
              [DataTransfer("D1", "A", "B")], deadline=5)
    pool = ResourcePool([ProcessorNode(node_id=1, performance=1.0),
                         ProcessorNode(node_id=2, performance=0.5)])
    calendars = {node.node_id: ReservationCalendar() for node in pool}
    return allocate_chain(job, ["A", "B"], pool, calendars, 5)


def test_generation_and_infeasible_dp_leave_no_cycles():
    streams = RandomStreams(7)
    pool = generate_pool(streams.stream("pool"))
    grid = GridEnvironment(pool)
    grid.apply_background_load(streams.stream("background"), 0.5, 400)
    generator = StrategyGenerator(pool)
    # Warm-up: imports and lazily built module state are not garbage.
    _generate(generator, grid, streams, [0])
    _infeasible()
    gc.collect()
    gc.disable()
    try:
        _generate(generator, grid, streams, range(1, 4))
        assert _infeasible() is None
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0, (
        f"{unreachable} objects were only reclaimable by the cyclic "
        f"collector")
