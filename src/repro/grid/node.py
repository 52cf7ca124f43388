"""Processor-node agents on the discrete-event simulation.

A :class:`NodeAgent` executes reserved tasks on the DES clock: a task
may not start before its wall-time reservation, runs for its *actual*
duration, and the node refuses overlapping executions (one task per
node, as in the paper's model where every task occupies a whole node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.resources import ProcessorNode
from ..sim import Environment, Resource

__all__ = ["CompletedRun", "NodeAgent"]


@dataclass(frozen=True)
class CompletedRun:
    """Record of one task execution on a node."""

    task_id: str
    node_id: int
    start: int
    end: int


class NodeAgent:
    """Couples a processor node to the simulation clock."""

    def __init__(self, sim: Environment, node: ProcessorNode):
        self.sim = sim
        self.node = node
        self._slot = Resource(sim, capacity=1)
        #: Chronological log of completed executions.
        self.completed: list[CompletedRun] = []

    def execute(self, task_id: str, not_before: float, duration: float):
        """Spawn a process running ``task_id``; returns its handle.

        The process waits until ``not_before`` (the reservation start),
        acquires the node, runs ``duration`` clock units, and records a
        :class:`CompletedRun`.  The process value is the completed run.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        return self.sim.process(self._run(task_id, not_before, duration))

    def _run(self, task_id: str, not_before: float, duration: float):
        if self.sim.now < not_before:
            yield self.sim.timeout(not_before - self.sim.now)
        with self._slot.request() as claim:
            yield claim
            started = self.sim.now
            yield self.sim.timeout(duration)
            run = CompletedRun(task_id=task_id, node_id=self.node.node_id,
                               start=int(started), end=int(self.sim.now))
            self.completed.append(run)
            return run

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of elapsed (or given) time spent executing tasks."""
        window = horizon if horizon is not None else self.sim.now
        if window <= 0:
            return 0.0
        busy = sum(run.end - run.start for run in self.completed)
        return busy / window
