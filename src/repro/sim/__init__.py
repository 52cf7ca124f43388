"""Discrete-event simulation substrate.

A compact process-interaction DES kernel (generators as processes,
timeouts, plain events, and an all-of condition), a FIFO capacity
resource, and deterministic named random streams.  The kernel is sized
to the online lane: :class:`~repro.flow.simulation.OnlineSimulation`
and its :class:`~repro.grid.node.NodeAgent` processes replay committed
schedules with actual durations on it.  The random streams seed every
workload, study, and benchmark in the library.
"""

from .engine import EmptySchedule, Environment, StopSimulation
from .events import (
    NORMAL,
    PENDING,
    URGENT,
    AllOf,
    Event,
    Initialize,
    Process,
    Timeout,
)
from .resources import Release, Request, Resource
from .rng import RandomStreams, stable_hash

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "Initialize",
    "AllOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Resource",
    "Request",
    "Release",
    "RandomStreams",
    "stable_hash",
]
