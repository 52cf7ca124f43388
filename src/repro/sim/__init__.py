"""Discrete-event simulation substrate.

A compact process-interaction DES kernel (generators as processes), plus
a FIFO capacity resource and deterministic named random streams.  The
rest of the library builds its Grid, local-batch, and job-flow simulations
on top of this package.
"""

from .engine import EmptySchedule, Environment, StopSimulation
from .events import (
    NORMAL,
    PENDING,
    URGENT,
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Initialize,
    Interrupt,
    Process,
    StopProcess,
    Timeout,
)
from .resources import Release, Request, Resource
from .monitoring import Tally, TimeWeightedStat
from .rng import RandomStreams, stable_hash

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "StopProcess",
    "Initialize",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Resource",
    "Request",
    "Release",
    "RandomStreams",
    "stable_hash",
    "Tally",
    "TimeWeightedStat",
]
