"""Discrete-event simulation substrate.

A compact process-interaction DES kernel (generators as processes,
timeouts, run to exhaustion) and deterministic named random streams.
The kernel is sized to the online lane:
:class:`~repro.flow.simulation.OnlineSimulation` runs its arrivals and
deferred commits on it, and replays execution afterwards without it.
The random streams seed every workload, study, and benchmark in the
library.
"""

from .engine import Environment
from .rng import RandomStreams, stable_hash

__all__ = [
    "Environment",
    "RandomStreams",
    "stable_hash",
]
