"""Grid environment substrate.

Models the distributed environment underneath the scheduling framework:
data-policy transfer timings, per-node reservation state with
background load, and deterministic execution replay (one job alone, or
every committed job sharing the nodes first come, first served).
"""

from .data import (
    RemoteAccessModel,
    ReplicationModel,
    StaticStorageModel,
    default_policy_models,
)
from .environment import BackgroundEvent, GridEnvironment
from .execution import (
    BookedJob,
    ExecutionTrace,
    TaskRun,
    replay_fcfs,
    simulate_execution,
)

__all__ = [
    "ReplicationModel",
    "RemoteAccessModel",
    "StaticStorageModel",
    "default_policy_models",
    "GridEnvironment",
    "BackgroundEvent",
    "ExecutionTrace",
    "TaskRun",
    "simulate_execution",
    "BookedJob",
    "replay_fcfs",
]
