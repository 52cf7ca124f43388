"""Grid environment substrate.

Models the distributed environment underneath the scheduling framework:
data-policy transfer timings, per-node reservation state with
background load, deterministic execution replay, and DES node agents.
"""

from .data import (
    RemoteAccessModel,
    ReplicationModel,
    StaticStorageModel,
    default_policy_models,
)
from .environment import BackgroundEvent, GridEnvironment
from .execution import ExecutionTrace, TaskRun, simulate_execution
from .node import CompletedRun, NodeAgent

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
    "CompletedRun",
    "NodeAgent",
]
