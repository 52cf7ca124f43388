"""Reproduction of Toporkov, "Application-Level and Job-Flow
Scheduling: An Approach for Achieving Quality of Service in Distributed
Computing" (PaCT 2009).

Packages
--------
``repro.sim``
    Discrete-event simulation kernel (processes, timeouts) and named
    RNG streams.
``repro.core``
    The paper's contribution: compound jobs, reservation calendars, the
    critical works method, and strategies as sets of supporting schedules.
``repro.grid``
    Environment substrate: data policies, background load, execution
    replay.
``repro.local``
    Local batch-job management systems (FCFS, LWF, backfilling, gang,
    advance reservations).
``repro.flow``
    Job-flow level: metascheduler, domain job managers, reallocation,
    VO economics.
``repro.baselines``
    Comparison schedulers (independent-task heuristics, HEFT, greedy).
``repro.workload``
    Random workloads per Section 4 and the exact Fig. 2 example.
``repro.experiments``
    One runnable experiment per table/figure of the paper.
"""

from .core import (
    CriticalWorksScheduler,
    DataTransfer,
    Distribution,
    Job,
    Placement,
    ProcessorNode,
    ResourcePool,
    Strategy,
    StrategyGenerator,
    StrategyType,
    Task,
)
from .flow import Metascheduler, VirtualOrganization

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Task",
    "DataTransfer",
    "Job",
    "ProcessorNode",
    "ResourcePool",
    "Placement",
    "Distribution",
    "CriticalWorksScheduler",
    "Strategy",
    "StrategyGenerator",
    "StrategyType",
    "Metascheduler",
    "VirtualOrganization",
]
