"""The paper's primary contribution: application-level scheduling with
the critical works method, and strategies as sets of supporting schedules.
"""

from .calendar import Reservation, ReservationCalendar, ReservationConflict
from .collisions import Collision, CollisionStats
from .costs import CostModel, VolumeOverTimeCost, distribution_cost
from .critical_works import CriticalWorksScheduler, SchedulingOutcome
from .dp import ChainAllocation, allocate_chain
from .granularity import coarsen
from .job import DataTransfer, Job, JobValidationError, Task
from .resources import (
    FIG2_TYPE_PERFORMANCES,
    NodeGroup,
    ProcessorNode,
    ResourcePool,
    classify_performance,
)
from .schedule import (
    Distribution,
    Placement,
    ScheduleViolation,
    check_distribution,
)
from .strategy import (
    STRATEGY_SPECS,
    DataPolicyKind,
    Strategy,
    StrategyGenerator,
    StrategySpec,
    StrategyType,
    SupportingSchedule,
)
from .transfers import NeutralTransferModel, TransferModel, transfer_time_fn

__all__ = [
    "Task",
    "DataTransfer",
    "Job",
    "JobValidationError",
    "ProcessorNode",
    "ResourcePool",
    "NodeGroup",
    "classify_performance",
    "FIG2_TYPE_PERFORMANCES",
    "Reservation",
    "ReservationCalendar",
    "ReservationConflict",
    "Placement",
    "Distribution",
    "ScheduleViolation",
    "check_distribution",
    "CostModel",
    "VolumeOverTimeCost",
    "distribution_cost",
    "TransferModel",
    "NeutralTransferModel",
    "transfer_time_fn",
    "ChainAllocation",
    "allocate_chain",
    "CriticalWorksScheduler",
    "SchedulingOutcome",
    "Collision",
    "CollisionStats",
    "coarsen",
    "StrategyType",
    "StrategySpec",
    "STRATEGY_SPECS",
    "DataPolicyKind",
    "Strategy",
    "StrategyGenerator",
    "SupportingSchedule",
]
