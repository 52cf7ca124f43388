"""Local batch-job management systems.

A queue simulator with pluggable policies (FCFS — the paper's Section 4
setting — plus the Section 5 alternatives: LWF, EASY and conservative
backfilling, gang scheduling), advance reservations, wall-time-based
planning, and start-time forecasting."""

from .batch import (
    AdvanceReservation,
    JobRecord,
    LocalBatchSystem,
    QueuedJob,
)
from .policies import (
    AgedPriorityPolicy,
    ConservativeBackfillPolicy,
    EasyBackfillPolicy,
    FCFSPolicy,
    GangPolicy,
    LWFPolicy,
    QueuePolicy,
)
from .manager import Grant, LocalResourceManager, RequestRefused
from .profile import AvailabilityProfile
from .request import ResourceRequest

__all__ = [
    "LocalBatchSystem",
    "JobRecord",
    "QueuedJob",
    "AdvanceReservation",
    "QueuePolicy",
    "FCFSPolicy",
    "LWFPolicy",
    "EasyBackfillPolicy",
    "ConservativeBackfillPolicy",
    "AgedPriorityPolicy",
    "GangPolicy",
    "AvailabilityProfile",
    "ResourceRequest",
    "LocalResourceManager",
    "Grant",
    "RequestRefused",
]
