"""Job managers: the middle tier of the Fig. 1 hierarchy.

A job manager controls one domain — a group of processor nodes "with
the similar architecture, contents, administrating policy" — and builds
and maintains scheduling strategies for the jobs the metascheduler
routes to it, cooperating with the (simulated) local batch systems via
resource requests.  Managers keep no per-job state: the strategies they
build are reused through the flow layer's plan cache
(:func:`~repro.flow.sharding.plan_with_cache`), which bounds how many
are retained.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..core.calendar import ReservationCalendar
from ..core.context import SchedulingContext
from ..core.costs import CostModel
from ..core.job import Job
from ..core.resources import ResourcePool
from ..core.strategy import (
    DataPolicyKind,
    Strategy,
    StrategyGenerator,
    StrategyType,
)
from ..core.transfers import TransferModel
from ..local.request import ResourceRequest

__all__ = ["JobManager"]


class JobManager:
    """Strategy planner for one domain of the virtual organization.

    Parameters
    ----------
    domain:
        The domain name this manager administers.
    pool:
        The *whole* VO pool; the manager plans only on its domain's
        nodes (all nodes when the pool has a single domain).
    """

    def __init__(self, domain: str, pool: ResourcePool,
                 policy_models: Optional[Mapping[DataPolicyKind,
                                                 TransferModel]] = None,
                 cost_model: Optional[CostModel] = None,
                 context: Optional[SchedulingContext] = None):
        self.domain = domain
        nodes = pool.by_domain(domain)
        if not nodes:
            raise ValueError(f"domain {domain!r} has no nodes")
        #: The manager's own slice of the VO resources.
        self.pool = ResourcePool(list(nodes))
        self.generator = StrategyGenerator(self.pool, policy_models,
                                           cost_model, context=context)

    def plan(self, job: Job,
             calendars: Mapping[int, ReservationCalendar],
             stype: StrategyType, release: int = 0) -> Strategy:
        """Build a strategy for a job on this domain.

        ``calendars`` may cover the whole VO; only this domain's node
        calendars are consulted.
        """
        local = {node.node_id: calendars[node.node_id]
                 for node in self.pool}
        return self.generator.generate(job, local, stype, release=release)

    def resource_requests(self, strategy: Strategy) -> list[ResourceRequest]:
        """The requests sent to local batch systems for the chosen
        supporting schedule (one advance reservation per task)."""
        chosen = strategy.best_schedule()
        if chosen is None or chosen.distribution is None:
            return []
        return [
            ResourceRequest.from_placement(strategy.job.job_id, placement,
                                           owner=strategy.job.owner)
            for placement in chosen.distribution
        ]
