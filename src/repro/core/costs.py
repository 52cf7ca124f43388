"""Cost functions over distributions.

The paper's cost function (Section 3) is::

    CF = Σ_i ceil(V_ij / T_i)

where ``V_ij`` is task *i*'s relative computation volume and ``T_i`` the
real load time of the chosen node (the reserved wall time), rounded "to
the nearest not-smaller integer".  A shorter reservation — a faster node,
or an earlier finish — therefore costs more, implementing the economic
principle that the user pays extra for more powerful resources.

Costs are in conventional quota units, not real money, matching the
paper's corporate non-commercial virtual organizations.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .job import Job, Task
from .resources import ProcessorNode, ResourcePool
from .schedule import Distribution, Placement
from .units import EPSILON, ceil_div

__all__ = [
    "CostModel",
    "VolumeOverTimeCost",
    "BalancedTimeCost",
    "distribution_cost",
]


class CostModel(Protocol):
    """Anything that can price a single task placement.

    A model may additionally declare ``time_invariant = True`` to state
    that :meth:`task_cost` depends only on the placement's *duration*,
    never its start slot.  The DP kernel uses the declaration to price
    candidate rows once and to bound partial chains during warm-started
    search (:func:`repro.core.dp.allocate_chain`); models that price by
    wall-clock position (peak-hour tariffs, say) must leave it unset.

    Time-invariant models may also provide ``task_cost_array(task,
    durations, nodes) -> np.ndarray`` — a vectorized :meth:`task_cost`
    over per-node reservation lengths.  The DP uses it to price a
    task's whole candidate row set in one sweep when warm-started
    pruning needs every row's price; the values must be
    **bit-identical** to elementwise ``task_cost`` (same float
    operations in the same order), because warm-started pruning mixes
    the two.  Models without it are priced through the scalar method.

    Finally, a model may expose ``price_key`` — a hashable value that,
    together with ``(task.volume, reservation duration, node id)``,
    fully determines :meth:`task_cost`.  Declaring it lets the DP memo
    row prices *across* calls in the session context (template-derived
    siblings re-price the same (volume, duration, node) triples on
    every replan); the key must change whenever a pricing parameter
    does, so stateful models expose it as a property over their state.
    Models without the attribute are priced per call.
    """

    def task_cost(self, task: Task, placement: Placement,
                  node: ProcessorNode) -> float:
        """Cost of running ``task`` under ``placement`` on ``node``."""
        ...  # pragma: no cover - protocol


class VolumeOverTimeCost:
    """The paper's ``CF`` term: ``ceil(V_i / T_i)``."""

    #: ``ceil(V_i / T_i)`` reads only the reservation length.
    time_invariant = True
    #: Stateless: the cost is a pure function of (volume, duration).
    price_key = ("cf",)

    def task_cost(self, task: Task, placement: Placement,
                  node: ProcessorNode) -> float:
        """``ceil(V_i / T_i)`` — the paper's per-task CF term."""
        return ceil_div(task.volume, placement.duration)

    def task_cost_array(self, task: Task, durations: np.ndarray,
                        nodes: Sequence[ProcessorNode]) -> np.ndarray:
        """Vectorized :meth:`task_cost` — same float ops as ``ceil_div``."""
        return np.ceil(task.volume / durations - EPSILON)


class BalancedTimeCost:
    """The S2 family's multicriteria objective: occupancy plus CF.

    S2 is the paper's "fastest, most expensive and most accurate"
    family: its users optimize execution speed but still operate inside
    the VO economy.  The criterion charges the reserved wall time (so
    fast nodes with tight reservations win) plus ``cf_weight`` times the
    economic CF term (so the cheapest of equally fast options wins).
    The default weight was calibrated so the Fig. 3b collision split
    lands near the paper's 56/44 (see EXPERIMENTS.md).
    """

    #: Wall time plus CF — both functions of the duration alone.
    time_invariant = True

    def __init__(self, cf_weight: float = 2.5):
        if cf_weight < 0:
            raise ValueError(
                f"cf_weight must be non-negative, got {cf_weight}")
        self.cf_weight = cf_weight

    @property
    def price_key(self) -> tuple:
        """Cross-call price-memo scope: tracks the live weight."""
        return ("balanced", self.cf_weight)

    def task_cost(self, task: Task, placement: Placement,
                  node: ProcessorNode) -> float:
        """Reserved wall time plus the weighted CF term."""
        return (placement.duration
                + self.cf_weight * ceil_div(task.volume, placement.duration))

    def task_cost_array(self, task: Task, durations: np.ndarray,
                        nodes: Sequence[ProcessorNode]) -> np.ndarray:
        """Vectorized :meth:`task_cost` (durations + weighted CF term)."""
        return (durations
                + self.cf_weight * np.ceil(task.volume / durations - EPSILON))


def distribution_cost(distribution: Distribution, job: Job,
                      pool: ResourcePool,
                      model: CostModel | None = None) -> float:
    """Total cost of a distribution under a cost model (default: CF)."""
    if model is None:
        model = VolumeOverTimeCost()
    total = 0.0
    for placement in distribution:
        task = job.task(placement.task_id)
        node = pool.node(placement.node_id)
        total += model.task_cost(task, placement, node)
    return total
