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

    A model whose :meth:`task_cost` depends only on the placement's
    *duration*, never its start slot, may additionally provide
    ``duration_cost(task, duration, node) -> float``: the cost of a
    reservation of ``duration`` slots, with :meth:`task_cost`
    delegating to it so both share one formula.  The DP kernel
    (:func:`repro.core.dp.allocate_chain`) prices candidate rows
    through it, once per (task, node), and uses its presence as the
    declaration that costs are start-invariant, which bounding partial
    chains requires.  Models that price by wall-clock position
    (peak-hour tariffs, say) must not provide it.

    Such models may also provide ``task_cost_array(task, durations,
    nodes) -> np.ndarray`` — a vectorized ``duration_cost`` over
    per-node reservation lengths.  The DP uses it to price all of a
    task's candidate nodes in one sweep when pruning needs every row's
    price; the values must be **bit-identical** to elementwise
    ``duration_cost`` (same float operations in the same order),
    because pruning mixes the two.  Models without it are priced
    through the scalar method.

    Models are **immutable**: every pricing parameter is fixed at
    construction.  The DP keeps each job's row prices in the session
    context's task table scoped by the model's identity (see
    :class:`~repro.core.context.TaskTable`), so a model whose prices
    could change after construction would be served stale prices.
    """

    def task_cost(self, task: Task, placement: Placement,
                  node: ProcessorNode) -> float:
        """Cost of running ``task`` under ``placement`` on ``node``."""
        ...  # pragma: no cover - protocol


class VolumeOverTimeCost:
    """The paper's ``CF`` term: ``ceil(V_i / T_i)``."""

    # Slots make the model immutable; the weak reference lets a
    # session context scope caches by the model's identity.
    __slots__ = ("__weakref__",)

    def duration_cost(self, task: Task, duration: int,
                      node: ProcessorNode) -> float:
        """``ceil(V_i / T_i)`` — the paper's per-task CF term, which
        reads only the reservation length."""
        return ceil_div(task.volume, duration)

    def task_cost(self, task: Task, placement: Placement,
                  node: ProcessorNode) -> float:
        """The CF term of the placement's reservation length."""
        return self.duration_cost(task, placement.duration, node)

    def task_cost_array(self, task: Task, durations: np.ndarray,
                        nodes: Sequence[ProcessorNode]) -> np.ndarray:
        """Vectorized :meth:`duration_cost` — same float ops as
        ``ceil_div``."""
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

    __slots__ = ("_cf_weight", "__weakref__")

    def __init__(self, cf_weight: float = 2.5):
        if cf_weight < 0:
            raise ValueError(
                f"cf_weight must be non-negative, got {cf_weight}")
        self._cf_weight = cf_weight

    @property
    def cf_weight(self) -> float:
        """The CF term's weight (read-only: cost models are immutable)."""
        return self._cf_weight

    def duration_cost(self, task: Task, duration: int,
                      node: ProcessorNode) -> float:
        """Reserved wall time plus the weighted CF term — both
        functions of the duration alone."""
        return duration + self.cf_weight * ceil_div(task.volume, duration)

    def task_cost(self, task: Task, placement: Placement,
                  node: ProcessorNode) -> float:
        """The balanced cost of the placement's reservation length."""
        return self.duration_cost(task, placement.duration, node)

    def task_cost_array(self, task: Task, durations: np.ndarray,
                        nodes: Sequence[ProcessorNode]) -> np.ndarray:
        """Vectorized :meth:`duration_cost` (durations + weighted CF
        term)."""
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
