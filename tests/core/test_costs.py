"""Unit tests for the CF cost function and cost models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.costs import (BalancedTimeCost, VolumeOverTimeCost,
                              distribution_cost)
from repro.core.job import DataTransfer, Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.schedule import Distribution, Placement


def fig2_like_job():
    return Job(
        "j",
        [Task("P1", volume=20, best_time=2),
         Task("P2", volume=30, best_time=3)],
        [DataTransfer("D1", "P1", "P2")],
        deadline=20,
    )


def pool():
    return ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=0.5),
    ])


def test_volume_over_time_is_ceil_of_quotient():
    model = VolumeOverTimeCost()
    task = Task("t", volume=10, best_time=1)
    node = ProcessorNode(node_id=1, performance=1.0)
    assert model.task_cost(task, Placement("t", 1, 0, 3), node) == 4
    assert model.task_cost(task, Placement("t", 1, 0, 5), node) == 2


def test_faster_node_costs_more_under_cf():
    """The paper's economics: shorter real load time => higher cost."""
    model = VolumeOverTimeCost()
    task = Task("t", volume=20, best_time=2)
    fast = ProcessorNode(node_id=1, performance=1.0)
    slow = ProcessorNode(node_id=2, performance=0.5)
    fast_cost = model.task_cost(
        task, Placement("t", 1, 0, task.duration_on(1.0)), fast)
    slow_cost = model.task_cost(
        task, Placement("t", 2, 0, task.duration_on(0.5)), slow)
    assert fast_cost > slow_cost


def test_distribution_cost_sums_task_costs():
    job = fig2_like_job()
    dist = Distribution("j", [
        Placement("P1", 1, 0, 2),   # 20/2 = 10
        Placement("P2", 1, 3, 6),   # 30/3 = 10
    ])
    assert distribution_cost(dist, job, pool()) == 20


def test_cost_models_are_immutable():
    """The DP scopes cached row prices by the cost model's identity,
    so no pricing parameter may change after construction."""
    balanced = BalancedTimeCost(1.5)
    with pytest.raises(AttributeError):
        balanced.cf_weight = 3.0
    assert balanced.cf_weight == 1.5
    with pytest.raises(AttributeError):
        VolumeOverTimeCost().scale = 2.0


@given(st.floats(0.5, 500.0, allow_nan=False), st.integers(1, 400),
       st.sampled_from([1.0, 0.5, 1 / 3]), st.integers(0, 50))
def test_task_cost_is_duration_cost_of_the_reservation(volume, duration,
                                                        performance, start):
    """Both built-in models price a placement by its duration alone:
    ``task_cost`` equals ``duration_cost`` of the reservation length,
    wherever it starts (the DP prices rows through ``duration_cost``)."""
    task = Task("T", volume=volume, best_time=1)
    node = ProcessorNode(node_id=1, performance=performance)
    placement = Placement("T", 1, start, start + duration)
    for model in (VolumeOverTimeCost(), BalancedTimeCost(),
                  BalancedTimeCost(0.0)):
        assert model.task_cost(task, placement, node) == (
            model.duration_cost(task, duration, node))
