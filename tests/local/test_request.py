"""Unit tests for resource requests."""

import pytest

from repro.core.resources import ProcessorNode
from repro.core.schedule import Placement
from repro.local.request import ResourceRequest


def test_validation():
    with pytest.raises(ValueError):
        ResourceRequest("r", width=0)
    with pytest.raises(ValueError):
        ResourceRequest("r", wall_time=0)
    with pytest.raises(ValueError):
        ResourceRequest("r", earliest_start=-1)
    with pytest.raises(ValueError):
        ResourceRequest("r", earliest_start=5, reserved_start=3)
    with pytest.raises(ValueError):
        ResourceRequest("r", wall_time=10, deadline=5)
    with pytest.raises(ValueError):
        ResourceRequest("r", min_performance=1.5)


def test_deadline_accounts_for_reserved_start():
    with pytest.raises(ValueError):
        ResourceRequest("r", wall_time=5, reserved_start=10, deadline=12)
    request = ResourceRequest("r", wall_time=5, reserved_start=10,
                              deadline=15)
    assert request.deadline == 15


def test_from_placement_is_advance_reservation():
    placement = Placement("P1", 3, 10, 16)
    request = ResourceRequest.from_placement("job1", placement, owner="u")
    assert request.request_id == "job1:P1"
    assert request.width == 1
    assert request.wall_time == 6
    assert request.reserved_start == 10
    assert request.attributes["node_id"] == 3
    assert request.owner == "u"


def test_admits_performance_constraint():
    request = ResourceRequest("r", min_performance=0.5)
    assert request.admits(ProcessorNode(node_id=1, performance=0.7))
    assert not request.admits(ProcessorNode(node_id=2, performance=0.33))
    assert ResourceRequest("r").admits(
        ProcessorNode(node_id=3, performance=0.1))


def test_to_batch_job():
    request = ResourceRequest("r", width=2, wall_time=8, earliest_start=4)
    batch = request.to_batch_job()
    assert batch.arrival == 4
    assert batch.width == 2
    assert batch.estimate == 8
    assert batch.runtime == 8
    shorter = request.to_batch_job(arrival=6, runtime=5)
    assert shorter.arrival == 6
    assert shorter.runtime == 5
    assert shorter.estimate == 8
