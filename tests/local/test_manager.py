"""Unit tests for the local resource manager."""

import pytest

from repro.core.calendar import ReservationCalendar
from repro.core.resources import ProcessorNode, ResourcePool
from repro.local.manager import (
    Grant,
    LocalResourceManager,
    RequestRefused,
)
from repro.local.request import ResourceRequest


def make_manager():
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=0.5),
        ProcessorNode(node_id=3, performance=0.33),
    ])
    return LocalResourceManager(pool)


def test_construction_validation():
    with pytest.raises(ValueError):
        LocalResourceManager(ResourcePool())
    pool = ResourcePool([ProcessorNode(node_id=1, performance=1.0)])
    with pytest.raises(ValueError, match="no calendars"):
        LocalResourceManager(pool, calendars={})


def test_grant_prefers_cheapest_admissible_node():
    manager = make_manager()
    grant = manager.handle(ResourceRequest("r1", wall_time=4))
    # Cheapest = slowest (price ∝ performance).
    assert grant.node_id == 3
    assert (grant.start, grant.end) == (0, 4)


def test_min_performance_constrains_choice():
    manager = make_manager()
    grant = manager.handle(
        ResourceRequest("r1", wall_time=4, min_performance=0.4))
    assert grant.node_id == 2


def test_advance_reservation_at_fixed_start():
    manager = make_manager()
    request = ResourceRequest("r1", wall_time=5, earliest_start=10,
                              reserved_start=10)
    grant = manager.handle(request)
    assert (grant.start, grant.end) == (10, 15)
    # The same window is now busy on that node.
    assert not manager.calendars[grant.node_id].is_free(10, 15)


def test_node_id_attribute_binds_the_request():
    manager = make_manager()
    grant = manager.handle(ResourceRequest(
        "r1", wall_time=3, attributes={"node_id": 2}))
    assert grant.node_id == 2
    # The bound node being busy refuses the request outright.
    manager.calendars[2].reserve(3, 100, "background")
    with pytest.raises(RequestRefused):
        manager.handle(ResourceRequest(
            "r2", wall_time=3, reserved_start=10, earliest_start=10,
            attributes={"node_id": 2}))


def test_busy_windows_push_start_or_move_node():
    manager = make_manager()
    manager.calendars[3].reserve(0, 100, "background")
    # Without a deadline the cheapest node still wins, just later.
    late = manager.handle(ResourceRequest("r1", wall_time=4))
    assert late.node_id == 3
    assert late.start == 100
    # With a deadline the request moves to the next cheapest node.
    tight = manager.handle(ResourceRequest("r2", wall_time=4, deadline=20))
    assert tight.node_id == 2


def test_deadline_refusal():
    manager = make_manager()
    for calendar in manager.calendars.values():
        calendar.reserve(0, 50, "background")
    with pytest.raises(RequestRefused):
        manager.handle(ResourceRequest("r1", wall_time=10, deadline=40))


def test_width_refused():
    manager = make_manager()
    with pytest.raises(RequestRefused, match="width"):
        manager.handle(ResourceRequest("wide", width=2, wall_time=2))


def test_duplicate_request_id_rejected():
    manager = make_manager()
    manager.handle(ResourceRequest("r1", wall_time=2))
    with pytest.raises(ValueError, match="already granted"):
        manager.handle(ResourceRequest("r1", wall_time=2))


def test_release_frees_window():
    manager = make_manager()
    grant = manager.handle(ResourceRequest("r1", wall_time=4))
    assert manager.grant_of("r1") == grant
    manager.release("r1")
    assert manager.grant_of("r1") is None
    assert manager.calendars[grant.node_id].is_free(grant.start, grant.end)
    with pytest.raises(KeyError):
        manager.release("r1")


def test_handle_all_is_atomic():
    manager = make_manager()
    good = ResourceRequest("a", wall_time=2)
    impossible = ResourceRequest("b", wall_time=2,
                                 attributes={"node_id": 99})
    with pytest.raises(RequestRefused):
        manager.handle_all([good, impossible])
    # The first grant was rolled back.
    assert manager.grant_of("a") is None
    assert all(len(calendar) == 0
               for calendar in manager.calendars.values())


def test_handle_all_success():
    manager = make_manager()
    grants = manager.handle_all([
        ResourceRequest("a", wall_time=2),
        ResourceRequest("b", wall_time=2),
    ])
    assert len(grants) == 2
    assert manager.utilization(0, 10) > 0


def test_grants_from_job_manager_requests():
    """End-to-end: a supporting schedule's requests land as grants."""
    from repro.core.calendar import ReservationCalendar as Calendar
    from repro.core.strategy import StrategyGenerator, StrategyType
    from repro.flow.manager import JobManager
    from repro.workload.paper_example import fig2_job, fig2_pool

    pool = fig2_pool()
    job_manager = JobManager("default", pool)
    calendars = {n.node_id: Calendar() for n in pool}
    strategy = job_manager.plan(fig2_job(), calendars, StrategyType.S1)
    requests = job_manager.resource_requests(strategy)

    local = LocalResourceManager(pool)
    grants = local.handle_all(requests)
    chosen = strategy.best_schedule()
    for grant in grants:
        task_id = grant.request_id.split(":", 1)[1]
        placement = chosen.distribution.placement(task_id)
        assert grant.start == placement.start
        assert grant.end == placement.end
