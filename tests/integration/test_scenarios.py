"""Scenario tests: canonical job shapes through the whole stack."""

import pytest

from repro.core import (
    CriticalWorksScheduler,
    ReservationCalendar,
    StrategyGenerator,
    StrategyType,
)
from repro.core.costs import distribution_cost
from repro.local import LocalResourceManager, ResourceRequest
from repro.viz import render_distribution
from repro.workload.paper_example import fig2_pool
from repro.workload.shapes import chain_job, fork_join_job, intree_job


@pytest.fixture()
def pool():
    return fig2_pool()


def empty_calendars(pool):
    return {node.node_id: ReservationCalendar() for node in pool}


def test_chain_schedules_without_collisions(pool):
    """A pure pipeline has one critical work and nothing to collide."""
    outcome = CriticalWorksScheduler(pool).build_schedule(
        chain_job(length=5), empty_calendars(pool))
    assert outcome.admissible
    assert outcome.collisions == []


def test_fork_join_collides_and_resolves(pool):
    """Parallel branches compete for the best nodes; the method must
    resolve every conflict into a valid schedule."""
    job = fork_join_job(width=4)
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, empty_calendars(pool))
    assert outcome.admissible
    assert outcome.collisions  # branches contend for the cheap nodes
    assert outcome.distribution.internal_overlaps() == []


def test_intree_reduction_schedules(pool):
    outcome = CriticalWorksScheduler(pool).build_schedule(
        intree_job(depth=2), empty_calendars(pool))
    assert outcome.admissible
    assert len(outcome.distribution) == 7


@pytest.mark.parametrize("stype", list(StrategyType))
def test_every_family_handles_every_shape(pool, stype):
    generator = StrategyGenerator(pool)
    calendars = empty_calendars(pool)
    for job in (chain_job(), fork_join_job(), intree_job()):
        strategy = generator.generate(job, calendars, stype)
        assert strategy.admissible, (stype, job.job_id)


def test_schedule_renders_and_grants_end_to_end(pool):
    """Plan → render → submit as resource requests → grants align."""
    job = fork_join_job(width=3)
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, empty_calendars(pool))
    text = render_distribution(outcome.distribution, pool)
    for task_id in job.tasks:
        assert task_id[:2] in text  # labels may truncate to block width

    manager = LocalResourceManager(pool)
    requests = [
        ResourceRequest.from_placement(job.job_id, placement)
        for placement in outcome.distribution
    ]
    grants = manager.handle_all(requests)
    assert len(grants) == len(job)
    booked = sum(len(calendar) for calendar in manager.calendars.values())
    assert booked == len(job)
    # Grants mirror the planned wall-time windows exactly.
    for grant in grants:
        task_id = grant.request_id.split(":", 1)[1]
        placement = outcome.distribution.placement(task_id)
        assert (grant.start, grant.end) == (placement.start, placement.end)


def test_cost_monotone_in_granularity(pool):
    """Coarsening a fork-join never raises the CF of the best schedule
    (the S3 economics in miniature)."""
    from repro.core.granularity import coarsen

    job = fork_join_job(width=3, deadline=200)
    calendars = empty_calendars(pool)
    scheduler = CriticalWorksScheduler(pool)
    fine = scheduler.build_schedule(job, calendars)
    merged = coarsen(job, target_tasks=1, aggressive=True)
    assert len(merged) == 1
    coarse = scheduler.build_schedule(merged, calendars)
    assert fine.admissible and coarse.admissible
    fine_cost = distribution_cost(fine.distribution, job, pool)
    coarse_cost = distribution_cost(coarse.distribution, merged, pool)
    assert coarse_cost <= fine_cost
