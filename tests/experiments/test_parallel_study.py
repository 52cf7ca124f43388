"""Parallel study fan-out is bit-identical to the sequential path.

The studies seed every job from ``streams.fork(name, index)`` — a pure
function of ``(seed, name, index)`` — so generation order cannot leak
into results, and the process-pool runner merges per-job aggregates in
job order.  These tests pin the resulting guarantee: any worker count
yields exactly the sequential aggregates, field for field.
"""

import dataclasses

import pytest

from repro.core.strategy import StrategyType
from repro.experiments.study import (
    ApplicationStudyConfig,
    CoordinatedStudyConfig,
    application_level_study,
    coordinated_flow_study,
)
from repro.metrics.indices import StrategyAggregate
from repro.platform import effective_workers

APP_CONFIG = ApplicationStudyConfig(seed=7, n_jobs=6)
FLOW_CONFIG = CoordinatedStudyConfig(seed=7, n_jobs=4)


def assert_aggregates_identical(left, right):
    assert set(left) == set(right)
    for stype in left:
        a, b = left[stype], right[stype]
        assert a.jobs == b.jobs
        assert a.admissible_jobs == b.admissible_jobs
        assert a.generation_expense == b.generation_expense
        assert a.costs == b.costs
        assert a.makespans == b.makespans
        assert a.coverages == b.coverages
        assert a.collisions.by_group == b.collisions.by_group


@pytest.mark.parametrize("workers", [2, 4])
def test_application_study_parallel_matches_sequential(workers):
    sequential = application_level_study(APP_CONFIG, workers=1)
    parallel = application_level_study(APP_CONFIG, workers=workers)
    assert_aggregates_identical(sequential, parallel)


def test_coordinated_study_parallel_matches_sequential():
    sequential = coordinated_flow_study(FLOW_CONFIG, workers=1)
    parallel = coordinated_flow_study(FLOW_CONFIG, workers=2)
    assert set(sequential) == set(parallel)
    for stype in sequential:
        assert dataclasses.asdict(sequential[stype]) == \
            dataclasses.asdict(parallel[stype])


def test_more_workers_than_jobs_is_clamped_not_rejected():
    config = ApplicationStudyConfig(seed=7, n_jobs=2)
    sequential = application_level_study(config, workers=1)
    oversubscribed = application_level_study(config, workers=8)
    assert_aggregates_identical(sequential, oversubscribed)


def test_effective_workers_validation():
    assert effective_workers(1, 100) == 1
    assert effective_workers(16, 3) == 3  # clamped to the task count
    assert effective_workers(None, 100) >= 1  # one per CPU
    with pytest.raises(ValueError):
        effective_workers(0, 100)
    with pytest.raises(ValueError):
        effective_workers(-2, 100)


def test_aggregate_merge_rejects_family_mismatch():
    left = StrategyAggregate(stype=StrategyType.S1)
    right = StrategyAggregate(stype=StrategyType.S2)
    with pytest.raises(ValueError):
        left.merge(right)
