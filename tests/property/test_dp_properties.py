"""Property-based tests for the DP allocator and the critical works method."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.calendar import ReservationCalendar
from repro.core.context import SchedulingContext
from repro.core.costs import BalancedTimeCost, VolumeOverTimeCost
from repro.core.critical_works import CriticalWorksScheduler
from repro.core.dp import allocate_chain
from repro.core.job import DataTransfer, Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.analysis.verify import verify_strategy
from repro.core.schedule import Placement, check_distribution
from repro.core.strategy import (STRATEGY_SPECS, StrategyGenerator,
                                 StrategyType)
from repro.core.transfers import NeutralTransferModel, transfer_time_fn
from repro.core.units import ceil_div
from repro.grid.data import ReplicationModel, default_policy_models
from repro.perf import PERF
from repro.workload.generator import generate_job

task_specs = st.tuples(st.integers(1, 4),       # base time
                       st.integers(1, 40),      # volume
                       st.integers(0, 3))       # outgoing transfer's base time
chain_specs = st.lists(task_specs, min_size=1, max_size=4)
#: Widest pool drawn: past the dozen-node mark, so whole-pool widths are
#: checked against the exhaustive reference, not just toy pools.
MAX_POOL = 14
#: Chains on pools wider than this are capped at three tasks, keeping
#: the exhaustive search (pool size ** chain length) cheap.
WIDE_POOL = 6
#: Examples per exhaustive-reference check: 60 under the library's
#: default profile (100 examples), ten times that under the ``dp-deep``
#: profile registered in tests/conftest.py.
BRUTE_FORCE_EXAMPLES = settings.default.max_examples * 3 // 5
#: Examples per family of the skip-edge check: 40 by default, 400 under
#: ``dp-deep``.
SKIP_EDGE_EXAMPLES = settings.default.max_examples * 2 // 5


class PairwiseLagModel:
    """A transfer model without ``uniform_lag``: every node pair has
    its own lag, so the DP takes its per-pair lag path."""

    def time(self, transfer, src_node, dst_node):
        if src_node.node_id == dst_node.node_id:
            return 0
        return transfer.base_time * ((src_node.node_id
                                      + 2 * dst_node.node_id) % 3)

    def estimate(self, transfer):
        return transfer.base_time


#: The timing models the exhaustive check runs under: the neutral
#: model and replication (both uniform-lag) and a pairwise model.
TRANSFER_MODELS = {"neutral": NeutralTransferModel(),
                   "replication": ReplicationModel(),
                   "pairwise": PairwiseLagModel()}


@st.composite
def loaded_pools(draw):
    """A pool of up to ``MAX_POOL`` nodes with pre-loaded calendars.

    Half the draws are small pools, half whole-pool widths (a dozen
    nodes or more), so both regimes get examples.
    """
    size = draw(st.one_of(st.integers(1, WIDE_POOL),
                          st.integers(12, MAX_POOL)))
    performances = draw(st.lists(st.sampled_from([1.0, 0.5, 1 / 3]),
                                 min_size=size, max_size=size))
    pool = ResourcePool([ProcessorNode(node_id=i + 1, performance=p)
                         for i, p in enumerate(performances)])
    calendars = {}
    for node in pool:
        calendar = ReservationCalendar()
        cursor = 0
        busy = draw(st.lists(st.tuples(st.integers(0, 6),    # idle gap
                                       st.integers(1, 5)),   # busy span
                             max_size=4))
        for gap, length in busy:
            cursor += gap
            calendar.reserve(cursor, cursor + length, tag="bg")
            cursor += length
        calendars[node.node_id] = calendar
    return pool, calendars


def build_chain_job(specs, deadline):
    tasks = [Task(f"T{i}", volume=v, best_time=b)
             for i, (b, v, _) in enumerate(specs)]
    transfers = [DataTransfer(f"D{i}", f"T{i}", f"T{i+1}", base_time=lag)
                 for i, (_, _, lag) in enumerate(specs[:-1])]
    return Job("chain", tasks, transfers, deadline=deadline)


def brute_force(job, chain, pool, calendars, deadline, release,
                transfer_model, objective):
    """The DP's whole answer by exhaustive search: ``(cost, finish,
    placements)`` of the best node sequence, or None if none fits.

    For a fixed node sequence, taking each task's earliest fit is
    optimal: an earlier end never shrinks what later tasks can reach,
    and the cost model is start-invariant.  Costs are summed last task
    to first, as the DP's recursion sums them, so equal answers are
    equal bit for bit.  Sequences are enumerated in pool order and only
    a strictly better rank replaces the best: the DP's own tie-break,
    which keeps the first node in pool order at every position.
    """
    cost_model = VolumeOverTimeCost()
    best = best_rank = None
    for nodes in itertools.product(list(pool), repeat=len(chain)):
        ready, previous, placements = release, None, []
        for position, (task_id, node) in enumerate(zip(chain, nodes)):
            lag = 0
            if previous is not None:
                lag = transfer_model.time(
                    job.transfer_between(chain[position - 1], task_id),
                    previous, node)
            duration = job.task(task_id).duration_on(node.performance)
            start = calendars[node.node_id].earliest_fit(
                duration, earliest=ready + lag, deadline=deadline)
            if start is None:
                break
            placements.append(
                Placement(task_id, node.node_id, start, start + duration))
            ready = start + duration
            previous = node
        else:
            cost = 0.0
            for placement, node in zip(reversed(placements),
                                       reversed(nodes)):
                cost = cost_model.task_cost(
                    job.task(placement.task_id), placement, node) + cost
            rank = ((cost, ready) if objective == "cost"
                    else (ready, cost))
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, (cost, ready, placements)
    return best


@given(chain_specs, loaded_pools(), st.integers(3, 40), st.integers(0, 5),
       st.sampled_from(sorted(TRANSFER_MODELS)),
       st.sampled_from(["cost", "time"]))
@settings(max_examples=BRUTE_FORCE_EXAMPLES, deadline=None)
def test_dp_matches_brute_force(specs, loaded, deadline, release,
                                model_name, objective):
    """The DP returns exactly the exhaustive search's answer — cost,
    finish and placements — feasible or not.
    Pruned searches are checked here against the only unpruned one."""
    pool, calendars = loaded
    if len(pool) > WIDE_POOL:
        specs = specs[:3]
    job = build_chain_job(specs, deadline)
    chain = list(job.tasks)
    model = TRANSFER_MODELS[model_name]
    result = allocate_chain(job, chain, pool, calendars, deadline,
                            transfer_model=model, release=release,
                            objective=objective)
    expected = brute_force(job, chain, pool, calendars, deadline, release,
                           model, objective)
    if expected is None:
        assert result is None
    else:
        assert result is not None
        assert (result.cost, result.finish, result.placements) == expected


@given(st.lists(task_specs, min_size=2, max_size=4),
       loaded_pools(), st.integers(8, 60), st.integers(0, 5),
       st.sampled_from(sorted(TRANSFER_MODELS)),
       st.sampled_from(["cost", "time"]))
@settings(max_examples=BRUTE_FORCE_EXAMPLES, deadline=None)
def test_feasible_chain_search_always_has_an_incumbent(
        specs, loaded, deadline, release, model_name, objective):
    """On a feasible multi-task chain under a start-invariant cost
    model, the greedy descent never dead-ends and the pruned search
    never falls back to an unpruned pass."""
    pool, calendars = loaded
    job = build_chain_job(specs, deadline)
    chain = list(job.tasks)
    model = TRANSFER_MODELS[model_name]
    with PERF.collecting() as registry:
        result = allocate_chain(job, chain, pool, calendars, deadline,
                                transfer_model=model, release=release,
                                objective=objective)
        counters = dict(registry.counters)
    if result is None:
        return
    assert counters.get("dp.incumbents_cold", 0) == 0
    assert counters.get("dp.warm_fallbacks", 0) == 0
    assert counters["dp.incumbents_warm"] == 1


class ScalarBalancedCost:
    """A start-invariant model without ``task_cost_array``: every row
    is priced through the scalar method."""

    def duration_cost(self, task, duration, node):
        return duration + 1.5 * ceil_div(task.volume, duration)

    def task_cost(self, task, placement, node):
        return self.duration_cost(task, placement.duration, node)


class PeakHourCost:
    """A model that prices by wall-clock position, so it is not
    start-invariant: the DP prices each expansion and never prunes."""

    def task_cost(self, task, placement, node):
        peak = 2 if placement.start % 10 < 5 else 0
        return ceil_div(task.volume, placement.duration) + peak


#: The pricing models the context-equivalence check runs under.
COST_MODELS = {"cf": VolumeOverTimeCost(), "balanced": BalancedTimeCost(),
               "scalar": ScalarBalancedCost(), "peak": PeakHourCost()}
#: Examples of the context-equivalence check: 60 by default, 600 under
#: ``dp-deep``.
CONTEXT_EXAMPLES = settings.default.max_examples * 3 // 5


@given(st.lists(st.tuples(task_specs, st.integers(0, 3)), min_size=1,
                max_size=4),
       loaded_pools(), st.integers(6, 40), st.integers(0, 5),
       st.sampled_from(sorted(TRANSFER_MODELS)),
       st.sampled_from(sorted(COST_MODELS)),
       st.sampled_from(["cost", "time"]),
       st.sampled_from([0.0, 0.5, 1.0]),
       st.none() | st.sets(st.integers(1, MAX_POOL), min_size=1))
@settings(max_examples=CONTEXT_EXAMPLES, deadline=None)
def test_warm_context_matches_fresh_and_no_context(
        specs, loaded, deadline, release, model_name, cost_name, objective,
        level, allowed):
    """A shared context warmed by the same job — other estimation
    levels, another candidate node set, a sub-chain behind a fixed
    predecessor — returns exactly what a fresh context and no context
    return: placements, cost, finish and ``evaluations``."""
    pool, calendars = loaded
    if len(pool) > WIDE_POOL:
        specs = specs[:3]
    tasks = [Task(f"T{i}", volume=v, best_time=b, worst_time=b + slack)
             for i, ((b, v, _), slack) in enumerate(specs)]
    transfers = [DataTransfer(f"D{i}", f"T{i}", f"T{i+1}", base_time=lag)
                 for i, ((_, _, lag), _) in enumerate(specs[:-1])]
    job = Job("chain", tasks, transfers, deadline=deadline)
    chain = list(job.tasks)
    kwargs = dict(transfer_model=TRANSFER_MODELS[model_name],
                  cost_model=COST_MODELS[cost_name], release=release,
                  objective=objective)

    def run(context, level=level, allowed=allowed, sub_chain=chain,
            fixed=None):
        result = allocate_chain(job, sub_chain, pool, calendars, deadline,
                                level=level, allowed_nodes=allowed,
                                fixed=fixed, context=context, **kwargs)
        if result is None:
            return None
        return (result.placements, result.cost, result.finish,
                result.evaluations)

    warm = SchedulingContext()
    for other in (0.0, 0.5, 1.0):
        if other != level:
            run(warm, level=other)
    run(warm, allowed=None if allowed is not None
        else set(pool.node_ids()[::2]))
    if len(chain) > 1:
        first = next(iter(pool))
        duration = job.task(chain[0]).duration_on(first.performance, level)
        run(warm, sub_chain=chain[1:], fixed={chain[0]: Placement(
            chain[0], first.node_id, release, release + duration)})
    expected = run(None)
    assert run(SchedulingContext()) == expected
    assert run(warm) == expected


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_critical_works_schedules_are_always_valid(seed):
    """Whatever the job, an admissible outcome is a valid schedule."""
    job = generate_job(np.random.default_rng(seed), seed)
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=0.66),
        ProcessorNode(node_id=3, performance=0.5),
        ProcessorNode(node_id=4, performance=0.33),
    ])
    calendars = {n.node_id: ReservationCalendar() for n in pool}
    scheduler = CriticalWorksScheduler(pool)
    outcome = scheduler.build_schedule(job, calendars)
    if not outcome.admissible:
        return
    violations = check_distribution(
        job, outcome.distribution, pool,
        transfer_time_fn(NeutralTransferModel()))
    assert violations == []
    assert outcome.distribution.internal_overlaps() == []


@given(st.integers(0, 500),
       st.sampled_from(["replication", "remote", "static"]),
       st.sampled_from([0.0, 1 / 3, 2 / 3, 1.0]))
@settings(max_examples=40, deadline=None)
def test_schedules_valid_under_every_policy_and_level(seed, policy, level):
    """Admissible outcomes validate against their own policy timing."""
    from repro.grid.data import (
        RemoteAccessModel,
        ReplicationModel,
        StaticStorageModel,
    )

    model = {"replication": ReplicationModel(),
             "remote": RemoteAccessModel(),
             "static": StaticStorageModel()}[policy]
    job = generate_job(np.random.default_rng(seed), seed)
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=0.66),
        ProcessorNode(node_id=3, performance=0.33),
    ])
    calendars = {n.node_id: ReservationCalendar() for n in pool}
    outcome = CriticalWorksScheduler(pool, model).build_schedule(
        job, calendars, level=level)
    if not outcome.admissible:
        return
    violations = check_distribution(
        job, outcome.distribution, pool, transfer_time_fn(model),
        estimation_level=level)
    assert violations == []


@given(st.integers(0, 500), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_critical_works_respects_background(seed, level):
    """Placements never overlap pre-existing background reservations."""
    rng = np.random.default_rng(seed)
    job = generate_job(rng, seed)
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=0.5),
    ])
    calendars = {n.node_id: ReservationCalendar() for n in pool}
    horizon = max(4, job.deadline * 2)
    cursor = 0
    while cursor < horizon:
        if rng.random() < 0.3:
            calendars[int(rng.integers(1, 3))].reserve(
                cursor, cursor + 2, "background")
        cursor += 3
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, calendars, level=level)
    if outcome.distribution is None:
        return
    for placement in outcome.distribution:
        assert calendars[placement.node_id].is_free(
            placement.start, placement.end)


@st.composite
def skip_edge_jobs(draw):
    """A chain ``T0 → … → Tn-1`` plus at least one skip edge ``Ti → Tj``
    (``j > i + 1``) — an edge between two non-adjacent tasks of the
    job's longest path, with a transfer long enough to matter."""
    size = draw(st.integers(3, 6))
    tasks = []
    for i in range(size):
        best = draw(st.integers(1, 4))
        tasks.append(Task(f"T{i}", volume=draw(st.integers(1, 40)),
                          best_time=best,
                          worst_time=best + draw(st.integers(0, 3))))
    skips = set()
    for _ in range(draw(st.integers(1, 3))):
        src = draw(st.integers(0, size - 3))
        skips.add((src, draw(st.integers(src + 2, size - 1))))
    transfers = [DataTransfer(f"D{i}", f"T{i}", f"T{i + 1}",
                              base_time=draw(st.integers(0, 2)))
                 for i in range(size - 1)]
    transfers += [DataTransfer(f"S{src}_{dst}", f"T{src}", f"T{dst}",
                               base_time=draw(st.integers(1, 8)))
                  for src, dst in sorted(skips)]
    return Job("skip", tasks, transfers,
               deadline=draw(st.integers(20, 80)))


#: The smallest case found where S1 once broke a skip edge: T3 started
#: right after T2 on the other node, before T1's output arrived.
PINNED_SKIP_JOB = Job(
    "skip",
    [Task("T0", volume=1, best_time=1), Task("T1", volume=1, best_time=1),
     Task("T2", volume=1, best_time=1), Task("T3", volume=2, best_time=1)],
    [DataTransfer("D0", "T0", "T1", base_time=0),
     DataTransfer("D1", "T1", "T2", base_time=1),
     DataTransfer("D2", "T2", "T3", base_time=0),
     DataTransfer("S1_3", "T1", "T3", base_time=3)],
    deadline=20)
PINNED_SKIP_POOL = ResourcePool([ProcessorNode(node_id=1, performance=1.0),
                                 ProcessorNode(node_id=2, performance=0.5)])


@pytest.mark.parametrize("stype", list(StrategyType))
@given(skip_edge_jobs(), loaded_pools())
@example(PINNED_SKIP_JOB,
         (PINNED_SKIP_POOL, {1: ReservationCalendar(),
                             2: ReservationCalendar()}))
@settings(max_examples=SKIP_EDGE_EXAMPLES, deadline=None)
def test_skip_edges_hold_in_every_family(stype, job, loaded):
    """Every supporting schedule of every family honours every edge,
    including those between non-adjacent tasks of one critical work,
    which the DP's chain state does not carry."""
    pool, calendars = loaded
    strategy = StrategyGenerator(pool).generate(job, calendars, stype)
    report = verify_strategy(
        strategy, pool,
        transfer_model=default_policy_models()[strategy.spec.policy])
    assert report.ok, report.summary()


#: Examples per family of the dead-chain differential check: 40 by
#: default, 400 under ``dp-deep``.
DEAD_CHAIN_EXAMPLES = settings.default.max_examples * 2 // 5


@st.composite
def dag_jobs(draw):
    """A small DAG whose deadline is often too tight for its longest
    chains at the higher estimation levels: every task after the first
    has one or two predecessors among the earlier tasks."""
    size = draw(st.integers(2, 6))
    tasks = []
    for i in range(size):
        best = draw(st.integers(1, 4))
        tasks.append(Task(f"T{i}", volume=draw(st.integers(1, 40)),
                          best_time=best,
                          worst_time=best + draw(st.integers(0, 4))))
    transfers = []
    for dst in range(1, size):
        for src in sorted(draw(st.sets(st.integers(0, dst - 1),
                                       min_size=1, max_size=2))):
            transfers.append(DataTransfer(
                f"D{src}_{dst}", f"T{src}", f"T{dst}",
                base_time=draw(st.integers(0, 3))))
    return Job("dag", tasks, transfers, deadline=draw(st.integers(3, 40)))


def outcome_fields(outcome):
    """Every field of a scheduling outcome, the distribution flattened
    to its job id, scenario and placements in order."""
    fields = {field.name: getattr(outcome, field.name)
              for field in dataclasses.fields(outcome)}
    distribution = fields["distribution"]
    if distribution is not None:
        fields["distribution"] = (distribution.job_id, distribution.scenario,
                                  list(distribution.placements.items()))
    return fields


def level_by_level(pool, job, calendars, stype, release):
    """The reference for ``StrategyGenerator.generate``: one
    ``build_schedule`` per level, and no dead-chain map."""
    scheduler = StrategyGenerator(pool).scheduler_for(stype)
    return [scheduler.build_schedule(job, calendars, level=level,
                                     release=release)
            for level in STRATEGY_SPECS[stype].levels]


@pytest.mark.parametrize("stype", list(StrategyType))
@given(dag_jobs(), loaded_pools(), st.integers(0, 5))
@settings(max_examples=DEAD_CHAIN_EXAMPLES, deadline=None)
def test_dead_chain_skip_matches_level_by_level(stype, job, loaded, release):
    """``generate`` fails a chain an earlier level proved dead without
    running the DP; every field of every supporting schedule, and the
    generation expense, equal a level-by-level ``build_schedule`` run
    with no map."""
    pool, calendars = loaded
    strategy = StrategyGenerator(pool).generate(
        job, calendars, stype, release=release)
    reference = level_by_level(pool, strategy.scheduled_job, calendars,
                               stype, release)
    assert len(strategy.schedules) == len(reference)
    for schedule, outcome in zip(strategy.schedules, reference):
        assert outcome_fields(schedule.outcome) == outcome_fields(outcome)
    assert strategy.generation_expense == sum(
        outcome.evaluations for outcome in reference)


def test_dead_chain_runs_the_dp_once(monkeypatch):
    """A chain too long for the deadline at the best-case level is
    proved dead once: ``generate`` runs one DP call where the
    level-by-level reference runs one per level."""
    import repro.core.critical_works as critical_works_module

    calls = []

    def counting(*args, **kwargs):
        result = allocate_chain(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(critical_works_module, "allocate_chain", counting)
    job = Job("late", [Task("A", volume=10, best_time=3),
                       Task("B", volume=10, best_time=3)],
              [DataTransfer("D", "A", "B")], deadline=5)
    pool = ResourcePool([ProcessorNode(node_id=1, performance=1.0),
                         ProcessorNode(node_id=2, performance=0.5)])
    calendars = {node.node_id: ReservationCalendar() for node in pool}
    strategy = StrategyGenerator(pool).generate(job, calendars,
                                                StrategyType.S1)
    assert not strategy.admissible
    assert calls == [None]
    calls.clear()
    level_by_level(pool, job, calendars, StrategyType.S1, 0)
    assert calls == [None] * len(STRATEGY_SPECS[StrategyType.S1].levels)


#: Examples of the generation-inputs check: 20 by default, 200 under
#: ``dp-deep``.
GENERATION_INPUT_EXAMPLES = settings.default.max_examples // 5


def fresh_calendars(calendars):
    """Equal calendars under new content versions, so no fit witness
    computed on ``calendars`` serves them."""
    return {node_id: ReservationCalendar(calendar.reservations)
            for node_id, calendar in calendars.items()}


@given(st.integers(0, 2 ** 32 - 1), loaded_pools(), st.integers(0, 5))
@settings(max_examples=GENERATION_INPUT_EXAMPLES, deadline=None)
def test_strategies_depend_only_on_generation_inputs(seed, loaded, release):
    """Every level is generated cold, so a strategy depends only on the
    job, the calendars, the family's configuration and the release.  A
    generator warm from another job and from every family returns what
    a fresh generator returns on fresh calendars, field by field, with
    ``evaluations`` and ``generation_expense``; and MS1's two
    supporting schedules equal S1's levels 0 and 1."""
    pool, calendars = loaded
    rng = np.random.default_rng(seed)
    other, job = generate_job(rng, 0), generate_job(rng, 1)
    warm = StrategyGenerator(pool)
    for stype in StrategyType:
        warm.generate(other, calendars, stype, release=release)
    outcomes = {}
    for stype in StrategyType:
        strategy = warm.generate(job, calendars, stype, release=release)
        fresh = StrategyGenerator(pool).generate(
            job, fresh_calendars(calendars), stype, release=release)
        outcomes[stype] = {schedule.level: outcome_fields(schedule.outcome)
                           for schedule in strategy.schedules}
        assert outcomes[stype] == {
            schedule.level: outcome_fields(schedule.outcome)
            for schedule in fresh.schedules}
        assert strategy.generation_expense == fresh.generation_expense
    for level, fields in outcomes[StrategyType.MS1].items():
        assert fields == outcomes[StrategyType.S1][level]
