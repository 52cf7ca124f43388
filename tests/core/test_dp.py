"""Unit tests for the dynamic-programming chain allocator."""

import itertools

import pytest

from repro.core.calendar import ReservationCalendar
from repro.core.costs import VolumeOverTimeCost
from repro.core.dp import allocate_chain
from repro.core.job import DataTransfer, Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.schedule import Placement
from repro.core.transfers import NeutralTransferModel


def make_pool(*performances):
    return ResourcePool([
        ProcessorNode(node_id=i + 1, performance=perf)
        for i, perf in enumerate(performances)
    ])


def empty_calendars(pool):
    return {node.node_id: ReservationCalendar() for node in pool}


def chain_job(deadline=20):
    return Job(
        "chain",
        [Task("A", volume=20, best_time=2),
         Task("B", volume=30, best_time=3),
         Task("C", volume=10, best_time=1)],
        [DataTransfer("D1", "A", "B"), DataTransfer("D2", "B", "C")],
        deadline=deadline,
    )


def test_empty_chain_is_trivial():
    job = chain_job()
    pool = make_pool(1.0)
    result = allocate_chain(job, [], pool, empty_calendars(pool), 20)
    assert result.placements == []
    assert result.cost == 0.0


def test_single_task_on_single_node():
    job = chain_job()
    pool = make_pool(1.0)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20)
    assert result.placements == [Placement("A", 1, 0, 2)]
    assert result.cost == 10  # ceil(20 / 2)


def test_chain_respects_precedence_and_transfers():
    job = chain_job()
    pool = make_pool(1.0, 1.0)
    result = allocate_chain(job, ["A", "B", "C"], pool,
                            empty_calendars(pool), 20)
    placements = {p.task_id: p for p in result.placements}
    for earlier, later in [("A", "B"), ("B", "C")]:
        lag = 0 if (placements[earlier].node_id
                    == placements[later].node_id) else 1
        assert placements[later].start >= placements[earlier].end + lag


def test_deadline_infeasible_returns_none():
    job = chain_job(deadline=20)
    pool = make_pool(1.0)
    # Chain needs at least 2 + 3 + 1 = 6 slots co-located.
    assert allocate_chain(job, ["A", "B", "C"], pool,
                          empty_calendars(pool), 5) is None


def test_hint_on_infeasible_instance_still_returns_none():
    """The instance once solved from an all-node-1 hint: on a node a
    third as fast no task fits the deadline on its own, so the cold
    search (the only one left) returns None."""
    job = chain_job(deadline=3)
    pool = make_pool(0.33)
    assert allocate_chain(job, ["A", "B", "C"], pool,
                          empty_calendars(pool), 3) is None


def test_prefers_cheaper_slow_node_when_deadline_allows():
    """CF = ceil(V/T): slower nodes yield longer T, hence lower cost."""
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=20)
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20)
    assert result.placements[0].node_id == 2  # slow: ceil(20/4)=5 < 10


def test_forced_to_fast_node_by_tight_deadline():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=3)
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 3)
    assert result.placements[0].node_id == 1


def test_avoids_busy_windows():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=10)
    pool = make_pool(1.0)
    calendars = empty_calendars(pool)
    calendars[1].reserve(0, 4, "background")
    result = allocate_chain(job, ["A"], pool, calendars, 10)
    assert result.placements[0].start == 4


def test_all_nodes_busy_returns_none():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=10)
    pool = make_pool(1.0)
    calendars = empty_calendars(pool)
    calendars[1].reserve(0, 10, "background")
    assert allocate_chain(job, ["A"], pool, calendars, 10) is None


def test_fixed_predecessor_imposes_release():
    job = chain_job()
    pool = make_pool(1.0, 1.0)
    fixed = {"A": Placement("A", 1, 0, 2)}
    result = allocate_chain(job, ["B", "C"], pool, empty_calendars(pool), 20,
                            fixed=fixed)
    b = result.placements[0]
    lag = 0 if b.node_id == 1 else 1
    assert b.start >= 2 + lag


def test_fixed_successor_imposes_latest_end():
    job = chain_job()
    pool = make_pool(1.0)
    fixed = {"C": Placement("C", 1, 10, 11)}
    result = allocate_chain(job, ["A", "B"], pool, empty_calendars(pool), 20,
                            fixed=fixed)
    b = [p for p in result.placements if p.task_id == "B"][0]
    # B on node 1 (same as C): must end by C.start.
    assert b.end <= 10
    # And B may not overlap C on the node? The DP does not book, but the
    # caller checks; here node 1 is free before 10 so no clash.


def test_release_shifts_everything():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=100)
    pool = make_pool(1.0)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 100,
                            release=50)
    assert result.placements[0].start >= 50


def test_estimation_level_lengthens_reservations():
    job = Job("j", [Task("A", volume=20, best_time=2, worst_time=6)],
              deadline=20)
    pool = make_pool(1.0)
    best = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                          level=0.0)
    worst = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                           level=1.0)
    assert best.placements[0].duration == 2
    assert worst.placements[0].duration == 6


def test_allowed_nodes_whitelist():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=20)
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                            allowed_nodes={1})
    assert result.placements[0].node_id == 1
    assert allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                          allowed_nodes=set()) is None


def test_rejects_non_chain_input():
    job = chain_job()
    pool = make_pool(1.0)
    with pytest.raises(ValueError):
        allocate_chain(job, ["A", "C"], pool, empty_calendars(pool), 20)


def test_rejects_already_fixed_chain_task():
    job = chain_job()
    pool = make_pool(1.0)
    with pytest.raises(ValueError):
        allocate_chain(job, ["A", "B"], pool, empty_calendars(pool), 20,
                       fixed={"A": Placement("A", 1, 0, 2)})


def brute_force_best(job, chain, pool, deadline):
    """Exhaustive minimum cost over node assignments with greedy timing."""
    model = VolumeOverTimeCost()
    best_cost = None
    for nodes in itertools.product(list(pool), repeat=len(chain)):
        ready = 0
        cost = 0.0
        feasible = True
        prev_node = None
        for task_id, node in zip(chain, nodes):
            lag = 0
            if prev_node is not None and prev_node.node_id != node.node_id:
                lag = job.transfer_between(
                    chain[chain.index(task_id) - 1], task_id).base_time
            start = ready + lag
            duration = job.task(task_id).duration_on(node.performance)
            end = start + duration
            if end > deadline:
                feasible = False
                break
            cost += model.task_cost(
                job.task(task_id), Placement(task_id, node.node_id,
                                             start, end), node)
            ready = end
            prev_node = node
        if feasible and (best_cost is None or cost < best_cost):
            best_cost = cost
    return best_cost


@pytest.mark.parametrize("deadline", [8, 10, 14, 20, 30])
def test_dp_matches_brute_force_on_empty_calendars(deadline):
    job = chain_job(deadline=deadline)
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    result = allocate_chain(job, chain, pool, empty_calendars(pool), deadline)
    expected = brute_force_best(job, chain, pool, deadline)
    if expected is None:
        assert result is None
    else:
        assert result.cost == expected


def test_evaluations_counter_positive():
    job = chain_job()
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A", "B", "C"], pool,
                            empty_calendars(pool), 20)
    assert result.evaluations > 0


def test_context_caches_do_not_change_results():
    """The context's task table (durations, prices, edges) is pure
    memoization: results must equal the cacheless run's exactly."""
    from repro.core.context import SchedulingContext

    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    calendars = empty_calendars(pool)
    calendars[1].reserve(0, 3, tag="bg")
    calendars[2].reserve(4, 6, tag="bg")
    model, cost = NeutralTransferModel(), VolumeOverTimeCost()

    plain = allocate_chain(job, chain, pool, calendars, 25,
                           transfer_model=model, cost_model=cost)
    context = SchedulingContext()
    cached = allocate_chain(job, chain, pool, calendars, 25,
                            transfer_model=model, cost_model=cost,
                            context=context)
    assert plain is not None and cached is not None
    assert cached.placements == plain.placements
    assert cached.cost == plain.cost
    assert cached.evaluations == plain.evaluations
    # The run actually populated the table.
    assert context.task_table(job, model, cost, pool).rows[(0.0, None)]

    # A second run through the same context reuses entries and agrees.
    again = allocate_chain(job, chain, pool, calendars, 25,
                           transfer_model=model, cost_model=cost,
                           context=context)
    assert again.placements == plain.placements
    assert again.cost == plain.cost


def test_stale_fit_cache_keys_are_ignored_after_mutation():
    """Calendar mutations bump versions, so entries from the old state
    can never be read back — the warm context must track fresh state."""
    from repro.core.context import SchedulingContext

    job = chain_job()
    pool = make_pool(1.0, 0.5)
    chain = ["A", "B", "C"]
    calendars = empty_calendars(pool)
    context = SchedulingContext()
    allocate_chain(job, chain, pool, calendars, 25, context=context)

    calendars[1].reserve(0, 4, tag="bg")
    fresh = allocate_chain(job, chain, pool, calendars, 25,
                           context=context)
    uncached = allocate_chain(job, chain, pool, calendars, 25)
    assert (fresh is None) == (uncached is None)
    if uncached is not None:
        assert fresh.placements == uncached.placements
        assert fresh.cost == uncached.cost


def _witness_calendars(pool):
    calendars = empty_calendars(pool)
    calendars[1].reserve(0, 3, tag="bg")
    calendars[2].reserve(4, 6, tag="bg")
    return calendars


def _fit_counts(job, chain, pool, calendars):
    from repro.perf import PERF

    with PERF.collecting() as registry:
        allocate_chain(job, chain, pool, calendars, 25)
        counters = dict(registry.counters)
    return (counters.get("dp.fit_cache_hits", 0),
            counters.get("dp.fit_cache_misses", 0))


def test_cow_clone_reuses_its_origins_fit_witnesses():
    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    calendars = _witness_calendars(pool)
    chain = ["A", "B", "C"]
    assert _fit_counts(job, chain, pool, calendars)[1] > 0
    clones = {node_id: calendar.copy()
              for node_id, calendar in calendars.items()}
    hits, misses = _fit_counts(job, chain, pool, clones)
    assert hits > 0 and misses == 0


@pytest.mark.parametrize("mutation", [
    lambda calendar: calendar.reserve(40, 42, tag="late"),
    lambda calendar: calendar.release(calendar.reservations[0]),
    lambda calendar: calendar.release_tag("bg"),
    lambda calendar: calendar.release_prefix("b"),
], ids=["reserve", "release", "release_tag", "release_prefix"])
def test_mutation_starts_fresh_fit_witnesses_untouched_clone_hits(mutation):
    """The mutated node is node 3, which hosts the whole cheapest
    allocation, so the search queries its fits whatever it prunes; its
    own background slot lies past that allocation's finish (18)."""
    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    calendars = _witness_calendars(pool)
    calendars[3].reserve(20, 22, tag="bg")
    chain = ["A", "B", "C"]
    _fit_counts(job, chain, pool, calendars)
    mutated = {node_id: calendar.copy()
               for node_id, calendar in calendars.items()}
    mutation(mutated[3])
    assert _fit_counts(job, chain, pool, mutated)[1] > 0
    hits, misses = _fit_counts(job, chain, pool, calendars)
    assert hits > 0 and misses == 0


@pytest.mark.parametrize("objective", ["cost", "time"])
def test_context_none_matches_shared_context(objective):
    """Witnesses live on the calendars, so the bare call and a shared
    context see the same fits; neither a context nor warm witnesses may
    change placements, costs, or the expansion count."""
    from repro.core.context import SchedulingContext

    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    context = SchedulingContext()
    runs = [
        allocate_chain(job, chain, pool, _witness_calendars(pool), 25,
                       objective=objective),
        allocate_chain(job, chain, pool, _witness_calendars(pool), 25,
                       objective=objective, context=context),
    ]
    warm = _witness_calendars(pool)
    for shared in (None, context, None):
        runs.append(allocate_chain(job, chain, pool, warm, 25,
                                   objective=objective, context=shared))
    first = runs[0]
    assert first is not None
    for run in runs[1:]:
        assert run.placements == first.placements
        assert run.cost == first.cost
        assert run.finish == first.finish
        assert run.evaluations == first.evaluations


def _dp_counters(*args, **kwargs):
    """``allocate_chain``'s result and the ``dp.*`` counters it bumped,
    cache counters left out."""
    from repro.perf import PERF

    with PERF.collecting() as registry:
        result = allocate_chain(*args, **kwargs)
        counters = {name: count
                    for name, count in registry.counters.items()
                    if name.startswith("dp.") and "cache" not in name}
    return result, counters


@pytest.mark.parametrize("loaded", [False, True])
def test_unreachable_chain_returns_none_before_any_search(loaded):
    """Every task has a candidate row, but no chain of them fits: the
    latest-start pass proves it before pricing, the incumbent descent
    or a single DP expansion."""
    if loaded:
        pool = make_pool(1.0, 0.5, 1 / 3)
        calendars, deadline = _witness_calendars(pool), 8
    else:
        pool = make_pool(1.0)
        calendars, deadline = empty_calendars(pool), 5
    job = chain_job(deadline=deadline)
    result, counters = _dp_counters(job, ["A", "B", "C"], pool, calendars,
                                    deadline)
    assert result is None
    assert counters == {}


def test_row_reachable_only_from_its_own_node_is_kept():
    """A co-located successor skips the transfer lag: the latest-start
    pass must keep the row that fits only that way."""
    job = Job("j", [Task("A", volume=20, best_time=2),
                    Task("B", volume=30, best_time=3)],
              [DataTransfer("D1", "A", "B", base_time=10)], deadline=8)
    pool = make_pool(1.0, 1.0)
    calendars = empty_calendars(pool)
    calendars[2].reserve(0, 8, tag="bg")
    result = allocate_chain(job, ["A", "B"], pool, calendars, 8)
    assert result.placements == [Placement("A", 1, 0, 2),
                                 Placement("B", 1, 2, 5)]


def test_unhinted_chain_on_a_loaded_pool_prunes():
    """Cold chains are pruned against a greedy incumbent too (that the
    answer stays the unpruned one is checked exhaustively in
    tests/property/test_dp_properties.py)."""
    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    result, counters = _dp_counters(job, chain, pool,
                                    _witness_calendars(pool), 25)
    assert counters.get("dp.pruned", 0) > 0
    assert counters["dp.incumbents_warm"] == 1
    assert result.evaluations == counters["dp.expansions"]


def test_whole_pool_calls_report_the_same_expense_with_or_without_context(
        monkeypatch):
    """Every DP call of the critical works method on a loaded whole-pool
    VO returns the same placements, cost and ``evaluations`` — the
    paper's generation-expense metric — whether or not it runs through
    the scheduler's context.

    Each spied call is re-run at once on the same calendars with
    ``context=None``; ``fixed`` is copied first because the caller
    mutates it after the call returns.
    """
    import repro.core.critical_works as critical_works
    from repro.core.critical_works import CriticalWorksScheduler
    from repro.grid.environment import GridEnvironment
    from repro.sim import RandomStreams
    from repro.workload.generator import generate_job, generate_pool

    pool = generate_pool(RandomStreams(5).stream("pool"))
    assert len(pool) == 25
    streams = RandomStreams(2009)
    grid = GridEnvironment(pool)
    grid.apply_background_load(streams.stream("background"), 0.5, 400)

    real = critical_works.allocate_chain
    mismatches = []
    calls = 0

    def spy(*args, **kwargs):
        nonlocal calls
        calls += 1
        fixed = dict(kwargs["fixed"])
        result = real(*args, **kwargs)
        bare = real(*args, **dict(kwargs, fixed=fixed, context=None))
        if result is None or bare is None:
            if (result is None) != (bare is None):
                mismatches.append((args[1], "feasibility"))
        elif (result.placements != bare.placements
              or result.cost != bare.cost
              or result.evaluations != bare.evaluations):
            mismatches.append((args[1], result.evaluations,
                               bare.evaluations))
        return result

    monkeypatch.setattr(critical_works, "allocate_chain", spy)
    scheduler = CriticalWorksScheduler(pool)
    for index in range(15):
        job = generate_job(streams.fork("jobs", index), index)
        for level in (0.0, 0.5, 1.0):
            scheduler.build_schedule(job, grid.snapshot(), level=level)
    assert calls > 200
    assert mismatches == []
