"""Dynamic-programming allocation of one critical work (task chain).

Section 2 of the paper: "The strategy is built by using methods of
dynamic programming in a way that allows optimizing scheduling and
resource allocation for a set of tasks comprising the compound job."

Given a chain of tasks that must run sequentially, the DP chooses, for
every task, a processor node and a start slot so that

* each task fits a free window of its node's reservation calendar;
* precedence holds, including data-transfer lags between the chosen
  nodes and constraints from already-placed neighbour tasks;
* the whole chain finishes by the job's fixed completion time;

while minimizing total cost (the paper's ``CF``), with earliest finish
as the tie-breaker.  The state is ``(chain position, data-ready time,
previous node)``; for a fixed node choice the earliest feasible start
dominates all later ones (it can only enlarge downstream feasibility),
so each transition considers one start per node.

Incremental generation (two orthogonal mechanisms, both exact):

* fit witnesses — a memo of ``earliest_fit`` answers owned by each
  calendar content *version* (see :meth:`~repro.core.calendar.
  ReservationCalendar.fit_witnesses`).  Each ``(duration, deadline)``
  bucket holds *interval witnesses*: one computed fit at ``e1``
  answering ``s1`` covers every query in ``[e1, s1]``, and one failure
  covers every query at or past its probe — both consequences of
  ``earliest_fit``'s monotonicity in ``earliest``.  Witnesses written
  by earlier calls — previous estimation levels, previous arrivals,
  other contexts — serve every copy-on-write clone of the version, and
  a mutation starts the node on a fresh store, so invalidation is
  O(nodes touched) and a dead version's witnesses die with it.
* task table — the per-job facts every call needs (candidate nodes,
  durations per (level, candidate node set), start-invariant row
  prices, neighbour edges, per-pair lags) live in one
  :class:`~repro.core.context.TaskTable` per (job structure, transfer
  model, cost model, pool) in the session context, so estimation
  levels, collision re-plans, commit-time replans and template
  siblings index it instead of re-deriving it.  Tables hold no
  calendars and leave with their structure's LRU entry.

Branch-and-bound (every multi-task chain):

* latest starts — before the search, one exact pass runs backward
  from the deadline and computes, for every task and candidate row,
  the latest start from which the rest of the chain still fits through
  that row (the same monotonicity: a state completes the chain through
  a row iff its start bound is at most that latest start).  Rows with
  no latest start are dropped, and a task left without rows proves the
  chain infeasible before any pricing or search.  The search then
  checks each row against its latest start instead of the deadline, so
  it never queries a fit that fails or expands a state with no
  feasible tail.

* incumbent — a greedy descent (cheapest-first, or earliest-finish for
  the ``"time"`` objective) over rows that can still complete the
  chain yields a feasible *incumbent*, which drives pruning of
  dominated partial chains; the latest starts make the descent
  complete on every feasible chain.  Pruning is strict (``lower bound
  > incumbent``) with admissible bounds, and memo entries track
  whether they are exact or merely bound proofs, so the returned
  placements, cost, finish, and feasibility are **bit-identical** to an
  unpruned search — only the number of state expansions
  (``evaluations`` / the ``dp.expansions`` counter) shrinks.  For the
  ``"cost"`` objective pruning additionally requires a
  start-time-invariant cost model (one with a ``duration_cost``
  method, as every built-in model has); otherwise no incumbent is
  built and the search is unpruned.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, Optional, Sequence

import numpy as np

from ..perf import PERF
from .calendar import ReservationCalendar
from .context import SchedulingContext, TaskTable
from .costs import CostModel, VolumeOverTimeCost
from .job import DataTransfer, Job
from .resources import ProcessorNode, ResourcePool
from .schedule import Placement
from .transfers import NeutralTransferModel, TransferModel

__all__ = ["ChainAllocation", "allocate_chain"]

_INFINITY = float("inf")

#: The default models.  Both are immutable, so one shared instance of
#: each keeps every default-model call on one task table per structure.
_NEUTRAL_TRANSFER = NeutralTransferModel()
_CF_COST = VolumeOverTimeCost()

#: Fewest candidate rows for which incumbent pricing fills a task's
#: row prices in one vectorized sweep; below it the array round-trip
#: costs more than pricing the few rows on demand.
_VECTOR_PRICE_MIN_ROWS = 12


def _edges(job: Job, neighbours: Sequence[str], task_id: str,
           uniform_lag_fn: Optional[Callable[[DataTransfer], int]],
           incoming: bool
           ) -> tuple[tuple[str, DataTransfer, Optional[int]], ...]:
    """A task's edges to its predecessors (``incoming``) or successors:
    (neighbour id, transfer, uniform lag or None)."""
    edges = []
    for other in neighbours:
        transfer = (job.transfer_between(other, task_id) if incoming
                    else job.transfer_between(task_id, other))
        if transfer is None:  # pragma: no cover - neighbours have edges
            continue
        edges.append((other, transfer, uniform_lag_fn(transfer)
                      if uniform_lag_fn is not None else None))
    return tuple(edges)


@dataclass
class ChainAllocation:
    """Optimal placements for one chain, with bookkeeping."""

    placements: list[Placement]
    cost: float
    finish: int
    #: Number of DP state expansions actually performed — the strategy
    #: generation expense metric (S1 vs MS1 comparison in Section 4).
    #: Branch-and-bound pruning removes expansions while leaving the
    #: placements bit-identical.
    evaluations: int


def allocate_chain(job: Job, chain: Sequence[str], pool: ResourcePool,
                   calendars: Mapping[int, ReservationCalendar],
                   deadline: int,
                   level: float = 0.0,
                   transfer_model: Optional[TransferModel] = None,
                   cost_model: Optional[CostModel] = None,
                   fixed: Optional[Mapping[str, Placement]] = None,
                   release: int = 0,
                   allowed_nodes: Optional[AbstractSet[int]] = None,
                   objective: str = "cost",
                   context: Optional[SchedulingContext] = None,
                   ) -> Optional[ChainAllocation]:
    """Allocate every task of ``chain`` or return None if infeasible.

    Parameters
    ----------
    job:
        The compound job the chain belongs to.
    chain:
        Task ids in precedence order; consecutive tasks must be joined
        by a transfer edge of the job.
    pool, calendars:
        Candidate nodes and their availability; tasks are *not* booked
        here — the caller owns calendar mutation.
    deadline:
        Absolute completion bound for every task of the chain.
    level:
        Estimation level in [0, 1] (0 = best case, 1 = worst case).
    transfer_model:
        Data-policy timing model (default: neutral).
    cost_model:
        Placement pricing (default: the paper's CF term).
    fixed:
        Placements of already-assigned tasks; they impose release times
        (placed predecessors) and latest-end bounds (placed successors)
        on chain tasks.
    release:
        Earliest slot any chain task may start (the job's arrival).
    allowed_nodes:
        Optional whitelist of node ids (used by flow-level policies and
        the S3 family's resource monopolization).
    objective:
        ``"cost"`` minimizes total CF with earliest finish as the
        tie-break (the economic strategies S1/MS1/S3); ``"time"``
        minimizes finish time with cost as the tie-break (the paper's
        "fastest, most expensive, most accurate" S2 family).
    context:
        The caller's :class:`~repro.core.context.SchedulingContext`,
        which holds the job's :class:`~repro.core.context.TaskTable`
        under (transfer model, cost model, pool): the candidate nodes
        and their performances, per-(level, node set) durations and
        row prices, neighbour edges, and per-pair lags.  All exact, so
        sharing a context across calls, levels, and jobs never changes
        results — only speed.  ``None`` fills a private table for the
        call; fit witnesses live on the calendars and serve either
        way.

        .. versionchanged:: PR 5
           replaces the removed ``fit_cache`` / ``transfer_cache`` /
           ``duration_cache`` / ``transfer_matrices`` keyword
           arguments; construct a context instead of threading dicts.
    """
    if not chain:
        return ChainAllocation([], 0.0, release, 0)
    transfer_model = transfer_model or _NEUTRAL_TRANSFER
    cost_model = cost_model or _CF_COST
    fixed = fixed or {}
    if objective not in ("cost", "time"):
        raise ValueError(f"unknown objective {objective!r}")
    # Candidate rank is (cost, finish) or (finish, cost) per the chosen
    # objective; the comparison is branch-specialized in the DP loop.
    cost_mode = objective == "cost"
    #: Start-time-invariant pricing (a ``duration_cost`` method, as
    #: every built-in model has) makes per-(task, node) costs constants
    #: — the soundness requirement for cost-objective lower bounds, and
    #: an opportunity to price rows once, from their duration, instead
    #: of once per expansion.
    duration_cost = getattr(cost_model, "duration_cost", None)
    invariant_cost = duration_cost is not None

    for earlier, later in zip(chain, chain[1:]):
        if job.transfer_between(earlier, later) is None:
            raise ValueError(
                f"chain edge ({earlier!r}, {later!r}) is not in job "
                f"{job.job_id!r}")
    for task_id in chain:
        if task_id in fixed:
            raise ValueError(f"chain task {task_id!r} is already placed")

    # One context lookup serves every per-job fact this call reads: the
    # task table (see :class:`~repro.core.context.TaskTable`) scoped by
    # the job's structure and the transfer model, cost model and pool.
    # Without a context the call fills a private table.
    table = (context.task_table(job, transfer_model, cost_model, pool)
             if context is not None else TaskTable())
    node_set = None if allowed_nodes is None else frozenset(allowed_nodes)
    candidate_nodes = table.nodes.get(node_set)
    if candidate_nodes is None:
        nodes = [node for node in pool
                 if node_set is None or node.node_id in node_set]
        candidate_nodes = (nodes, np.fromiter(
            (node.performance for node in nodes), dtype=np.float64,
            count=len(nodes)))
        table.nodes[node_set] = candidate_nodes
    nodes, performances = candidate_nodes
    if not nodes:
        return None
    task_info = table.tasks
    level_rows = table.rows.setdefault((level, node_set), {})
    transfer_cache = table.lags
    uniform_lag_fn = getattr(transfer_model, "uniform_lag", None)

    def transfer_time(transfer: DataTransfer, src_node: ProcessorNode,
                      dst_node: ProcessorNode) -> int:
        """A per-pair model's lag through the table's lag memo."""
        key = (transfer.transfer_id, src_node.node_id, dst_node.node_id)
        lag = transfer_cache.get(key)
        if lag is None:
            if PERF.enabled:
                PERF.incr("dp.transfer_cache_misses")
            lag = transfer_model.time(transfer, src_node, dst_node)
            transfer_cache[key] = lag
        elif PERF.enabled:
            PERF.incr("dp.transfer_cache_hits")
        return lag

    def find_fit(row: list, earliest: int) -> Optional[int]:
        """``earliest_fit`` through the row's interval witnesses.

        One computed fit covers a whole interval of ``earliest`` values
        (see :meth:`~repro.core.calendar.ReservationCalendar.
        fit_witnesses`) — exact, never heuristic.  The row's bucket of
        its calendar version's store is attached on first use; rows
        never queried (pruned rows) skip the bucket lookup entirely.
        """
        fits = row[7]
        if fits is None:
            fits = row[2].fit_witnesses(row[3], row[5])
            row[7] = fits
        keys, starts = fits
        position = bisect_right(keys, earliest) - 1
        if position >= 0:
            cached = starts[position]
            if cached is None or earliest <= cached:
                if PERF.enabled:
                    PERF.incr("dp.fit_cache_hits")
                return cached
        if PERF.enabled:
            PERF.incr("dp.fit_cache_misses")
        start = row[2].earliest_fit(row[3], earliest=earliest,
                                    deadline=row[5])
        keys.insert(position + 1, earliest)
        starts.insert(position + 1, start)
        return start

    # The external bounds (earliest start from already-placed
    # predecessors, latest end from the deadline and placed successors)
    # depend only on (task, node) — hoist them out of the DP inner
    # loop.  The placed neighbours are collected once per task; only
    # the transfer lags vary with the node.  Nodes that can never host
    # a task (`floor + duration > ceiling` regardless of the data-ready
    # time: the DP start bound is never below the external release) are
    # dropped up front.  Rows also carry the node's calendar (constant
    # for the whole call — the DP never mutates calendars) so the inner
    # loop touches no dicts to query availability.
    # Row layout: [node, node_id, calendar, duration, floor, ceiling,
    #             row_cost, fits, latest, position] — a list, because
    #             three slots are filled later.  row_cost is the task
    #             table's price for the node when it has one, else
    #             filled lazily: start-time-invariant cost models price
    #             a row once on first touch (or a whole task in one
    #             sweep when pruning needs every row for its lower
    #             bounds) and write the price back to the table, so
    #             rows no call ever visits are never priced.  ``fits``
    #             is the row's interval-witness bucket of its calendar
    #             version's store — a (keys, starts) pair of parallel
    #             sorted lists.  Duration and ceiling are fixed per
    #             row, so they live in the bucket key once instead of
    #             in every lookup.  ``latest`` is the row's latest
    #             start: the largest start bound from which the rest of
    #             the chain still fits through this row (``ceiling -
    #             duration`` until the latest-start pass below tightens
    #             it).  ``position`` indexes the node in the table's
    #             candidate lists.
    node_info = [(node, calendars[node.node_id]) for node in nodes]
    perf_on = PERF.enabled
    candidates: dict[str, list[list]] = {}
    for task_id in chain:
        info = task_info.get(task_id)
        if info is None:
            # Once per structure: the task and its neighbour edges, each
            # with its uniform lag (None under per-pair models).
            info = (job.task(task_id),
                    _edges(job, job.predecessors(task_id), task_id,
                           uniform_lag_fn, incoming=True),
                    _edges(job, job.successors(task_id), task_id,
                           uniform_lag_fn, incoming=False))
            task_info[task_id] = info
        _, pred_edges, succ_edges = info
        placed_preds = []
        for pred, transfer, lag in pred_edges:
            placed = fixed.get(pred)
            if placed is not None:
                placed_preds.append((placed.end, transfer, lag,
                                     placed.node_id))
        placed_succs = []
        for succ, transfer, lag in succ_edges:
            placed = fixed.get(succ)
            if placed is not None:
                placed_succs.append((placed.start, transfer, lag,
                                     placed.node_id))

        # Uniform-lag models (every built-in policy) make the external
        # bounds node-independent except on the placed neighbours' own
        # nodes: floor = max(pred end + lag) everywhere but on a
        # producer's node, where that producer's lag drops to zero.
        # Precomputing the shared bound (and the handful of neighbour
        # node ids needing the exact loop) turns the per-node work from
        # |preds| lag lookups into one comparison.
        if uniform_lag_fn is not None:
            shared_floor = release
            for pred_end, _, lag, _ in placed_preds:
                if pred_end + lag > shared_floor:
                    shared_floor = pred_end + lag
            pred_ids = {src_id for _, _, _, src_id in placed_preds}
            shared_ceiling = deadline
            for succ_start, _, lag, _ in placed_succs:
                if succ_start - lag < shared_ceiling:
                    shared_ceiling = succ_start - lag
            succ_ids = {dst_id for _, _, _, dst_id in placed_succs}

        # Durations for every candidate node come from one vectorized
        # sweep the first time a (task, level, node set) misses the
        # table — online flows see every job cold, so misses arrive in
        # whole per-task batches.  ``duration_array`` runs the same
        # float ops as ``duration_on``, so the values agree exactly.
        entry = level_rows.get(task_id)
        if entry is None:
            if perf_on:
                PERF.incr("dp.duration_cache_misses")
            entry = [info[0].duration_array(performances, level).tolist(),
                     None]
            level_rows[task_id] = entry
        elif perf_on:
            PERF.incr("dp.duration_cache_hits")
        durations, prices = entry
        rows = []
        for position, (node, calendar) in enumerate(node_info):
            duration = durations[position]
            node_id = node.node_id
            if uniform_lag_fn is None:
                floor = release
                for pred_end, transfer, _, src_id in placed_preds:
                    bound = pred_end + transfer_time(
                        transfer, pool.node(src_id), node)
                    if bound > floor:
                        floor = bound
            elif node_id in pred_ids:
                floor = release
                for pred_end, _, lag, src_id in placed_preds:
                    bound = pred_end if src_id == node_id else pred_end + lag
                    if bound > floor:
                        floor = bound
            else:
                floor = shared_floor
            if uniform_lag_fn is None:
                ceiling = deadline
                for succ_start, transfer, _, dst_id in placed_succs:
                    bound = succ_start - transfer_time(
                        transfer, node, pool.node(dst_id))
                    if bound < ceiling:
                        ceiling = bound
            elif node_id in succ_ids:
                ceiling = deadline
                for succ_start, _, lag, dst_id in placed_succs:
                    bound = (succ_start if dst_id == node_id
                             else succ_start - lag)
                    if bound < ceiling:
                        ceiling = bound
            else:
                ceiling = shared_ceiling
            if floor + duration > ceiling:
                continue
            # The fit-witness bucket (row[7]) is attached lazily by
            # ``find_fit`` on the row's first query: rows the DP prunes
            # away never pay the bucket lookup.
            rows.append([node, node_id, calendar, duration, floor, ceiling,
                         None if prices is None else prices[position],
                         None, ceiling - duration, position])
        candidates[task_id] = rows

    chain_length = len(chain)
    # Per-position constants, hoisted so each state expansion touches
    # lists instead of re-querying the job graph.  Uniform-lag models
    # collapse each edge's lag to one constant (zero co-located): the
    # inner loops then compare node ids instead of consulting the lag
    # memo at all.
    tasks_by_index = [task_info[task_id][0] for task_id in chain]
    incoming_by_index: list[Optional[DataTransfer]] = [None] * chain_length
    uniform_by_index: list[Optional[int]] = [None] * chain_length
    for position in range(1, chain_length):
        previous = chain[position - 1]
        for pred, transfer, lag in task_info[chain[position]][1]:
            if pred == previous:
                incoming_by_index[position] = transfer
                uniform_by_index[position] = lag
                break

    # Latest starts.  ``earliest_fit`` is monotone in ``earliest`` and
    # the DP's earliest start dominates later ones, so a state can
    # finish chain[i:] through a row exactly when its start bound is at
    # most that row's latest start (``row[8]``): the latest free start
    # at or past the row's floor whose slot ends in time for some
    # surviving row of the next task (lag applied) and by the row's own
    # ceiling.  One pass from the last task back computes it exactly,
    # with the lags the DP itself applies (a uniform-lag row ends by the
    # best next latest start minus the lag, or by its own node's next
    # latest start, lag-free).  Rows without a latest start are dropped
    # — no state completes the chain through them — and a task left
    # without rows proves the chain infeasible before any pricing or
    # search.  The DP and the greedy incumbent then test each row
    # against its latest start, so every fit query they make succeeds
    # and every child state they expand is feasible.  A single-task
    # chain's one DP state would repeat this pass, so its rows keep
    # ``ceiling - duration`` and the search checks the fit itself.
    if chain_length > 1:
        next_rows: list[list] = []
        for index in range(chain_length - 1, -1, -1):
            task_id = chain[index]
            outgoing = uniform = None  # the chain's last task
            if index + 1 < chain_length:
                outgoing = incoming_by_index[index + 1]
                uniform = uniform_by_index[index + 1]
            if uniform is not None:
                best_latest = max(row[8] for row in next_rows)
                next_latest = {row[1]: row[8] for row in next_rows}
            live = []
            for row in candidates[task_id]:
                latest_end = row[5]
                if uniform is not None:
                    bound = best_latest - uniform
                    colocated = next_latest.get(row[1])
                    if colocated is not None and colocated > bound:
                        bound = colocated
                    if bound < latest_end:
                        latest_end = bound
                elif outgoing is not None:  # per-pair lags
                    bound = max(
                        next_row[8] - transfer_time(outgoing, row[0],
                                                    next_row[0])
                        for next_row in next_rows)
                    if bound < latest_end:
                        latest_end = bound
                latest = row[2].latest_fit(row[3], latest_end, row[4])
                if latest is None:
                    continue
                row[8] = latest
                live.append(row)
            if not live:
                return None
            candidates[task_id] = live
            next_rows = live

    def price_row(index: int, row: list) -> float:
        """The row's (start-invariant) cost, written back to the row and
        to the task table."""
        row_cost = duration_cost(tasks_by_index[index], row[3], row[0])
        entry = level_rows[chain[index]]
        if entry[1] is None:
            entry[1] = [None] * len(nodes)
        entry[1][row[9]] = row_cost
        row[6] = row_cost
        return row_cost

    def completing_start(row: list, index: int,
                         prev_node: Optional[ProcessorNode],
                         ready: int) -> Optional[int]:
        """The row's earliest start after chain[index - 1] ended at
        ``ready`` on ``prev_node``, or None when the chain cannot be
        completed through the row from there (the start bound is past
        the row's latest start)."""
        incoming = incoming_by_index[index]
        uniform = uniform_by_index[index]
        if incoming is None or prev_node is None:
            start_bound = ready
        elif uniform is not None:
            start_bound = (ready if prev_node.node_id == row[1]
                           else ready + uniform)
        else:
            start_bound = ready + transfer_time(incoming, prev_node, row[0])
        if row[4] > start_bound:
            start_bound = row[4]
        if start_bound > row[8]:
            return None
        return find_fit(row, start_bound)

    def greedy_incumbent() -> Optional[float]:
        """Primary value of a greedy descent.

        The incumbent of every pruned search.  Each step takes the
        cheapest (cost mode) or earliest-finishing (time mode) row that
        can still complete the chain.  Every step checks a row against
        its latest start, so the descent never dead-ends on a chain the
        latest-start pass kept: each step leaves some row of the next
        task feasible.  Incumbents only prune (exact bounds), so the
        returned allocation is bit-identical to an unpruned search's;
        only ``evaluations`` (the surviving state count, and with it
        the study's ``generation_expense``) shrinks.
        """
        prev_node: Optional[ProcessorNode] = None
        ready = release
        total_cost = 0.0
        for index, task_id in enumerate(chain):
            rows = candidates[task_id]
            chosen_row = None
            chosen_end = 0
            if cost_mode:
                # Start-invariant prices: cheapest-first order, the
                # first row that completes the chain wins the step.
                rows = sorted(rows, key=lambda row: (
                    row[6] if row[6] is not None
                    else price_row(index, row)))
            for row in rows:
                start = completing_start(row, index, prev_node, ready)
                if start is None:
                    continue
                end = start + row[3]
                if cost_mode:
                    chosen_row, chosen_end = row, end
                    break
                if chosen_row is None or end < chosen_end:
                    chosen_row, chosen_end = row, end
            if chosen_row is None:  # pragma: no cover - defensive
                return None
            if cost_mode:
                row_cost = chosen_row[6]
                total_cost += (row_cost if row_cost is not None
                               else price_row(index, chosen_row))
            prev_node = chosen_row[0]
            ready = chosen_end
        return total_cost if cost_mode else float(ready)

    # Branch-and-bound: a greedy descent yields a feasible incumbent,
    # then partial chains whose admissible lower bound is *strictly*
    # worse are pruned.  tail_lb[i] bounds the primary criterion of
    # chain[i:] from below (per-task minimum over the surviving rows;
    # transfer lags, being non-negative, are soundly dropped).
    pruning = False
    allowance_top = _INFINITY
    tail_lb: list[float] = []
    # Single-task chains cannot profit: the DP touches each row exactly
    # once, which is no more work than building the incumbent and the
    # lower bounds would be.
    if chain_length > 1 and (invariant_cost or not cost_mode):
        if cost_mode:
            # The incumbent and lower bounds below touch every row's
            # price; models with a vectorized pricer fill a task's whole
            # price list in the table in one sweep instead of one
            # ``duration_cost`` call per row (tolist() round-trips
            # float64 exactly, so the values match price_row bit for
            # bit), once per (task, level, node set).
            cost_array_fn = getattr(cost_model, "task_cost_array", None)
            if cost_array_fn is not None:
                for index, task_id in enumerate(chain):
                    rows = candidates[task_id]
                    if len(rows) < _VECTOR_PRICE_MIN_ROWS:
                        # ``price_row`` fills the few rows on demand.
                        continue
                    entry = level_rows[task_id]
                    prices = entry[1]
                    if prices is None or None in prices:
                        prices = cost_array_fn(
                            tasks_by_index[index],
                            np.array(entry[0], dtype=np.int64),
                            nodes).tolist()
                        entry[1] = prices
                    for row in rows:
                        row[6] = prices[row[9]]
        incumbent = greedy_incumbent()
        if incumbent is not None:
            pruning = True
            allowance_top = incumbent
            tail_lb = [0.0] * (chain_length + 1)
            for position in range(chain_length - 1, -1, -1):
                rows = candidates[chain[position]]
                if cost_mode:
                    # The lower bound needs every row priced (min over
                    # the task's candidates).
                    step = min((r[6] if r[6] is not None
                                else price_row(position, r)
                                for r in rows), default=_INFINITY)
                else:
                    step = min((r[3] for r in rows), default=_INFINITY)
                tail_lb[position] = step + tail_lb[position + 1]
            if PERF.enabled:
                # Every incumbent built; the name predates the removal
                # of warm starts and is kept for the counters' readers.
                PERF.incr("dp.incumbents_warm")
        elif PERF.enabled:  # pragma: no cover - defensive, expected 0
            PERF.incr("dp.incumbents_cold")

    evaluations = 0
    # memo[(index, prev_node_id, ready)] ->
    #   (cost, finish, chosen node, start, end, next state key,
    #    exact, allowance the entry was computed under)
    # Exact entries equal the cold DP's value for the state.  Inexact
    # entries are bound proofs: the state's true primary criterion
    # exceeds the recorded allowance (they are reused to prune when the
    # caller's allowance is no larger, and recomputed otherwise).
    # Placements are only materialized during reconstruction — the DP
    # itself works on plain ints.
    memo: dict[tuple[int, Optional[int], int], tuple] = {}
    lag_cache_get = transfer_cache.get

    def best_from(index: int, prev_node_id: Optional[int], ready: int,
                  allowance: float) -> tuple[float, int, bool]:
        """Min (cost, finish, exact) for chain[index:], data-ready at
        ``ready``, exploring only solutions with primary ≤ allowance."""
        nonlocal evaluations
        if index == chain_length:
            return 0.0, ready, True
        key = (index, prev_node_id, ready)
        entry = memo.get(key)
        if entry is not None:
            if entry[6]:
                return entry[0], entry[1], True
            if allowance <= entry[7]:
                # Proven: true primary > entry[7] >= allowance.
                return entry[0], entry[1], False
            # Stale bound proof — recompute under the larger allowance.
        evaluations += 1
        if PERF.enabled:
            PERF.incr("dp.expansions")

        task_id = chain[index]
        incoming = incoming_by_index[index]
        no_incoming = incoming is None or prev_node_id is None
        uniform = None if no_incoming else uniform_by_index[index]
        # The previous node object is only needed to price an uncached
        # transfer lag — resolved lazily on the first cache miss.
        prev_node: Optional[ProcessorNode] = None
        next_lb = tail_lb[index + 1] if pruning else 0.0
        perf_on = PERF.enabled

        complete = True
        best_cost = best_finish = _INFINITY
        best_node = best_start = best_end = None
        for row in candidates[task_id]:
            (node, node_id, calendar, duration, floor, end_bound,
             row_cost, fits, latest, _) = row
            if no_incoming:
                start_bound = ready
            elif uniform is not None:
                # Uniform-lag model: free co-located, one constant
                # across nodes — no cache, no model call.
                start_bound = (ready if prev_node_id == node_id
                               else ready + uniform)
            else:
                # Inlined transfer_time: this is the hottest lookup in
                # the kernel, worth skipping the call overhead for.
                lag_key = (incoming.transfer_id, prev_node_id, node_id)
                lag = lag_cache_get(lag_key)
                if lag is None:
                    if perf_on:
                        PERF.incr("dp.transfer_cache_misses")
                    if prev_node is None:
                        prev_node = pool.node(prev_node_id)
                    lag = transfer_model.time(incoming, prev_node, node)
                    transfer_cache[lag_key] = lag
                elif perf_on:
                    PERF.incr("dp.transfer_cache_hits")
                start_bound = ready + lag
            if floor > start_bound:
                start_bound = floor
            if start_bound > latest:
                continue
            if pruning:
                bound = (row_cost + next_lb if cost_mode
                         else start_bound + duration + next_lb)
                if bound > allowance:
                    # Admissible lower bound strictly beats the
                    # incumbent-backed allowance: no solution through
                    # this candidate can match the optimum.
                    complete = False
                    if perf_on:
                        PERF.incr("dp.pruned")
                    continue
            # Inlined find_fit (see above): the fit query dominates the
            # inner loop, so the interval-witness lookup avoids a call.
            # Buckets attach lazily on the row's first query — rows the
            # DP never reaches stay bucket-free.
            if fits is None:
                fits = calendar.fit_witnesses(duration, end_bound)
                row[7] = fits
            keys, starts = fits
            position = bisect_right(keys, start_bound) - 1
            if position >= 0 and (
                    (cached := starts[position]) is None
                    or start_bound <= cached):
                start = cached
                if perf_on:
                    PERF.incr("dp.fit_cache_hits")
            else:
                if perf_on:
                    PERF.incr("dp.fit_cache_misses")
                start = calendar.earliest_fit(
                    duration, earliest=start_bound, deadline=end_bound)
                keys.insert(position + 1, start_bound)
                starts.insert(position + 1, start)
            if start is None:
                # Only a single-task chain's rows can miss: elsewhere
                # the latest-start check above guarantees the fit.
                continue
            end = start + duration
            if row_cost is not None:
                own_cost = row_cost
            elif invariant_cost:
                own_cost = price_row(index, row)
            else:
                own_cost = cost_model.task_cost(
                    tasks_by_index[index],
                    Placement(task_id, node_id, start, end), node)
            child_allowance = (allowance - own_cost if cost_mode
                               else allowance)
            tail_cost, tail_finish, tail_exact = best_from(
                index + 1, node_id, end, child_allowance)
            if tail_cost == _INFINITY:
                if not tail_exact:
                    complete = False
                continue
            candidate_cost = own_cost + tail_cost
            candidate_finish = tail_finish if tail_finish > end else end
            if pruning:
                primary = candidate_cost if cost_mode else candidate_finish
                if primary > allowance:
                    complete = False
                    if perf_on:
                        PERF.incr("dp.pruned")
                    continue
            # Strict rank comparison, branch-specialized per objective:
            # the first candidate achieving the best rank wins ties (the
            # node iteration order is the pool order, as always).
            if cost_mode:
                better = (candidate_cost < best_cost
                          or (candidate_cost == best_cost
                              and candidate_finish < best_finish))
            else:
                better = (candidate_finish < best_finish
                          or (candidate_finish == best_finish
                              and candidate_cost < best_cost))
            if better:
                best_cost = candidate_cost
                best_finish = candidate_finish
                best_node = node_id
                best_start = start
                best_end = end
                if pruning:
                    # Every found solution is itself an incumbent:
                    # anything strictly worse on the primary criterion
                    # cannot win the rank comparison, so the remaining
                    # rows explore under the tightened allowance.  The
                    # inequality stays strict, so primary ties survive
                    # to be ranked on the secondary criterion exactly
                    # as in the cold pass.
                    allowance = best_cost if cost_mode else best_finish

        best_primary = best_cost if cost_mode else best_finish
        exact = complete or best_primary <= allowance
        next_key = ((index + 1, best_node, best_end)
                    if best_node is not None else None)
        memo[key] = (best_cost, best_finish, best_node, best_start,
                     best_end, next_key, exact, allowance)
        return best_cost, best_finish, exact

    start_key = (0, None, release)
    try:
        total_cost, finish, _ = best_from(0, None, release, allowance_top)
        if total_cost == _INFINITY and pruning:
            # The incumbent proved a feasible solution exists, so an
            # infeasible answer would mean the bounds misfired; fall
            # back to an exact cold pass rather than ever diverging.
            if PERF.enabled:  # pragma: no cover - defensive
                PERF.incr("dp.warm_fallbacks")
            memo.clear()
            pruning = False
            total_cost, finish, _ = best_from(0, None, release, _INFINITY)
    finally:
        # ``best_from`` reaches itself through its own closure cell —
        # a reference cycle holding the memo, the rows and their
        # calendars.  Emptying the cell lets refcounting free all of
        # it on return instead of leaving it to the cyclic collector.
        del best_from
    if total_cost == _INFINITY:
        return None

    placements: list[Placement] = []
    key = start_key
    while key is not None and key[0] < chain_length:
        entry = memo[key]
        placements.append(
            Placement(chain[key[0]], entry[2], entry[3], entry[4]))
        key = entry[5]
    return ChainAllocation(placements, total_cost, int(finish), evaluations)

