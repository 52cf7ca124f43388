"""Orphaned-counter audit: hit/miss pairs map 1:1 onto context caches.

The ``*_hits``/``*_misses`` suffix pair is reserved for caches owned by
:class:`repro.core.context.SchedulingContext` (``CONTEXT_CACHE_NAMES``).
These tests keep three views in lockstep — the counters the kernel
actually emits (source scan), the counters the registry documents
(docstring scan), and the counters a live run produces
(``derive_cache_stats``) — so renamed or removed caches cannot leave
dead pairs behind (the pre-PR 5 ``dp.incumbent_hits``/``_misses``
orphan is exactly what this guards against).
"""

import re
from pathlib import Path

import numpy as np

import repro.perf.registry as registry_module
from repro.core.calendar import ReservationCalendar
from repro.core.context import CONTEXT_CACHE_NAMES
from repro.core.critical_works import CriticalWorksScheduler
from repro.core.strategy import StrategyGenerator, StrategyType
from repro.flow.metascheduler import Metascheduler
from repro.grid.environment import GridEnvironment
from repro.perf import PERF, derive_cache_stats
from repro.workload.generator import generate_job, generate_pool

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class PairwiseLagModel:
    """A transfer model without ``uniform_lag``: its lags vary by node
    pair, so the DP memoizes them per (transfer, src, dst)."""

    def time(self, transfer, src_node, dst_node):
        if src_node.node_id == dst_node.node_id:
            return 0
        return transfer.base_time * (1 + (src_node.node_id
                                           + dst_node.node_id) % 2)

    def estimate(self, transfer):
        return transfer.base_time

#: Literal hit/miss counter emissions: ``PERF.incr("<name>_hits")``.
_EMIT_PATTERN = re.compile(
    r'PERF\.incr\(\s*"(?P<name>[a-z_.]+)_(?:hits|misses)"')
#: Pair mentions in the registry docstring (`` `<name>_hits` ``).
_DOC_PATTERN = re.compile(r"``(?P<name>[a-z_.]+)_hits``")


def emitted_pair_names():
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for match in _EMIT_PATTERN.finditer(path.read_text()):
            names.add(match.group("name"))
    return names


def test_every_emitted_pair_belongs_to_a_context_cache():
    assert emitted_pair_names() == set(CONTEXT_CACHE_NAMES)


def test_registry_docstring_documents_exactly_the_context_caches():
    documented = {match.group("name")
                  for match in _DOC_PATTERN.finditer(
                      registry_module.__doc__)}
    assert documented == set(CONTEXT_CACHE_NAMES)


def test_live_run_derives_no_dead_pairs():
    """Exercise every kernel layer under collection; each derived pair
    must be a context cache, and every context cache must show up —
    a dead pair (emitted but unowned) or a dead cache (owned but never
    emitted) both fail."""
    rng = np.random.default_rng(7)
    pool = generate_pool(rng)
    jobs = [generate_job(rng, index) for index in range(3)]
    calendars = {node.node_id: ReservationCalendar() for node in pool}
    grid = GridEnvironment(generate_pool(np.random.default_rng(8)))

    with PERF.collecting() as registry:
        generator = StrategyGenerator(pool)
        for job in jobs:
            for stype in (StrategyType.S1, StrategyType.S2):
                generator.generate(job, calendars, stype)
        metascheduler = Metascheduler(grid)
        flow_job = generate_job(np.random.default_rng(9), 0)
        metascheduler.plan_job(flow_job, StrategyType.S1, 0)
        metascheduler.plan_job(flow_job, StrategyType.S1, 0)  # plan hit
        # No kernel path reads the gap-table cache (the benchmark's
        # span seam still names it), so exercise it directly: one
        # miss, then one hit.
        generator.context.gap_table(calendars[pool.nodes[0].node_id])
        generator.context.gap_table(calendars[pool.nodes[0].node_id])
        # Every built-in transfer model declares a uniform lag, so only
        # a per-pair model reads the DP's lag memo: schedule with one.
        CriticalWorksScheduler(pool, PairwiseLagModel(),
                               context=generator.context).build_schedule(
            jobs[0], calendars)
        snapshot = registry.snapshot()

    derived = derive_cache_stats(snapshot["counters"])
    assert set(derived) == set(CONTEXT_CACHE_NAMES)
    for name, stat in derived.items():
        assert stat["hits"] + stat["misses"] > 0, name


def test_incumbent_counters_are_not_a_cache_pair():
    """The warm-start incumbent counters were renamed off the reserved
    suffixes; the old orphaned pair must not resurface."""
    source = "\n".join(path.read_text()
                       for path in sorted(SRC.rglob("*.py")))
    assert "dp.incumbent_hits" not in source
    assert "dp.incumbent_misses" not in source
    assert 'PERF.incr("dp.incumbents_warm")' in source
    assert 'PERF.incr("dp.incumbents_cold")' in source
