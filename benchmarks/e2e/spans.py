"""Outside-in instrumentation for the end-to-end benchmark.

The benchmark measures the program without changing it: every timing
comes from a wrapper installed over a public function for the duration
of a pass and removed afterwards (:func:`patched`).

* :class:`DecisionTimer` is the only instrumentation of the end-to-end
  pass.  It times a workload's outermost decision calls and sums them
  per arrival, so a plan and its later commit count as one decision.
* :class:`SpanTracer` is the traced pass.  It wraps one public entry
  point per layer (:data:`LAYER_SEAMS`) and attributes *self time*: a
  span's duration minus the part of it covered by the spans it called.
  Self times of all spans plus the root's own time add up to the traced
  wall time, so a layer's share is its self time over that wall.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["LAYER_SEAMS", "FACTORY_SPAN", "SPAN_NAMES", "patched",
           "DecisionTimer", "SpanTracer"]

#: (span name, module, attribute path) of each layer's public entry
#: point.  ``plan_with_cache`` is imported by name into the
#: metascheduler, so both of its import sites carry the one span;
#: ``allocate_chain`` is patched where the critical-works layer calls it.
LAYER_SEAMS: tuple[tuple[str, str, str], ...] = (
    ("sim.engine.run", "repro.sim.engine", "Environment.run"),
    ("flow.sharded.run", "repro.flow.sharded", "ShardedSimulation.run"),
    ("flow.metascheduler.plan_job", "repro.flow.metascheduler",
     "Metascheduler.plan_job"),
    ("flow.metascheduler.commit_planned", "repro.flow.metascheduler",
     "Metascheduler.commit_planned"),
    ("flow.sharding.plan_with_cache", "repro.flow.sharding",
     "plan_with_cache"),
    ("flow.sharding.plan_with_cache", "repro.flow.metascheduler",
     "plan_with_cache"),
    ("flow.sharding.shard_plan", "repro.flow.sharding", "ShardPlanner.plan"),
    ("flow.manager.plan", "repro.flow.manager", "JobManager.plan"),
    ("core.strategy.generate", "repro.core.strategy",
     "StrategyGenerator.generate"),
    ("core.strategy.rebind", "repro.core.strategy", "Strategy.rebind"),
    ("core.critical_works.build_schedule", "repro.core.critical_works",
     "CriticalWorksScheduler.build_schedule"),
    ("core.dp.allocate_chain", "repro.core.critical_works", "allocate_chain"),
    ("core.context.gap_table", "repro.core.context",
     "SchedulingContext.gap_table"),
    ("grid.environment.snapshot", "repro.grid.environment",
     "GridEnvironment.snapshot"),
    ("grid.environment.can_commit", "repro.grid.environment",
     "GridEnvironment.can_commit"),
    ("grid.environment.commit_distribution", "repro.grid.environment",
     "GridEnvironment.commit_distribution"),
    ("grid.environment.apply_background_load", "repro.grid.environment",
     "GridEnvironment.apply_background_load"),
)

#: The job factory is the benchmark's own input generator, handed to the
#: program; its span is installed by wrapping the factory object.
FACTORY_SPAN = "workload.job_factory"

#: Every span name the tracer reports, in report order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    [name for name, _, _ in LAYER_SEAMS] + [FACTORY_SPAN]))


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


@contextmanager
def patched(replacements: Iterable[tuple[str, str, Callable[[Any], Any]]]
            ) -> Iterator[None]:
    """Install ``make(original)`` over each ``module``/``path`` target.

    The originals are put back on exit, in reverse order, even when the
    block raises, so the program is byte-for-byte itself afterwards.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, path, make in replacements:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class DecisionTimer:
    """Wall time of each decision, taken at the outermost decision call.

    ``key(args)`` names the arrival a call decides for; calls with the
    same key are summed into one decision (plan now, commit later).
    A ``None`` key makes every call its own decision.  Calls nested
    inside another timed call (a replan inside a commit) are part of the
    outer call's time, not separate decisions.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._depth = 0
        self._samples: list[float] = []
        self._open: dict[Any, float] = {}

    def wrap(self, fn: Callable[..., Any],
             key: Optional[Callable[[tuple], Any]]) -> Callable[..., Any]:
        clock, samples, pending = self._clock, self._samples, self._open

        @functools.wraps(fn)
        def decision(*args: Any, **kwargs: Any) -> Any:
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self._depth = 0
                if key is None:
                    samples.append(elapsed)
                else:
                    name = key(args)
                    pending[name] = pending.get(name, 0.0) + elapsed
        return decision

    def take(self) -> list[float]:
        """The decisions timed since the last call, in seconds."""
        taken = self._samples + list(self._open.values())
        self._samples.clear()
        self._open.clear()
        return taken


class SpanTracer:
    """Per-layer call counts and self time from wrapped entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.calls: dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self.self_s: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        #: Wall time inside :meth:`root` blocks, and the part of it no
        #: span covered (the benchmark's own loop and unwrapped code).
        self.wall_s = 0.0
        self.root_self_s = 0.0
        # Frames are [start, seconds covered by child spans]; the bottom
        # frame catches spans called outside any root block.
        self._stack: list[list[float]] = [[0.0, 0.0]]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as span ``name``."""
        clock, stack = self._clock, self._stack
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                stack[-1][1] += elapsed
        return span

    def seams(self) -> list[tuple[str, str, Callable[[Any], Any]]]:
        """:func:`patched` targets for every layer seam."""
        return [(module, path, functools.partial(self.wrap, name))
                for name, module, path in LAYER_SEAMS]

    @contextmanager
    def root(self) -> Iterator[None]:
        """A traced region: its wall time is the denominator of shares."""
        frame = [self._clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            elapsed = self._clock() - frame[0]
            self.wall_s += elapsed
            self.root_self_s += elapsed - frame[1]

    def shares(self) -> dict[str, float]:
        """Each span's self time over the traced wall time."""
        wall = self.wall_s or 1.0
        return {name: seconds / wall for name, seconds in self.self_s.items()}
