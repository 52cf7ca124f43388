"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``python -m pytest benchmarks/e2e``.
The subprocess runs use ``--scale 0.02`` so every workload finishes in
seconds.
"""

from __future__ import annotations

import functools
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import (LAYER_SEAMS, DecisionTimer, SpanTracer,  # noqa: E402
                   patched)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def small_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(report, result line) of one ``--scale 0.02`` run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_small_run_emits_the_declared_metrics(workload, trace):
    _, result = small_run(workload, 5, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: metric["unit"]
             for name, metric in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in declared})


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_digest_follows_the_seed(workload):
    # The two passes run in separate processes but replay the same
    # quality episodes, so they must agree; another seed must not.
    same = {small_run(workload, 5, trace)[0]["workloads"][workload]["digest"]
            for trace in (0, 1)}
    other = small_run(workload, 6, 0)[0]["workloads"][workload]["digest"]
    assert len(same) == 1
    assert other not in same


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_arithmetic_on_a_nested_span_tree():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(3))

    def middle_body():
        clock.advance(2)
        leaf()
        clock.advance(1)

    def outer_body():
        clock.advance(1)
        middle()
        leaf()
        clock.advance(1)

    middle = tracer.wrap("middle", middle_body)
    outer = tracer.wrap("outer", outer_body)
    with tracer.root():
        clock.advance(1)
        outer()
        clock.advance(0.5)

    assert tracer.calls["outer"] == 1
    assert tracer.calls["middle"] == 1
    assert tracer.calls["leaf"] == 2
    assert tracer.self_s["leaf"] == pytest.approx(6.0)
    assert tracer.self_s["middle"] == pytest.approx(3.0)
    assert tracer.self_s["outer"] == pytest.approx(2.0)
    assert tracer.wall_s == pytest.approx(12.5)
    assert tracer.root_self_s == pytest.approx(1.5)
    assert (sum(tracer.self_s[n] for n in ("leaf", "middle", "outer"))
            + tracer.root_self_s) == pytest.approx(tracer.wall_s)
    assert tracer.shares()["leaf"] == pytest.approx(6.0 / 12.5)


def test_decision_timer_sums_per_arrival_and_skips_nested_calls():
    clock = FakeClock()
    timer = DecisionTimer(clock)

    def plan(job, nested=False):
        clock.advance(1)
        if nested:
            timed_plan(job)

    timed_plan = timer.wrap(plan, key=lambda args: args[0])
    timed_plan("a")
    timed_plan("b", nested=True)
    timed_plan("a")
    assert sorted(timer.take()) == [2.0, 2.0]
    assert timer.take() == []


def _seam_objects() -> list:
    objects = []
    for _, module, path in LAYER_SEAMS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        objects.append(vars(owner)[attr])
    return objects


def test_traced_pass_restores_the_program():
    from repro.flow.metascheduler import Metascheduler
    from workloads import WORKLOADS, episode_seed

    original = Metascheduler.__dict__["plan_job"]
    before = _seam_objects()
    tracer = SpanTracer()
    with pytest.raises(RuntimeError):
        with patched(tracer.seams()):
            assert Metascheduler.__dict__["plan_job"] is not original
            WORKLOADS["online_cold"].run(
                episode_seed(5, 0), 0.02, tracer.root,
                functools.partial(tracer.wrap, "workload.job_factory"))
            raise RuntimeError("leave the pass early")
    assert Metascheduler.__dict__["plan_job"] is original
    assert all(a is b for a, b in zip(before, _seam_objects()))
    assert tracer.calls["flow.metascheduler.plan_job"] > 0
