#!/usr/bin/env python3
"""End-to-end benchmark of the metascheduler: four workloads, two passes.

Run from the repository root.  One workload, one pass::

    python3 benchmarks/e2e/run.py --workload online_cold --seed 2009 \
        --seconds 15 --trace 0

prints diagnostics, then a ``report {...}`` line with everything
measured, then one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Without ``--workload`` every workload runs in a fresh
subprocess, one at a time, in both passes, and a table of every metric
is printed (``--json`` saves it, ``--record`` appends it to
``history.jsonl``)::

    python3 benchmarks/e2e/run.py --seed 2009 --json out.json

The end-to-end pass times only the workload's decision calls
(:class:`spans.DecisionTimer`).  The traced pass first repeats the
quality episodes with that same instrumentation, then runs them again
with every layer seam wrapped and the program's ``PERF`` counters on,
so the two walls give the tracing overhead.  Every output is verified;
a violation, an exception, or a default-seed digest differing from
``digests.json`` makes the run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
HISTORY = HERE / "history.jsonl"

#: Fresh processes timed from start to first decision per run.
SETUP_PROBES = 7
#: Episode seeds are ``seed * 1000 + episode``.
MAX_EPISODES = 999
#: Keep native libraries to one thread: the workloads are single-threaded.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def _identity(fn: Any) -> Any:
    return fn


def _percentile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _load_spec() -> dict[str, Any]:
    return json.loads(SPEC.read_text())


def _run_digest(episodes: list) -> str:
    return hashlib.sha256(
        "".join(e.digest for e in episodes).encode()).hexdigest()


def _decision_seams(workload, timer) -> list:
    return [(module, path, functools.partial(timer.wrap, key=key))
            for module, path, key in workload.decision_seams]


def _timed_episodes(workload, seed: int, scale: float, seconds: float,
                    minimum: int, latencies: Optional[list] = None
                    ) -> list:
    """Episodes with decision timing: ``minimum``, then until ``seconds``
    of timed work have passed."""
    from spans import DecisionTimer, patched
    from workloads import episode_seed

    timer = DecisionTimer()
    episodes: list = []
    with patched(_decision_seams(workload, timer)):
        while len(episodes) < minimum or (
                sum(e.wall_s for e in episodes) < seconds
                and len(episodes) < MAX_EPISODES):
            gc.collect()
            episode = workload.run(episode_seed(seed, len(episodes)), scale,
                                   nullcontext, _identity)
            taken = timer.take()
            if len(taken) != episode.decisions:
                episode.failed += abs(episode.decisions - len(taken))
                episode.problems.append(
                    f"timed {len(taken)} decisions for "
                    f"{episode.decisions} arrivals")
            if latencies is not None:
                latencies.append(taken)
            episodes.append(episode)
    return episodes


def _setup_probe_time(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to its first decision."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", repr(args.scale)]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return elapsed


class _Ready(Exception):
    """Raised through the program once the first decision returned."""


def setup_probe(args: argparse.Namespace) -> int:
    """Child side of a setup probe: import, set up, decide once, stop."""
    from spans import patched
    from workloads import WORKLOADS, episode_seed

    workload = WORKLOADS[args.workload]

    def stop_after(fn: Any) -> Any:
        def decision(*call_args: Any, **kwargs: Any) -> Any:
            fn(*call_args, **kwargs)
            raise _Ready
        return decision

    try:
        with patched((module, path, stop_after)
                     for module, path, _ in workload.decision_seams):
            workload.run(episode_seed(args.seed, 0), args.scale, nullcontext,
                         _identity)
    except _Ready:
        print("ready", flush=True)
        return 0
    print("error: the episode made no decision", file=sys.stderr)
    return 1


def e2e_pass(workload, args: argparse.Namespace) -> dict[str, Any]:
    """Setup probes, then timed episodes; the end-to-end metrics.

    Rates and percentiles are medians over episodes, so a burst of load
    from outside the benchmark moves one episode, not the result."""
    setup = [_setup_probe_time(args) for _ in range(SETUP_PROBES)]
    latencies: list[list[float]] = []
    episodes = _timed_episodes(workload, args.seed, args.scale, args.seconds,
                               workload.quality_episodes, latencies)
    quality = episodes[:workload.quality_episodes]
    decisions = sum(e.decisions for e in episodes)
    measured = sum(e.wall_s for e in episodes)
    costs = [cost for e in quality for cost in e.costs]
    per_episode_ms = [[seconds * 1e3 for seconds in taken]
                      for taken in latencies]
    latencies_ms = [value for taken in per_episode_ms for value in taken]
    p90 = _percentile(latencies_ms, 90)
    executed = sum(e.executed for e in quality)

    def episode_median(percent: int) -> float:
        return statistics.median(_percentile(taken, percent)
                                 for taken in per_episode_ms if taken)

    return {
        "episodes": episodes,
        "quality": quality,
        "metrics": {
            "setup_s": statistics.median(setup),
            "jobs_per_s": statistics.median(e.decisions / e.wall_s
                                            for e in episodes if e.decisions),
            "decide_ms_p50": episode_median(50),
            "decide_ms_p90": episode_median(90),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "admitted_frac": (sum(e.admitted for e in quality)
                              / max(1, sum(e.decisions for e in quality))),
            "mean_cf": statistics.fmean(costs) if costs else 0.0,
        },
        "diagnostics": {
            "episodes": len(episodes),
            "measured_s": measured,
            "decisions": decisions,
            "setup_samples_s": setup,
            "decide_ms_p99": _percentile(latencies_ms, 99),
            "decide_samples": len(latencies_ms),
            "decide_samples_beyond_p90": sum(
                1 for v in latencies_ms if v > p90),
            "deadline_met_frac": (sum(e.deadline_met for e in quality)
                                  / executed if executed else None),
            "executed": executed,
        },
    }


def trace_pass(workload, args: argparse.Namespace) -> dict[str, Any]:
    """Quality episodes untraced, then traced; the per-layer metrics."""
    from repro.perf import PERF
    from repro.perf.registry import derive_cache_stats
    from spans import FACTORY_SPAN, SPAN_NAMES, SpanTracer, patched
    from workloads import episode_seed

    count = workload.quality_episodes
    plain = _timed_episodes(workload, args.seed, args.scale, 0.0, count)
    tracer = SpanTracer()

    @contextmanager
    def region() -> Iterator[None]:
        with tracer.root(), PERF.collecting(reset=False):
            yield

    PERF.reset()
    traced = []
    with patched(tracer.seams()):
        for index in range(count):
            gc.collect()
            traced.append(workload.run(
                episode_seed(args.seed, index), args.scale, region,
                functools.partial(tracer.wrap, FACTORY_SPAN)))
    counters = PERF.snapshot()["counters"]
    PERF.reset()
    for before, after in zip(plain, traced):
        if before.digest != after.digest:
            after.failed += after.decisions
            after.problems.append("tracing changed the episode's outputs")

    def count_of(name: str) -> int:
        return int(counters.get(name, 0))

    decisions = sum(e.decisions for e in traced)
    wall = tracer.wall_s
    layers: dict[str, float] = {}
    shares = tracer.shares()
    for name in SPAN_NAMES:
        layers[f"{name}.calls"] = tracer.calls[name]
        layers[f"{name}.self_share"] = shares[name]
    for name in ("dp.expansions", "dp.pruned", "dp.incumbents_warm",
                 "dp.incumbents_cold", "calendar.earliest_fit",
                 "calendar.conflicts", "calendar.cow_copies",
                 "calendar.materializations", "placement.batch_queries",
                 "placement.rows_per_batch", "flow.plan_cache_hits",
                 "flow.plan_rebinds", "flow.plan_repairs",
                 "flow.plan_cache_misses", "flow.plan_coarse_hits",
                 "flow.plan_coarse_misses"):
        layers[name] = count_of(name)
    attempts = count_of("dp.expansions") + count_of("dp.pruned")
    layers["dp.prune_ratio"] = (count_of("dp.pruned") / attempts
                                if attempts else 0.0)
    reused = count_of("flow.plan_cache_hits") + count_of("flow.plan_repairs")
    reads = reused + count_of("flow.plan_cache_misses")
    layers["flow.plan_reuse_rate"] = reused / reads if reads else 0.0
    caches = derive_cache_stats(counters)
    for cache in ("dp.fit_cache", "dp.duration_cache", "dp.transfer_cache",
                  "critical_works.rank_cache", "placement.gap_table"):
        layers[f"{cache}.hit_rate"] = float(
            caches.get(cache, {}).get("hit_rate", 0.0))
    layers["flow.reallocations"] = sum(e.reallocations for e in traced)
    layers["flow.replans"] = tracer.calls[workload.plan_span] - decisions
    layers["trace.overhead_frac"] = (
        sum(e.wall_s for e in traced) / sum(e.wall_s for e in plain) - 1.0)
    layers["trace.root_self_share"] = tracer.root_self_s / wall
    return {
        "episodes": plain + traced,
        "quality": plain,
        "metrics": layers,
        "diagnostics": {
            "episodes": 2 * count,
            "decisions": decisions,
            "traced_wall_s": wall,
            "self_s": dict(tracer.self_s),
        },
    }


def run_one(args: argparse.Namespace) -> int:
    """One workload, one pass; prints the contract's result line last."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = _load_spec()
    try:
        measured = (trace_pass if args.trace else e2e_pass)(workload, args)
    except Exception:  # noqa: BLE001 - report any crash as a failed run
        import traceback

        traceback.print_exc()
        return 1
    episodes = measured["episodes"]
    digest = _run_digest(measured["quality"])
    failed = sum(e.failed for e in episodes)
    pinned = json.loads(DIGESTS.read_text())
    if args.seed == pinned["seed"] and args.scale == 1.0:
        expected = pinned["digests"].get(workload.name)
        if expected != digest:
            failed += sum(e.decisions for e in measured["quality"])
            print(f"error: {workload.name} digest {digest} differs from the "
                  f"pinned {expected}", file=sys.stderr)
    for problem in [p for e in episodes for p in e.problems][:20]:
        print(problem, file=sys.stderr)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured["metrics"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    attempted = sum(e.decisions for e in episodes)
    entry = {"correct": failed == 0, "attempted": attempted,
             "failed": failed, "digest": digest,
             "diagnostics": measured["diagnostics"],
             ("layers" if args.trace else "e2e"):
                 {name: m["value"] for name, m in metrics.items()}}
    report = _report(args, {workload.name: entry})
    diagnostics = measured["diagnostics"]
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{diagnostics['episodes']} episodes, "
          f"{diagnostics['decisions']} decisions, digest {digest[:16]}")
    if not args.trace:
        print(f"  decide_ms_p99 {diagnostics['decide_ms_p99']:.3f} ms "
              f"(diagnostic; {diagnostics['decide_samples']} samples)")
        if diagnostics["deadline_met_frac"] is not None:
            print(f"  deadline_met_frac {diagnostics['deadline_met_frac']:.4f}"
                  f" (diagnostic; {diagnostics['executed']} executed jobs)")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _report(args: argparse.Namespace,
            workloads: dict[str, Any]) -> dict[str, Any]:
    return {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workloads": workloads}


def _child_report(args: argparse.Namespace, name: str, trace: int
                  ) -> tuple[int, Optional[dict[str, Any]]]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", repr(args.scale)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(proc.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith("report "):
            return proc.returncode, json.loads(line[len("report "):])
        print(line)
    return proc.returncode or 1, None


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each pass in a fresh process; table and files."""
    spec = _load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    merged: dict[str, Any] = {}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        entry: dict[str, Any] = {"correct": True, "attempted": 0,
                                 "failed": 0, "diagnostics": {}}
        for trace in (0, 1):
            code, report = _child_report(args, name, trace)
            if report is None:
                print(f"error: {name} trace={trace} produced no report",
                      file=sys.stderr)
                entry["correct"] = False
                status = 1
                continue
            status = status or code
            part = report["workloads"][name]
            entry["correct"] = entry["correct"] and part["correct"]
            entry["attempted"] += part["attempted"]
            entry["failed"] += part["failed"]
            entry["digest"] = part["digest"]
            entry["diagnostics"][f"trace{trace}"] = part["diagnostics"]
            for key in ("e2e", "layers"):
                if key in part:
                    entry[key] = part[key]
        merged[name] = entry
        print(f"== {name}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for metric, value in entry.get("e2e", {}).items():
            print(f"  {metric:<16} {value:>14.4f} {units[metric]}")
        layers = entry.get("layers", {})
        top = sorted((v, k[:-len(".self_share")]) for k, v in layers.items()
                     if k.endswith(".self_share"))[::-1][:6]
        print("  self share: " + ", ".join(f"{k} {v:.3f}" for v, k in top))
        if layers:
            print(f"  trace.overhead_frac {layers['trace.overhead_frac']:.3f}"
                  f", trace.root_self_share "
                  f"{layers['trace.root_self_share']:.3f}")
    report = _report(args, merged)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    if args.record:
        _record(report)
    return status


def _record(report: dict[str, Any]) -> None:
    """Append one run set to the benchmark's history."""
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True)
    line = {
        "commit": commit.stdout.strip() or None,
        "python": report["python"], "nproc": report["nproc"],
        "seed": report["seed"], "seconds": report["seconds"],
        "workloads": {
            name: {"e2e": entry.get("e2e", {}),
                   "self_share": {
                       k[:-len(".self_share")]: v
                       for k, v in entry.get("layers", {}).items()
                       if k.endswith(".self_share")}}
            for name, entry in report["workloads"].items()},
    }
    with HISTORY.open("a") as history:
        history.write(json.dumps(line, sort_keys=True) + "\n")


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed work per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="episode size factor (tests use 0.02)")
    parser.add_argument("--json", help="write the report to this file")
    parser.add_argument("--record", action="store_true",
                        help="append the run to history.jsonl")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print("error: run from a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = _load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: --workload must be one of {', '.join(names)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = int(spec["run_seconds"])
    # Before numpy is first imported, so no native thread pool starts.
    os.environ.update(SINGLE_THREADED)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
