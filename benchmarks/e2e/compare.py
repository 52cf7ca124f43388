#!/usr/bin/env python3
"""Compare two sets of benchmark reports: ``compare.py A*.json -- B*.json``.

``A`` is the baseline set and ``B`` the candidate; each file is a report
written by ``run.py --json``.  For every workload and end-to-end metric
the table gives each side's median and quartiles, the change of the
medians, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``unchanged`` — they differ by at most the bound;
* ``unresolved`` — a side's quartile spread exceeds the bound, so the
  runs cannot tell, unless every B run beats every A run (``better``).

Metrics whose values are identical on both sides (the quality metrics
on the same seeds) are marked ``=``.  Per-layer self shares that moved
by more than two points are listed, and schedule digests of seeds run
on both sides are compared.  Exit code 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Absolute self-share change that flags a layer as moved.
SHARE_MOVED = 0.02


def load(paths: list[str]) -> dict[str, dict[str, Any]]:
    """Per workload: metric values, self shares and digests by seed."""
    runs: dict[str, dict[str, Any]] = defaultdict(lambda: {
        "e2e": defaultdict(list), "share": defaultdict(list),
        "digests": defaultdict(set)})
    for path in paths:
        report = json.loads(Path(path).read_text())
        for name, entry in report["workloads"].items():
            side = runs[name]
            for metric, value in entry.get("e2e", {}).items():
                side["e2e"][metric].append(float(value))
            for metric, value in entry.get("layers", {}).items():
                if metric.endswith(".self_share"):
                    side["share"][metric[:-len(".self_share")]].append(
                        float(value))
            if "digest" in entry:
                side["digests"][report["seed"]].add(entry["digest"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """Signed change (positive = worse) of the medians, and the verdict."""
    q1a, median_a, q3a = quartiles(base)
    q1b, median_b, q3b = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (median_b - median_a) / abs(median_a)
    spread = max((q3a - q1a) / abs(median_a), (q3b - q1b) / abs(median_b))
    if spread > bound:
        wins = all(sign * (b - a) < 0 for a in base for b in new)
        return change, "better" if wins else "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "unchanged"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    split = argv.index("--")
    if not argv[:split] or not argv[split + 1:]:
        print("error: give report files on both sides of --",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    base, new = load(argv[:split]), load(argv[split + 1:])
    worse = 0
    print(f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28} {'change':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        a, b = base[workload], new[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not a["e2e"][name] or not b["e2e"][name]:
                continue
            change, outcome = verdict(a["e2e"][name], b["e2e"][name],
                                      metric["better"], metric["bound"])
            worse += outcome == "worse"
            same = "=" if sorted(a["e2e"][name]) == sorted(b["e2e"][name]) \
                else " "
            cells = []
            for values in (a["e2e"][name], b["e2e"][name]):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:<16} {name:<14} {cells[0]:>28} {cells[1]:>28} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}  {same}{outcome}")
        for span in sorted(set(a["share"]) & set(b["share"])):
            share_a = statistics.median(a["share"][span])
            share_b = statistics.median(b["share"][span])
            if abs(share_b - share_a) > SHARE_MOVED:
                print(f"{workload:<16}   layer {span} self share "
                      f"{share_a:.3f} -> {share_b:.3f} (moved)")
        seeds = sorted(set(a["digests"]) & set(b["digests"]))
        differ = [seed for seed in seeds
                  if a["digests"][seed] != b["digests"][seed]
                  or len(a["digests"][seed]) > 1]
        if seeds:
            print(f"{workload:<16}   digests over {len(seeds)} seed(s): "
                  + (f"DIFFER on seeds {differ}" if differ else "identical"))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
