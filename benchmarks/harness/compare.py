#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the benchmark's own bounds.

    python3 benchmarks/harness/compare.py A B

``A`` (the baseline) and ``B`` are each a ``results-*.json`` file that
``run.py`` wrote, or a directory of them.  Every end-to-end metric of
every workload gets one row: the two medians, the relative change in
the *worse* direction, and a verdict --

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the bound;
* ``within``      the medians differ by no more than the bound;
* ``unresolved``  a side's own run-to-run spread (distance between its
  quartiles over its median, four runs or more) is wider than the
  bound, so the comparison cannot say "unchanged".

Per-layer metrics (traced runs) are listed without a verdict: they have
no bound.  Exit status 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_RUNS_FOR_SPREAD = 4


def load_runs(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("results-*.json")) if path.is_dir() else [path]
    runs: List[Dict[str, Any]] = []
    for file in files:
        runs.extend(json.loads(file.read_text(encoding="utf-8"))["runs"])
    return runs


def values_of(runs, workload: str, metric: str, trace: int) -> List[float]:
    return [
        run["metrics"][metric]["value"] for run in runs
        if run["workload"] == workload and run["trace"] == trace
        and metric in run["metrics"]
    ]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median."""
    if len(values) < MIN_RUNS_FOR_SPREAD:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else float("inf")


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, worsening)``: worsening is B's median relative to
    A's, positive in the direction that counts as worse."""
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / abs(base) if base else float("inf")
    worsening = change if better == "lower" else -change
    for side in (a, b):
        width = spread(side)
        if width is not None and width > bound:
            return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within", worsening


def compare(runs_a, runs_b, spec: Dict[str, Any]) -> Tuple[List[str], int]:
    lines, worse = [], 0
    workloads = [w["name"] for w in spec["workloads"]]
    lines.append(f"{'workload':14s} {'metric':28s} {'A median':>14s} "
                 f"{'B median':>14s} {'worsening':>10s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = values_of(runs_a, workload, metric["name"], 0)
            b = values_of(runs_b, workload, metric["name"], 0)
            if not a or not b:
                continue
            result, worsening = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            lines.append(
                f"{workload:14s} {metric['name']:28s} "
                f"{statistics.median(a):14.6g} {statistics.median(b):14.6g} "
                f"{worsening:+10.4f} {metric['bound']:6.2f}  {result}"
                f" (n={len(a)}/{len(b)})"
            )
    for workload in workloads:
        for metric in spec["per_layer"]:
            a = values_of(runs_a, workload, metric["name"], 1)
            b = values_of(runs_b, workload, metric["name"], 1)
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            change = (new - base) / abs(base) if base else 0.0
            lines.append(
                f"{workload:14s} {metric['name']:36s} {base:14.6g} "
                f"{new:14.6g} {change:+10.4f}  per-layer, no bound"
            )
    return lines, worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, worse = compare(
        load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec
    )
    print("\n".join(lines))
    print(f"{worse} row(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
