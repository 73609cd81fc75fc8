#!/usr/bin/env python3
"""One benchmark for the whole stack (see README.md beside this file).

    python3 benchmarks/harness/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1] [--out DIR]

generates every input from the seed, pushes each workload through the
build, analytics, serve_read and serve_write stages with the product's
defaults, checks the outputs, prints every metric by name with its unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
the metrics ``BENCHMARK.json`` declares for that pass (end-to-end when
untraced, per-layer when traced).  It imports the product from the
``src/`` directory of the checkout it sits in, and exits non-zero
without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HARNESS_DIR = Path(__file__).resolve().parent
ROOT = HARNESS_DIR.parent.parent
SRC = ROOT / "src"


def declared_metrics() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(seed: int) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
    }


def combine_laps(laps, spec: Dict[str, Any]):
    """One Report from the laps' Reports, plus what went into each
    number: the best of the pooled samples of what a stage reported as
    a ``timing``, the median lap of everything else (README.md, "Which
    statistic is reported")."""
    import core
    from loadgen import median

    better = {
        m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    combined = core.Report()
    pooled: Dict[str, List[float]] = {}
    for report in laps:
        combined.count(report.attempted - len(report.checks),
                       report.failed - sum(not ok for _, ok, _ in report.checks))
        for check, ok, detail in report.checks:
            combined.check(check, ok, detail)
        combined.labels.update(report.labels)
        combined.budgets.update(report.budgets)
        for name, (value, unit) in report.metrics.items():
            pooled.setdefault(name, []).extend(
                report.samples.get(name, [value])
            )
            combined.metrics[name] = (value, unit)   # unit; value set below
            if name in report.samples:
                combined.samples[name] = pooled[name]
    for name, values in pooled.items():
        if name not in combined.samples:
            value = median(values)
        elif better[name] == "higher":
            value = max(values)
        else:
            value = min(values)
        combined.metrics[name] = (value, combined.metrics[name][1])
    return combined, pooled


def run_workload(workload, seed: int, seconds: float, laps: int,
                 out_dir: Path, tracer, spec: Dict[str, Any]):
    """*laps* laps of all four stages for one workload; returns the
    combined Report and every metric's samples, pooled over the laps."""
    import core
    import probes
    import stages
    import workloads as wl

    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=out_dir))
    reports = []
    try:
        for lap in range(laps):
            lap_dir = work / f"lap-{lap}"
            lap_dir.mkdir()
            run = core.Run(
                workload=workload, seed=seed,
                phases=wl.Phases.from_seconds(seconds, laps),
                tracer=tracer, report=core.Report(), work=lap_dir, src=SRC,
                final=lap == laps - 1,
            )
            with tracer.timed(f"lap.{workload.name}", f"lap-{lap}"):
                core.generate_inputs(run)
                stages.run_build(run)
                stages.run_analytics(run)
                stages.run_serve_read(run)
                stages.run_serve_write(run)
                if run.probing:
                    probes.write_path(run)
            parts = run.setup_parts
            run.report.put("setup_s", sum(parts.values()), "s")
            run.report.put("setup.inputs_s", parts["inputs"], "s")
            run.report.put("setup.spawn_read_s", parts["spawn.read"], "s")
            run.report.put("setup.spawn_write_s", parts["spawn.write"], "s")
            reports.append(run.report)
            shutil.rmtree(lap_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return combine_laps(reports, spec)


def print_report(name: str, report, pooled, spec: Dict[str, Any],
                 traced: bool) -> None:
    from loadgen import median

    end_to_end = [m["name"] for m in spec["end_to_end"]]

    def row(metric: str) -> None:
        value, unit = report.metrics[metric]
        values = sorted(pooled[metric])
        print(f"  {metric:42s} {value:14.6g} {unit:17s} n={len(values)} "
              f"min {values[0]:.5g} / median {median(values):.5g} / "
              f"max {values[-1]:.5g}")

    print(f"\n== {name} ({'traced' if traced else 'untraced'}) ==")
    print("end-to-end" + (" (informational: traced run)" if traced else ""))
    for metric in end_to_end:
        if metric in report.metrics:
            row(metric)
    print("per-layer")
    for metric in sorted(report.metrics):
        if metric not in end_to_end:
            row(metric)
    for label in sorted(report.labels):
        print(f"  {label:42s} {report.labels[label]}")
    for title, rows in report.budgets.items():
        print(f"budget: {title}")
        for layer, value, unit in rows:
            print(f"  {layer:58s} {value:12.4g} {unit}")
    print("checks")
    for check, ok, detail in report.checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {check}  {detail}")
    print(f"attempted={report.attempted} failed={report.failed} "
          f"correct={report.correct}")


# The stage timing each pass shares, for trace_overhead_share.
_OVERHEAD_PROBES = ("build_to_first_answer_s", "read_p50_ms", "update_p50_ms")


def print_trace_overhead(name: str, report, out_dir: Path, seed: int,
                         seconds: float) -> None:
    """Traced minus untraced, when an untraced run of the same workload,
    seed and length has left its results in *out_dir*."""
    for path in sorted(out_dir.glob("results-*.json"), reverse=True):
        try:
            runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        except (ValueError, KeyError, OSError):
            continue
        for run in runs:
            if (run["workload"], run["seed"], run["seconds"], run["trace"]) \
                    != (name, seed, seconds, 0):
                continue
            shares = []
            for metric in _OVERHEAD_PROBES:
                base = run["metrics"][metric]["value"]
                shares.append((report.value(metric) - base) / base)
                print(f"  trace_overhead_share.{metric:30s} {shares[-1]:+.4f}")
            print(f"  trace_overhead_share {max(shares):+.4f} "
                  f"(vs {path.name})")
            return
    print("  trace_overhead_share: no untraced run of this workload, seed "
          "and length in --out; run with --trace 0 first")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HARNESS_DIR / "out"))
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test scale: 300-node graphs, one lap")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no product source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads as wl
    from spans import Tracer

    spec = declared_metrics()
    seconds = float(spec["run_seconds"] if args.seconds is None
                    else args.seconds)
    if args.workload == "all":
        names = list(wl.WORKLOADS)
    elif args.workload in wl.WORKLOADS:
        names = [args.workload]
    else:
        print(f"run.py: unknown workload {args.workload!r}; expected one of "
              f"{list(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wanted = [m["name"] for m in
              (spec["per_layer"] if traced else spec["end_to_end"])]

    tracer = Tracer(traced)
    runs, last = [], None
    for name in names:
        workload = wl.WORKLOADS[name]
        if args.toy:
            workload = wl.toy(workload)
        report, pooled = run_workload(
            workload, args.seed, seconds, 1 if args.toy else wl.LAPS,
            out_dir, tracer, spec,
        )
        print_report(name, report, pooled, spec, traced)
        if traced:
            print_trace_overhead(name, report, out_dir, args.seed, seconds)
        missing = [m for m in wanted if m not in report.metrics]
        if missing:
            print(f"run.py: declared metrics not measured: {missing}",
                  file=sys.stderr)
            return 3
        last = {
            "correct": report.correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {
                m: {"value": report.metrics[m][0], "unit": report.metrics[m][1]}
                for m in wanted
            },
        }
        runs.append({
            "workload": name, "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "toy": args.toy,
            "correct": report.correct, "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {
                m: {"value": v, "unit": u}
                for m, (v, u) in sorted(report.metrics.items())
            },
            "samples": {m: v for m, v in sorted(pooled.items())},
            "labels": report.labels,
            "checks": [list(c) for c in report.checks],
        })

    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (out_dir / f"results-{stamp}.json").write_text(json.dumps({
        "env": environment(args.seed), "runs": runs,
    }, indent=1), encoding="utf-8")
    if traced:
        tracer.write(out_dir / "trace.jsonl")
        print(f"\n{len(tracer.spans)} spans -> {out_dir / 'trace.jsonl'}")
        totals = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
        print("self time by span name (top 12)")
        for span_name, seconds_spent in totals[:12]:
            print(f"  {span_name:42s} {seconds_spent:10.3f} s")
    sys.stdout.flush()
    # The contract line: the last line of standard output.
    print(json.dumps(last if len(names) == 1 else
                     {"runs": len(runs),
                      "correct": all(r["correct"] for r in runs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
