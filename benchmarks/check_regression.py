"""Bench-regression gate: compare fresh BENCH_*.json against baselines.

The CI bench-smoke job regenerates every ``BENCH_*.json`` series at a
fixed reduced scale, then runs this script to compare the *dimensionless*
tracked metrics (speedups -- ratios survive a change of machine; raw
wall times and queries/second do not) against the committed snapshots
under ``benchmarks/baselines/``.  A tracked metric that degrades beyond
the tolerance fails the job.

Tolerance: ``REPRO_BENCH_TOLERANCE`` (default 0.5) -- deliberately
generous, because shared CI runners are noisy; the gate exists to catch
"the mmap fast path stopped being fast" class regressions (a 10x
speedup collapsing to 1x), not 10% jitter.  A higher-is-better metric
fails below ``baseline * (1 - tolerance)``; a lower-is-better metric
fails above ``baseline / (1 - tolerance)``.

Usage::

    python benchmarks/check_regression.py \
        [--current-dir .] [--baseline-dir benchmarks/baselines]

Refreshing baselines after an intentional perf change: re-run the bench
suite at the CI scale (the env values in ``.github/workflows/ci.yml``)
and copy the regenerated ``BENCH_*.json`` files into
``benchmarks/baselines/``.
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

# (file, dotted metric path -- [i] indexes a list --, direction)
TRACKED = [
    ("BENCH_csr.json", "speedup_index_vs_legacy_pd", "higher"),
    ("BENCH_csr.json", "speedup_ads_set_vs_legacy_pd", "higher"),
    ("BENCH_serve.json", "cold_start.single_file.speedup", "higher"),
    ("BENCH_serve.json", "cold_start.sharded_8.speedup", "higher"),
    ("BENCH_dynamic.json", "batches[0].speedup", "higher"),
    # cpu_count on runners varies; workers-vs-serial only has to not
    # collapse relative to the (single-core, pessimistic) baseline.
    ("BENCH_parallel.json", "speedup_workers_2_vs_1", "higher"),
    # NumPy kernel backend: batch sweeps must stay an order of
    # magnitude ahead of the pure loops (ISSUE 5 acceptance).
    ("BENCH_kernels.json", "speedups.closeness_batch_eager", "higher"),
    ("BENCH_kernels.json", "speedups.closeness_batch_mmap", "higher"),
    # The pipelined transport: a client that writes 64 requests per
    # segment over the same server's request-response rate
    # (pipelined_http / single_node_http).  A collapse toward 1 means
    # a wave of buffered requests stopped costing one read and one
    # write.
    ("BENCH_serve.json", "pipelining_speedup", "higher"),
    # Cluster fan-out: batch throughput over 2 worker processes must
    # not collapse relative to 1 (ISSUE 8 acceptance; real subprocess
    # workers, so the ratio needs real cores).
    ("BENCH_cluster.json", "scaling.batch_speedup_2w_vs_1w", "higher"),
    # Closeness similarity: the one-pass merge sweep over the
    # per-object reference on a weighted graph.  Linear vs quadratic
    # in the slice lengths, so a collapse toward 1 means the
    # per-threshold recompute is back (ISSUE 15 acceptance).
    ("BENCH_similarity.json", "speedups.closeness_vs_reference",
     "higher"),
    # Durability tier: the fsync'd WAL append must stay a small
    # constant factor on updates, and startup replay must not fall
    # behind the live apply path (ISSUE 10 acceptance).
    ("BENCH_recovery.json", "wal.update_overhead", "lower"),
    ("BENCH_recovery.json", "replay.throughput_vs_apply", "higher"),
]

# Metrics that only mean anything with real cores: skipped (with a
# printed notice) when the *fresh* series reports cpu_count == 1 --
# a single-core runner cannot show parallel speedup, and failing the
# gate there would only punish the hardware, not the code.
SKIP_ON_SINGLE_CPU = {
    ("BENCH_cluster.json", "scaling.batch_speedup_2w_vs_1w"),
}

_STEP = re.compile(r"([^.\[\]]+)(?:\[(\d+)\])?")


def extract(payload, dotted):
    """Resolve ``a.b[0].c`` inside nested dicts/lists."""
    value = payload
    for match in _STEP.finditer(dotted):
        key, index = match.group(1), match.group(2)
        if not isinstance(value, dict) or key not in value:
            raise KeyError(dotted)
        value = value[key]
        if index is not None:
            if not isinstance(value, list) or int(index) >= len(value):
                raise KeyError(dotted)
            value = value[int(index)]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise KeyError(f"{dotted} is not a number")
    return float(value)


def check(current_dir: Path, baseline_dir: Path, tolerance: float) -> int:
    failures = []
    rows = []
    for name, dotted, direction in TRACKED:
        baseline_path = baseline_dir / name
        current_path = current_dir / name
        try:
            baseline = extract(
                json.loads(baseline_path.read_text()), dotted
            )
        except (OSError, json.JSONDecodeError, KeyError) as error:
            failures.append(f"{name}:{dotted}: unreadable baseline ({error})")
            continue
        try:
            current_payload = json.loads(current_path.read_text())
            current = extract(current_payload, dotted)
        except (OSError, json.JSONDecodeError, KeyError) as error:
            failures.append(
                f"{name}:{dotted}: missing from the fresh bench run "
                f"({error}) -- did a bench stop emitting this series?"
            )
            continue
        if (name, dotted) in SKIP_ON_SINGLE_CPU and \
                current_payload.get("cpu_count") == 1:
            rows.append(
                f"  skip {name}:{dotted}: fresh series ran on a "
                "single-core machine (cpu_count=1); parallel speedup "
                "not meaningful there"
            )
            continue
        if direction == "higher":
            floor = baseline * (1.0 - tolerance)
            ok = current >= floor
            bound = f">= {floor:.3f}"
        else:
            ceiling = baseline / (1.0 - tolerance)
            ok = current <= ceiling
            bound = f"<= {ceiling:.3f}"
        rows.append(
            f"  {'ok  ' if ok else 'FAIL'} {name}:{dotted}: "
            f"current={current:.3f} baseline={baseline:.3f} ({bound})"
        )
        if not ok:
            failures.append(
                f"{name}:{dotted}: {current:.3f} degraded beyond "
                f"{bound} (baseline {baseline:.3f}, "
                f"tolerance {tolerance})"
            )
    print(f"bench-regression gate (tolerance={tolerance}):")
    print("\n".join(rows))
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("all tracked metrics within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--current-dir", default=".", type=Path,
        help="directory holding the freshly generated BENCH_*.json",
    )
    parser.add_argument(
        "--baseline-dir", default=Path("benchmarks/baselines"), type=Path,
        help="directory holding the committed baseline snapshots",
    )
    args = parser.parse_args(argv)
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.5"))
    if not 0.0 <= tolerance < 1.0:
        print(f"REPRO_BENCH_TOLERANCE must be in [0, 1), got {tolerance}",
              file=sys.stderr)
        return 2
    return check(args.current_dir, args.baseline_dir, tolerance)


if __name__ == "__main__":
    sys.exit(main())
