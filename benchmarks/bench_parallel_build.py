"""Sharded multi-process ADS build scaling (ISSUE 2 acceptance series).

Races ``AdsIndex.build(workers=w)`` for w in {1, 2, 4} against the plain
serial build on the acceptance workload (barabasi_albert_graph(2000, 3),
``REPRO_BENCH_PAR_N`` overrides), verifies every parallel result is
bit-identical to the serial index column-for-column, and persists the
scaling curve to ``BENCH_parallel.json`` at the repository root.

The >= 2x speedup assertion for workers=4 only applies when the machine
actually has 4+ cores (``os.cpu_count()``); on smaller machines the JSON
records ``speedup_capped_by_hardware`` so the cap is documented rather
than silently ignored.  ``REPRO_BENCH_NO_ASSERT=1`` opts out on loaded
or throttled machines, mirroring the CSR bench.
"""

import json
import os
import time
from pathlib import Path

from conftest import write_output
from repro.ads import AdsIndex
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily

PAR_BENCH_N = int(os.environ.get("REPRO_BENCH_PAR_N", "2000"))
WORKER_SERIES = (1, 2, 4)
FAMILY = HashFamily(77)
K = 8
REPO_ROOT = Path(__file__).parent.parent


def _columns(index):
    # A built index is one segment over its owned arrays.
    (part,) = index._segments.segments
    return tuple(part[1:6]) + (index._cum_hip, index._node_tables)


def _best_of(rounds, fn):
    timings = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def test_parallel_build_scaling(benchmark):
    graph = barabasi_albert_graph(PAR_BENCH_N, 3, seed=42)
    csr = graph.to_csr()
    cpu_count = os.cpu_count() or 1

    def run():
        t_serial, serial = _best_of(
            2, lambda: AdsIndex.build(csr, K, family=FAMILY)
        )
        timings = {"serial": t_serial}
        identical = {}
        for workers in WORKER_SERIES:
            # Fixed shards=4 for every point so the shard/replay
            # overhead is constant and the curve isolates process
            # parallelism; workers=1 is the in-process sharded
            # pipeline, not a re-timing of the serial path.
            t_workers, index = _best_of(
                2,
                lambda w=workers: AdsIndex.build(
                    csr, K, family=FAMILY, workers=w, shards=4
                ),
            )
            timings[f"workers_{workers}"] = t_workers
            identical[f"workers_{workers}"] = (
                _columns(index) == _columns(serial)
            )
        return timings, identical

    timings, identical = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(identical.values()), identical

    speedup_4_vs_1 = timings["workers_1"] / timings["workers_4"]
    series = {
        "benchmark": "sharded multi-process ADS index build scaling",
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "k": K,
        "graph": f"barabasi_albert_graph({PAR_BENCH_N}, 3, seed=42)",
        "cpu_count": cpu_count,
        "timings_seconds": timings,
        "speedup_workers_4_vs_1": speedup_4_vs_1,
        "speedup_workers_2_vs_1": timings["workers_1"] / timings["workers_2"],
        "bit_identical_to_serial": identical,
        "speedup_capped_by_hardware": cpu_count < 4,
        "note": (
            "workers shard the candidate scans across processes (shards=4 "
            "at every point, so workers_1 is the in-process sharded "
            "pipeline and the curve isolates process parallelism) and "
            "merge by exact competition replay; with fewer than 4 physical "
            "cores the workers=4 run cannot reach the 2x acceptance "
            "speedup, which cpu_count documents"
        ),
    }
    payload = json.dumps(series, indent=2) + "\n"
    (REPO_ROOT / "BENCH_parallel.json").write_text(payload, encoding="utf-8")
    write_output("BENCH_parallel.json", payload)

    # The scaling assertion needs the acceptance size, >= 4 cores to
    # scale onto, and an unloaded machine.
    if (
        PAR_BENCH_N >= 2000
        and cpu_count >= 4
        and os.environ.get("REPRO_BENCH_NO_ASSERT") != "1"
    ):
        assert speedup_4_vs_1 >= 2.0
