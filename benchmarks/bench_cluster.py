"""Cluster serving benchmark (ISSUE 8 acceptance series).

The cluster tier's reason to exist is horizontal scaling: a batch
query scattered over N shard *worker processes* should complete
faster than the same batch against one process, because each worker
sweeps only its own node range on its own core.  This bench measures
that with real worker subprocesses (``python -m repro serve
--cluster START:STOP``) -- in-process workers would share one GIL and
could never show it -- fronted by an in-process
:class:`~repro.serve.cluster.RouterServer`.

Series persisted to ``BENCH_cluster.json``:

* ``single_server`` -- the no-router baseline: one worker process
  serving the full index, driven directly.
* ``cluster_1w`` / ``cluster_2w`` -- the same workload through the
  router over 1 and 2 shard workers.  Both worker counts run the
  identical range-sweep code path (the 1-worker cluster also gets an
  explicit node range), so the ratio isolates *fan-out parallelism*
  from per-node-vs-batch kernel differences.
* ``scaling.batch_speedup_2w_vs_1w`` -- the regression-gated ratio:
  batch-query throughput with 2 workers over 1 worker.  Gated only on
  multi-core machines (``cpu_count`` is recorded for the gate's
  single-core skip).
* ``router_overhead`` -- single-node request-response qps through the
  router over the direct-to-worker baseline (the price of a hop).

``REPRO_BENCH_CLUSTER_N`` (default 2000) scales the graph;
``REPRO_BENCH_NO_ASSERT=1`` opts out of hard assertions on loaded
machines.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from conftest import write_output
from repro.ads import AdsIndex
from repro.ads.storage import shard_ranges
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily
from repro.serve import QueryClient, RouterServer

CLUSTER_BENCH_N = int(os.environ.get("REPRO_BENCH_CLUSTER_N", "2000"))
K = 8
FAMILY = HashFamily(77)
BATCH_SIZE = 200
BATCH_ROUNDS = 12
SINGLE_QUERIES = 300
REPO_ROOT = Path(__file__).parent.parent
_URL_LINE = re.compile(r"on (http://[\d.:]+)")


class _Worker:
    """One real ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, index_path, node_range=None):
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--index", str(index_path), "--port", "0",
        ]
        if node_range is not None:
            start, stop = node_range
            argv += ["--cluster", f"{start}:{'' if stop is None else stop}"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        self.proc = subprocess.Popen(
            argv, stderr=subprocess.PIPE, text=True, env=env
        )
        banner = self.proc.stderr.readline()
        found = _URL_LINE.search(banner)
        if not found:
            self.proc.terminate()
            raise RuntimeError(f"worker failed to start: {banner!r}")
        self.url = found.group(1)

    def close(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()


def _batch_qps(url, nodes):
    """Scatter/merge throughput: node-queries/sec over batch POSTs."""
    with QueryClient(url, wire_mode="binary") as client:
        chunk = nodes[:BATCH_SIZE]
        client.cardinality_batch(chunk, d=3.0)  # warm every shard
        start = time.perf_counter()
        for i in range(BATCH_ROUNDS):
            lo = (i * BATCH_SIZE) % len(nodes)
            chunk = (nodes + nodes)[lo:lo + BATCH_SIZE]
            client.cardinality_batch(chunk, d=3.0)
        elapsed = time.perf_counter() - start
    return {
        "requests": BATCH_ROUNDS,
        "batch_size": BATCH_SIZE,
        "seconds": elapsed,
        "node_queries_per_second": BATCH_ROUNDS * BATCH_SIZE / elapsed,
    }


def _sweep_seconds(url):
    """One uncached whole-graph closeness sweep, fanned and merged."""
    with QueryClient(url, wire_mode="binary") as client:
        start = time.perf_counter()
        client.closeness(kind="harmonic")
        return time.perf_counter() - start


def _single_qps(url, nodes):
    with QueryClient(url, wire_mode="binary") as client:
        client.cardinality(node=nodes[0], d=3.0)  # warm
        start = time.perf_counter()
        for i in range(SINGLE_QUERIES):
            client.cardinality(node=nodes[i % len(nodes)], d=3.0)
        elapsed = time.perf_counter() - start
    return {
        "queries": SINGLE_QUERIES,
        "seconds": elapsed,
        "queries_per_second": SINGLE_QUERIES / elapsed,
    }


def _cluster_run(index, index_path, workers, nodes):
    """Spin *workers* shard subprocesses + a router, run the drivers."""
    ranges = [
        (start, None if i == workers - 1 else stop)
        for i, (start, stop) in enumerate(
            shard_ranges(index.num_nodes, workers)
        )
    ]
    procs = [_Worker(index_path, node_range=r) for r in ranges]
    router = RouterServer(
        index.nodes(),
        [(r, [w.url]) for r, w in zip(ranges, procs)],
        cache_size=0,
    )
    router.start()
    try:
        return {
            "workers": workers,
            "batch": _batch_qps(router.url, nodes),
            "sweep_closeness_seconds": _sweep_seconds(router.url),
            "single_node": _single_qps(router.url, nodes),
        }
    finally:
        router.shutdown()
        for worker in procs:
            worker.close()


def test_cluster_scaling(benchmark, tmp_path):
    graph = barabasi_albert_graph(CLUSTER_BENCH_N, 3, seed=42)
    index = AdsIndex.build(graph.to_csr(), K, family=FAMILY)
    index_path = tmp_path / "bench.adsidx"
    index.save(index_path)
    nodes = list(range(graph.num_nodes))

    def run():
        series = {}
        # Baseline: one full-index worker process, no router hop.
        baseline = _Worker(index_path)
        try:
            series["single_server"] = {
                "batch": _batch_qps(baseline.url, nodes),
                "single_node": _single_qps(baseline.url, nodes),
            }
        finally:
            baseline.close()
        series["cluster_1w"] = _cluster_run(
            index, index_path, 1, nodes
        )
        series["cluster_2w"] = _cluster_run(
            index, index_path, 2, nodes
        )
        batch_1w = series["cluster_1w"]["batch"][
            "node_queries_per_second"
        ]
        batch_2w = series["cluster_2w"]["batch"][
            "node_queries_per_second"
        ]
        series["scaling"] = {
            # The gated ratio: same router, same range-sweep code
            # path, only the worker count changes.
            "batch_speedup_2w_vs_1w": batch_2w / batch_1w,
            "sweep_speedup_2w_vs_1w": (
                series["cluster_1w"]["sweep_closeness_seconds"]
                / series["cluster_2w"]["sweep_closeness_seconds"]
            ),
        }
        series["router_overhead"] = {
            "single_node_qps_ratio": (
                series["cluster_1w"]["single_node"][
                    "queries_per_second"
                ]
                / series["single_server"]["single_node"][
                    "queries_per_second"
                ]
            ),
        }
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    series.update({
        "benchmark": (
            "sharded cluster serving: fan-out scaling over real "
            "worker processes"
        ),
        "n": graph.num_nodes,
        "k": K,
        "cpu_count": os.cpu_count(),
    })
    if os.environ.get("REPRO_BENCH_NO_ASSERT") != "1":
        # The cluster must answer correctly whatever the speedup; the
        # scaling ratio itself is enforced by the regression gate
        # (skipped on single-core machines), not a hard assert here.
        assert series["scaling"]["batch_speedup_2w_vs_1w"] > 0.0
    payload = json.dumps(series, indent=2, sort_keys=True)
    (REPO_ROOT / "BENCH_cluster.json").write_text(
        payload, encoding="utf-8"
    )
    write_output("BENCH_cluster.json", payload)
    print(payload)
