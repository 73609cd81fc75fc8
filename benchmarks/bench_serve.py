"""Serving-layer benchmark (ISSUE 3 + ISSUE 7 acceptance series).

Three claims are measured on the acceptance workload
(``barabasi_albert_graph(2000, 3)``; ``REPRO_BENCH_SERVE_N`` overrides)
and persisted to ``BENCH_serve.json`` at the repository root:

1. **Cold start** -- ``AdsIndex.load(path, mmap=True)`` must cost
   O(header + manifest), not O(entries): the series records eager vs
   mmap wall times for the single-file and sharded layouts and their
   speedups.
2. **Query throughput** -- a real ``AdsServer`` on a loopback socket,
   driven through the keep-alive ``QueryClient``, must clear >= 1000
   single-node cardinality queries/sec; batch POSTs and cached
   whole-graph rankings are recorded alongside for context.
3. **Pipelining** -- the same server must answer a client that
   pipelines (``PIPELINE_DEPTH`` requests per segment) at >= 2x its
   own request-response rate: ``pipelining_speedup``, the
   dimensionless ratio the regression gate tracks.  The binary-wire
   pipelined series is recorded alongside.

``REPRO_BENCH_NO_ASSERT=1`` opts out of the hard assertions on loaded
or throttled machines, mirroring the other benches.
"""

import json
import os
import socket
import time
from pathlib import Path

from conftest import write_output
from repro.ads import AdsIndex
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily
from repro.serve import AdsServer, QueryClient
from repro.serve import wire

SERVE_BENCH_N = int(os.environ.get("REPRO_BENCH_SERVE_N", "2000"))
K = 8
FAMILY = HashFamily(77)
SINGLE_QUERIES = 2000
BATCH_SIZE = 100
BATCH_ROUNDS = 20
CACHED_QUERIES = 500
PIPELINE_DEPTH = 64
REPO_ROOT = Path(__file__).parent.parent


def _best_of(rounds, fn):
    timings = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def _load_timings(path):
    t_eager, _ = _best_of(3, lambda: AdsIndex.load(path))
    t_mmap, _ = _best_of(3, lambda: AdsIndex.load(path, mmap=True))
    return {
        "eager_seconds": t_eager,
        "mmap_seconds": t_mmap,
        "speedup": t_eager / t_mmap if t_mmap > 0 else float("inf"),
    }


def _read_responses(conn, count, buf):
    """Consume *count* Content-Length-framed responses from *conn*."""
    seen = 0
    while seen < count:
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end == -1:
                break
            length = 0
            for line in bytes(buf[:head_end]).split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            if len(buf) < head_end + 4 + length:
                break
            del buf[:head_end + 4 + length]
            seen += 1
            if seen == count:
                return
        chunk = conn.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed mid-benchmark")
        buf += chunk


def _single_node_qps(server, nodes, queries):
    """Request-response qps through the stock ``QueryClient``."""
    with QueryClient(server.url) as client:
        client.cardinality(node=nodes[0], d=3.0)  # warm
        start = time.perf_counter()
        for i in range(queries):
            client.cardinality(node=nodes[i % len(nodes)], d=3.0)
        elapsed = time.perf_counter() - start
    return {
        "queries": queries,
        "seconds": elapsed,
        "queries_per_second": queries / elapsed,
    }


def _pipelined_qps(server, nodes, queries, binary=False):
    """Single-node qps with *PIPELINE_DEPTH* requests per segment.

    One keep-alive connection, raw HTTP/1.1: each batch goes out in a
    single ``sendall`` and the responses are drained before the next
    batch, so throughput reflects the transport's pipelining, not
    client round trips.
    """
    accept = (
        f"Accept: {wire.WIRE_CONTENT_TYPE}\r\n" if binary else ""
    )
    requests = [
        (
            f"GET /cardinality?node={node}&d=3.0 HTTP/1.1\r\n"
            f"Host: bench\r\n{accept}\r\n"
        ).encode("ascii")
        for node in nodes
    ]
    conn = socket.create_connection(
        (server.host, server.port), timeout=30
    )
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        conn.sendall(requests[0])  # warm
        _read_responses(conn, 1, buf)
        sent = 0
        start = time.perf_counter()
        while sent < queries:
            depth = min(PIPELINE_DEPTH, queries - sent)
            batch = b"".join(
                requests[(sent + j) % len(requests)]
                for j in range(depth)
            )
            conn.sendall(batch)
            _read_responses(conn, depth, buf)
            sent += depth
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    return {
        "queries": queries,
        "depth": PIPELINE_DEPTH,
        "binary_wire": binary,
        "seconds": elapsed,
        "queries_per_second": queries / elapsed,
    }


def test_serve_cold_start_and_throughput(benchmark, tmp_path):
    graph = barabasi_albert_graph(SERVE_BENCH_N, 3, seed=42)
    index = AdsIndex.build(graph.to_csr(), K, family=FAMILY)
    single_path = tmp_path / "bench.adsidx"
    index.save(single_path)
    sharded_path = tmp_path / "bench-shards"
    index.save(sharded_path, shards=8)
    nodes = list(range(graph.num_nodes))

    def run():
        series = {
            "cold_start": {
                "single_file": _load_timings(single_path),
                "sharded_8": _load_timings(sharded_path),
            }
        }
        served = AdsIndex.load(single_path, mmap=True)
        with AdsServer(served, port=0, cache_size=64) as server:
            series["single_node_http"] = _single_node_qps(
                server, nodes, SINGLE_QUERIES
            )
            series["pipelined_http"] = _pipelined_qps(
                server, nodes, SINGLE_QUERIES
            )
            series["pipelined_binary"] = _pipelined_qps(
                server, nodes, SINGLE_QUERIES, binary=True
            )
            with QueryClient(server.url) as client:
                client.healthz()  # connection warm-up
                start = time.perf_counter()
                for i in range(BATCH_ROUNDS):
                    lo = (i * BATCH_SIZE) % len(nodes)
                    chunk = (nodes + nodes)[lo:lo + BATCH_SIZE]
                    client.cardinality_batch(chunk, d=3.0)
                elapsed = time.perf_counter() - start
                series["batch_http"] = {
                    "requests": BATCH_ROUNDS,
                    "batch_size": BATCH_SIZE,
                    "seconds": elapsed,
                    "node_queries_per_second": (
                        BATCH_ROUNDS * BATCH_SIZE / elapsed
                    ),
                }

                client.top_central(count=10, kind="harmonic")  # prime
                start = time.perf_counter()
                for _ in range(CACHED_QUERIES):
                    client.top_central(count=10, kind="harmonic")
                elapsed = time.perf_counter() - start
                series["cached_top_central_http"] = {
                    "queries": CACHED_QUERIES,
                    "seconds": elapsed,
                    "queries_per_second": CACHED_QUERIES / elapsed,
                }
                series["server_stats"] = client.stats()

        series["pipelining_speedup"] = (
            series["pipelined_http"]["queries_per_second"]
            / series["single_node_http"]["queries_per_second"]
        )
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    series.update({
        "benchmark": (
            "mmap cold start + HTTP serving throughput "
            "(request-response, pipelined, batched)"
        ),
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "k": K,
        "graph": f"barabasi_albert_graph({SERVE_BENCH_N}, 3, seed=42)",
        "index_bytes": os.path.getsize(single_path),
        "cpu_count": os.cpu_count() or 1,
        "note": (
            "single-node queries ride one keep-alive connection; "
            "pipelined series send PIPELINE_DEPTH raw HTTP/1.1 "
            "requests per segment and drain before the next batch; "
            "the mmap cold-start numbers are best-of-3 wall times of "
            "AdsIndex.load on each layout"
        ),
    })
    payload = json.dumps(series, indent=2) + "\n"
    (REPO_ROOT / "BENCH_serve.json").write_text(payload, encoding="utf-8")
    write_output("BENCH_serve.json", payload)

    if os.environ.get("REPRO_BENCH_NO_ASSERT") != "1":
        assert series["cold_start"]["single_file"]["speedup"] >= 5.0
        assert series["cold_start"]["sharded_8"]["speedup"] >= 5.0
        if SERVE_BENCH_N >= 2000:
            assert (
                series["single_node_http"]["queries_per_second"] >= 1000.0
            )
            assert series["pipelining_speedup"] >= 2.0
