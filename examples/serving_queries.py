"""Serve sketches over HTTP and query them like a client would.

The production shape of the paper's build-once / query-forever workflow:
build an index for a social-style graph, save it, memory-map it back
(cold start is O(header), not O(index)), stand up the ``repro.serve``
daemon, and fire single, batch, and whole-graph queries at it through
the keep-alive client -- printing the latency of each.

Run:  python examples/serving_queries.py
      (REPRO_SMOKE=1 shrinks the graph for CI smoke runs)
"""

import os
import statistics
import tempfile
import time

from repro.ads import AdsIndex
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily
from repro.serve import AdsServer, QueryClient

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
N = 200 if SMOKE else 1500


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = (time.perf_counter() - start) * 1e3
    print(f"  {label:<42s} {elapsed:8.2f} ms")
    return result


def main() -> None:
    graph = barabasi_albert_graph(N, 3, seed=7)
    print(f"graph: {graph}")

    # Build once, save, and reload memory-mapped: the load cost is the
    # JSON header, not the column bytes.
    index = AdsIndex.build(graph.to_csr(), k=16, family=HashFamily(11))
    path = os.path.join(tempfile.mkdtemp(), "social.adsidx")
    index.save(path)
    print(f"index: {index} -> {os.path.getsize(path) / 1e6:.1f} MB on disk")
    served = timed(
        "AdsIndex.load(mmap=True) cold start",
        lambda: AdsIndex.load(path, mmap=True),
    )

    # The same daemon `python -m repro serve --index social.adsidx`
    # runs, embedded; port=0 grabs a free port.
    with AdsServer(served, port=0, cache_size=64) as server:
        print(f"serving on {server.url}\n")
        with QueryClient(server.url) as client:
            print("single queries (one HTTP round trip each):")
            timed("GET /healthz", client.healthz)
            timed("GET /cardinality?node=42&d=3",
                  lambda: client.cardinality(node=42, d=3.0))
            timed("GET /closeness?node=42&kind=harmonic",
                  lambda: client.closeness(node=42, kind="harmonic"))
            timed("GET /node/42", lambda: client.node(42))

            print("\nbatch cardinality (100 nodes per POST):")
            nodes = list(range(min(100, N)))
            response = timed(
                "POST /cardinality x100 nodes",
                lambda: client.cardinality_batch(nodes, d=3.0),
            )
            values = [value for _, value in response["results"]]
            print(f"    mean |N_3| over the batch: "
                  f"{statistics.mean(values):.1f} nodes")

            print("\nwhole-graph queries (LRU-cached after first hit):")
            first = timed("GET /top-central (cold)",
                          lambda: client.top_central(count=5,
                                                     kind="harmonic"))
            timed("GET /top-central (cached)",
                  lambda: client.top_central(count=5, kind="harmonic"))
            print("    top-5 harmonic:",
                  [label for label, _ in first["results"]])

            stats = client.stats()
            print(f"\nserver stats: {stats['requests']} requests, "
                  f"cache {stats['cache']['hits']} hits / "
                  f"{stats['cache']['misses']} misses, "
                  f"mmap={stats['index']['mmap']}")


if __name__ == "__main__":
    main()
