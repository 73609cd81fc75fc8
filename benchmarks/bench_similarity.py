"""Similarity / distance-oracle benchmark (ISSUE 9 acceptance series).

The service tier's pitch is that pairwise queries run on the flat
index columns -- no per-node sketch objects materialised.  The ops
exist once (``repro.ads.kernels.pure``, whatever ``backend=`` the index
was loaded with: the NumPy mirror read 0.81-0.91x of these loops here
and was level at harness scale, so it was deleted), and this bench
records what they cost.

Series persisted to ``BENCH_similarity.json``:

* ``throughput.python`` -- pairs/second for the distance oracle
  (``pairs_distance_estimate``), the d-neighborhood Jaccard batch
  (``pairs_neighborhood_jaccard``) and the union-size batch, one
  ``most_similar`` nearest-neighbor scan, plus ``closeness_pairs``:
  ``pairs_closeness_similarity`` on a *weighted* copy of the graph
  (nearly all-distinct distances, so the distance grid is as long as
  the two slices together -- the worst case for anything that
  recomputes per grid step).  ``throughput.reference`` is the
  per-object ``repro.centrality.similarity.closeness_similarity`` on
  the same pairs.
* ``speedups.closeness_vs_reference`` -- the one-pass merge sweep over
  that reference, answers asserted equal first.  Regression-gated: the
  reference re-extracts both sketches per grid distance, and this
  ratio falling toward 1 means that loop is back.

``REPRO_BENCH_SIM_N`` (default 3000) scales the graph,
``REPRO_BENCH_SIM_PAIRS`` (default 4000) the pair batch;
``REPRO_BENCH_NO_ASSERT=1`` opts out of hard assertions on loaded
machines.
"""

import json
import math
import os
import time
from pathlib import Path

from conftest import write_output
from repro.ads import AdsIndex
from repro.centrality.similarity import closeness_similarity
from repro.graph import barabasi_albert_graph
from repro.graph.digraph import Graph
from repro.rand.hashing import HashFamily

SIM_BENCH_N = int(os.environ.get("REPRO_BENCH_SIM_N", "3000"))
SIM_BENCH_PAIRS = int(os.environ.get("REPRO_BENCH_SIM_PAIRS", "4000"))
# The per-object closeness reference costs milliseconds per pair; a
# fixed small batch keeps its three timed rounds to a few seconds.
CLOSENESS_PAIRS = 200
K = 8
D = 2.0
FAMILY = HashFamily(99)
REPO_ROOT = Path(__file__).parent.parent


def _pair_batch(n, count):
    """A deterministic pseudo-random pair batch (no RNG dependency)."""
    return [
        ((i * 7919) % n, (i * 104729 + 13) % n) for i in range(count)
    ]


def _weighted_copy(graph):
    """The same edges with deterministic weights in [0.5, 1.5)."""
    weighted = Graph(directed=False)
    for u in graph.nodes():
        weighted.add_node(u)
    for u, v, _ in graph.edges():
        weighted.add_edge(u, v, 0.5 + ((u * 7919 + v * 104729) % 1000) / 1000)
    return weighted


def _pairs_per_second(count, seconds):
    return count / seconds if seconds > 0 else float("inf")


def _best_of(fn, rounds=3):
    fn()  # warmup: segments cut, per-node rank table derived
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(index, pairs):
    runs = {
        "distance_pairs": lambda: index.pairs_distance_estimate(pairs),
        "jaccard_pairs": lambda: index.pairs_neighborhood_jaccard(
            pairs, D
        ),
        "union_size_pairs": lambda: index.pairs_union_size_estimate(
            pairs, D
        ),
    }
    series = {}
    for metric, run in runs.items():
        seconds = _best_of(run)
        series[metric] = {
            "seconds": seconds,
            "pairs_per_second": _pairs_per_second(len(pairs), seconds),
        }
    scan_seconds = _best_of(
        lambda: index.most_similar(0, count=10, d=D)
    )
    series["most_similar_scan"] = {
        "seconds": scan_seconds,
        "candidates_per_second": (
            index.num_nodes / scan_seconds
            if scan_seconds > 0 else float("inf")
        ),
    }
    return series


def test_similarity_throughput(benchmark):
    base = barabasi_albert_graph(SIM_BENCH_N, 3, seed=7)
    graph = base.to_csr()
    index = AdsIndex.build(graph, K, family=FAMILY)
    pairs = _pair_batch(SIM_BENCH_N, SIM_BENCH_PAIRS)

    # Closeness similarity, on the weighted copy: the sweep and the
    # per-object reference over the same pairs.
    weighted = AdsIndex.build(_weighted_copy(base).to_csr(), K, family=FAMILY)
    closeness_pairs = pairs[:CLOSENESS_PAIRS]
    sketches = weighted.to_ads_set()

    def closeness_reference():
        return [
            closeness_similarity(sketches[u], sketches[v])
            for u, v in closeness_pairs
        ]

    # Equal answers first: timings of divergent answers are meaningless.
    assert weighted.pairs_closeness_similarity(closeness_pairs) == \
        closeness_reference()

    def measure_closeness(run):
        seconds = _best_of(run)
        return {
            "seconds": seconds,
            "pairs_per_second": _pairs_per_second(
                len(closeness_pairs), seconds
            ),
        }

    def run():
        throughput = {"python": _measure(index, pairs)}
        throughput["python"]["closeness_pairs"] = measure_closeness(
            lambda: weighted.pairs_closeness_similarity(closeness_pairs)
        )
        throughput["reference"] = {
            "closeness_pairs": measure_closeness(closeness_reference)
        }
        return throughput

    throughput = benchmark.pedantic(run, rounds=1, iterations=1)
    speedups = {
        "closeness_vs_reference": (
            throughput["python"]["closeness_pairs"]["pairs_per_second"]
            / throughput["reference"]["closeness_pairs"]["pairs_per_second"]
        ),
    }
    series = {
        "benchmark": (
            "similarity service tier: batch pair queries off the flat "
            "columns (one implementation, the pure-python kernel)"
        ),
        "n": SIM_BENCH_N,
        "m": graph.num_edges,
        "k": K,
        "d": D,
        "pairs": len(pairs),
        "closeness_pairs": len(closeness_pairs),
        "cpu_count": os.cpu_count() or 1,
        "graph": f"barabasi_albert_graph({SIM_BENCH_N}, 3, seed=7)",
        "closeness_graph": "the same edges, weights in [0.5, 1.5)",
        "throughput": throughput,
        "speedups": speedups,
        "note": (
            "steady-state timings (segments cut, rank table derived, "
            "best of 3); the gated ratio is the merge sweep over the "
            "per-object closeness reference"
        ),
    }
    payload = json.dumps(series, indent=2, sort_keys=True) + "\n"
    (REPO_ROOT / "BENCH_similarity.json").write_text(
        payload, encoding="utf-8"
    )
    write_output("BENCH_similarity.json", payload)

    if os.environ.get("REPRO_BENCH_NO_ASSERT") != "1":
        # The sweep's cost is linear in the two slices, the
        # reference's quadratic: anything near parity means the
        # per-threshold loop came back.
        assert speedups["closeness_vs_reference"] >= 2.0, speedups
