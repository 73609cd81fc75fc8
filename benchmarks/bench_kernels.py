"""Kernel-backend benchmark (ISSUE 5 acceptance series).

The claim: the NumPy estimator kernel answers *batch* queries >= 10x
faster than the pure-Python reference loops at serving scale
(``REPRO_BENCH_KERN_N`` nodes, default 5000; k=8), in both load modes
that matter -- an eager in-memory index and the memory-mapped sharded
layout ``repro serve`` uses for big indexes.  Both backends are timed
on the *same persisted sketch set* (bit-identical answers, asserted),
steady-state: one warmup query materialises the cum-hip prefix column
and the kernel views, exactly like a serving daemon after its first
request.

Headline metrics (tracked by the CI regression gate):

* ``speedups.closeness_batch_eager`` / ``..._mmap`` -- the all-nodes
  harmonic-centrality sweep, the hottest pure-Python loop in the repo
  (one Python-level ``alpha`` call per entry; the NumPy kernel calls
  it once per distinct distance).

``cardinality_batch_eager`` / ``..._mmap`` are reported but not held
to 10x: the pure path is a C-level ``bisect`` per node on either
layout (its segments took a Python-level shard lookup per probe out
of the sharded sweep, which is what the 13-17x
``cardinality_batch_mmap`` of the committed series measured), so
vectorising buys ~2-4x, not an order of magnitude -- the honest number
is in the series.  ``REPRO_BENCH_NO_ASSERT=1`` opts out of the hard
assertions on loaded or throttled machines.
"""

import json
import math
import os
import time
from pathlib import Path

import pytest

from conftest import write_output
from repro.ads import AdsIndex, kernels
from repro.estimators.statistics import harmonic_kernel
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily

KERN_BENCH_N = int(os.environ.get("REPRO_BENCH_KERN_N", "5000"))
K = 8
SHARDS = 8
FAMILY = HashFamily(2024)
REPO_ROOT = Path(__file__).parent.parent


def _best_of(fn, rounds=3):
    fn()  # warmup: cum-hip, kernel views, unique-distance cache
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_mode(load):
    """Time both backends over one persisted index; returns the series."""
    py = load("python")
    np_ = load("numpy")
    assert py.cardinality_at(2.0) == np_.cardinality_at(2.0)
    alpha = harmonic_kernel()
    mode = {}
    for metric, run in (
        ("cardinality_batch", lambda ix: ix.cardinality_at(2.0)),
        ("closeness_batch", lambda ix: ix.closeness_centrality(alpha=alpha)),
        ("closeness_classic", lambda ix: ix.closeness_centrality(
            classic=True)),
        ("neighborhood", lambda ix: ix.neighborhood_function()),
        ("cum_hip_recompute", lambda ix: ix._compute_cum_hip()),
    ):
        python_seconds = _best_of(lambda: run(py))
        numpy_seconds = _best_of(lambda: run(np_))
        mode[metric] = {
            "python_seconds": python_seconds,
            "numpy_seconds": numpy_seconds,
            "speedup": (
                python_seconds / numpy_seconds
                if numpy_seconds > 0 else float("inf")
            ),
        }
    return mode


def test_kernel_backends(benchmark, tmp_path):
    if not kernels.numpy_available():
        pytest.skip("NumPy not installed; nothing to compare against")

    graph = barabasi_albert_graph(KERN_BENCH_N, 3, seed=7).to_csr()
    built = AdsIndex.build(graph, K, family=FAMILY, backend="python")
    single = tmp_path / "kernels.adsidx"
    sharded = tmp_path / "kernels-sharded"
    built.save(single)
    built.save(sharded, shards=SHARDS)

    def load_eager(backend):
        return AdsIndex.load(single, backend=backend, kernel_workers=1)

    def load_sharded(backend):
        return AdsIndex.load(
            sharded, mmap=True, backend=backend, kernel_workers=1
        )

    def run():
        return {
            "eager": _measure_mode(load_eager),
            "mmap_sharded": _measure_mode(load_sharded),
        }

    modes = benchmark.pedantic(run, rounds=1, iterations=1)

    import numpy

    series = {
        "benchmark": "estimator kernels: numpy vs pure-python batch queries",
        "n": KERN_BENCH_N,
        "m": graph.num_edges,
        "k": K,
        "entries": built.num_entries,
        "shards": SHARDS,
        "numpy_version": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
        "graph": f"barabasi_albert_graph({KERN_BENCH_N}, 3, seed=7)",
        "modes": modes,
        "speedups": {
            "cardinality_batch_eager":
                modes["eager"]["cardinality_batch"]["speedup"],
            "cardinality_batch_mmap":
                modes["mmap_sharded"]["cardinality_batch"]["speedup"],
            "closeness_batch_eager":
                modes["eager"]["closeness_batch"]["speedup"],
            "closeness_batch_mmap":
                modes["mmap_sharded"]["closeness_batch"]["speedup"],
            "cum_hip_recompute_eager":
                modes["eager"]["cum_hip_recompute"]["speedup"],
        },
        "note": (
            "steady-state timings (warmed cum-hip/view caches, best of 3); "
            "closeness_batch is the harmonic sweep; cardinality is "
            "bisect-bound in C for the pure backend on both layouts, so "
            "its speedup is honest but modest -- the >=10x batch-query "
            "claim is closeness (both modes)"
        ),
    }
    payload = json.dumps(series, indent=2) + "\n"
    (REPO_ROOT / "BENCH_kernels.json").write_text(payload, encoding="utf-8")
    write_output("BENCH_kernels.json", payload)

    if os.environ.get("REPRO_BENCH_NO_ASSERT") != "1":
        speedups = series["speedups"]
        assert speedups["closeness_batch_eager"] >= 10.0, speedups
        assert speedups["closeness_batch_mmap"] >= 10.0, speedups
        assert speedups["cardinality_batch_mmap"] >= 1.2, speedups
        assert speedups["cardinality_batch_eager"] >= 1.2, speedups
        assert speedups["cum_hip_recompute_eager"] >= 3.0, speedups
