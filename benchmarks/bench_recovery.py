"""Durability-tier benchmark (ISSUE 10 acceptance series).

Three costs bound how cheap the crash-recovery machinery is allowed to
be:

* ``wal.update_overhead`` -- the per-batch price of durability: one
  fsync'd WAL append ahead of each ``apply_edges``, measured as the
  ratio of (append + apply) over plain apply.  Tracked lower-is-better
  as a collapse guard: the append must stay a small constant factor,
  never the dominant cost of an update.
* ``replay.throughput_vs_apply`` -- startup recovery speed: replaying
  N logged batches (scan + checksum + apply) against applying the same
  batches live.  Replay skips request parsing and label coercion
  (batches are logged post-coercion), so it must not fall behind the
  live path.  Tracked higher-is-better.
* ``resync.points`` -- self-healing latency vs index size: the full
  donor-snapshot -> install -> digest-verify -> flush round trip over
  real HTTP for a sweep of index sizes, with the snapshot/install
  split out.  Informational (wall times do not survive a change of
  machine), not gated.

Scale via ``REPRO_BENCH_RECOVERY_N`` (default 600 nodes) and
``REPRO_BENCH_RECOVERY_BATCHES`` (default 40 batches).  The series
lands in ``BENCH_recovery.json`` at the repository root and the two
ratios are tracked by the CI bench-regression gate.
``REPRO_BENCH_NO_ASSERT=1`` opts out of the hard assertions.
"""

import json
import os
import random
import time
from pathlib import Path

from conftest import write_output
from repro.ads import AdsIndex
from repro.ads.wal import WriteAheadLog
from repro.graph import barabasi_albert_graph
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily
from repro.serve import AdsServer
from repro.serve.membership import Replica

RECOVERY_N = int(os.environ.get("REPRO_BENCH_RECOVERY_N", "600"))
RECOVERY_BATCHES = int(
    os.environ.get("REPRO_BENCH_RECOVERY_BATCHES", "40")
)
K = 8
FAMILY = HashFamily(2024)
RESYNC_SIZES = (RECOVERY_N // 4, RECOVERY_N // 2, RECOVERY_N)
REPO_ROOT = Path(__file__).parent.parent


def _random_batches(rng, n, count, size=4):
    batches = []
    for _ in range(count):
        batch = []
        while len(batch) < size:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                batch.append((u, v))
        batches.append(batch)
    return batches


def _fresh_state(base_edges, nodes):
    graph = CSRGraph.from_edges(base_edges, directed=False, nodes=nodes)
    index = AdsIndex.build(graph, K, family=FAMILY)
    return graph, index


def _apply_all(graph, index, batches, wal=None):
    start = time.perf_counter()
    for batch in batches:
        if wal is not None:
            wal.append(batch)
        index.apply_edges(graph, batch)
    return time.perf_counter() - start


def test_wal_overhead_and_replay(benchmark, tmp_path):
    base = barabasi_albert_graph(RECOVERY_N, 3, seed=7)
    base_edges = list(base.edges())
    nodes = base.nodes()
    batches = _random_batches(
        random.Random(13), RECOVERY_N, RECOVERY_BATCHES
    )

    def run():
        # Plain updates: the price of an update with no durability.
        graph, index = _fresh_state(base_edges, nodes)
        plain = _apply_all(graph, index, batches)
        reference_digest = index.content_digest()

        # Durable updates: identical batches, one fsync'd append each.
        graph, index = _fresh_state(base_edges, nodes)
        wal = WriteAheadLog(tmp_path / "wal")
        walled = _apply_all(graph, index, batches, wal=wal)
        assert index.content_digest() == reference_digest
        wal.close()

        # Crash recovery: scan the log and replay every batch over a
        # fresh build (exactly what a restarting --wal-dir server does).
        graph, index = _fresh_state(base_edges, nodes)
        start = time.perf_counter()
        reopened = WriteAheadLog(tmp_path / "wal")
        records = reopened.pending()
        for record in records:
            index.apply_edges(graph, record.edges)
        replay = time.perf_counter() - start
        reopened.close()
        assert len(records) == len(batches)
        assert index.content_digest() == reference_digest

        return {
            "wal": {
                "batches": len(batches),
                "plain_apply_seconds": plain,
                "walled_apply_seconds": walled,
                "append_seconds_per_batch":
                    (walled - plain) / len(batches),
                "update_overhead": walled / plain if plain > 0
                else float("inf"),
            },
            "replay": {
                "replay_seconds": replay,
                "batches_per_second": len(records) / replay
                if replay > 0 else float("inf"),
                "throughput_vs_apply": plain / replay if replay > 0
                else float("inf"),
            },
        }

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    series["resync"] = _resync_sweep()
    series.update({
        "benchmark": "WAL append overhead, replay throughput, "
        "resync latency",
        "n": RECOVERY_N,
        "k": K,
        "graph": f"barabasi_albert_graph({RECOVERY_N}, 3, seed=7)",
        "cpu_count": os.cpu_count() or 1,
        "note": (
            "update_overhead = durable/plain wall-time ratio over "
            f"{RECOVERY_BATCHES} 4-edge batches; resync points time "
            "the full HTTP snapshot->install->verify->flush round trip"
        ),
    })
    payload = json.dumps(series, indent=2) + "\n"
    (REPO_ROOT / "BENCH_recovery.json").write_text(
        payload, encoding="utf-8"
    )
    write_output("BENCH_recovery.json", payload)

    if os.environ.get("REPRO_BENCH_NO_ASSERT") != "1":
        # Durability must be a constant-factor tax, not the workload.
        assert series["wal"]["update_overhead"] < 10.0, (
            "fsync'd WAL appends dominate update cost: "
            f"{series['wal']['update_overhead']:.2f}x over plain apply"
        )
        # Replay re-runs the same kernels minus request handling; it
        # collapsing below half the live path means the scan went
        # quadratic or the log format got expensive to parse.
        assert series["replay"]["throughput_vs_apply"] > 0.5, (
            "WAL replay fell far behind live apply: "
            f"{series['replay']['throughput_vs_apply']:.2f}x"
        )


def _resync_sweep():
    """Time donor-snapshot -> install for a sweep of index sizes."""
    points = []
    for n in RESYNC_SIZES:
        base = barabasi_albert_graph(n, 3, seed=7)
        edges = list(base.edges())
        nodes = base.nodes()
        donor_graph, donor_index = _fresh_state(edges, nodes)
        stale_graph, stale_index = _fresh_state(edges, nodes)
        # The donor is ahead by one committed batch -- the exact state
        # a quarantined replica missed.
        donor_index.apply_edges(donor_graph, [(0, n - 1)])
        donor = AdsServer(donor_index, graph=donor_graph)
        stale = AdsServer(stale_index, graph=stale_graph)
        donor.start()
        stale.start()
        try:
            donor_rpc = Replica(donor.url)
            stale_rpc = Replica(stale.url)
            start = time.perf_counter()
            snapshot = donor_rpc.call("GET", "/sync/snapshot")
            snapshot_seconds = time.perf_counter() - start
            start = time.perf_counter()
            installed = stale_rpc.call(
                "POST", "/sync/install",
                payload={
                    "index_b64": snapshot["index_b64"],
                    "edges": snapshot["edges"],
                    "directed": snapshot["directed"],
                    "seq": snapshot.get("seq", 0),
                    "digest": snapshot.get("digest"),
                },
            )
            install_seconds = time.perf_counter() - start
            assert installed["digest"] == snapshot["digest"]
            donor_rpc.close()
            stale_rpc.close()
        finally:
            donor.shutdown()
            stale.shutdown()
        points.append({
            "nodes": n,
            "entries": donor_index.num_entries,
            "snapshot_seconds": snapshot_seconds,
            "install_seconds": install_seconds,
            "total_seconds": snapshot_seconds + install_seconds,
        })
    return {"points": points}
