"""The four stages every workload passes through, in order.

``build`` (edge list -> first answer from the saved, mapped index),
``analytics`` (whole-graph and pair estimators in-process),
``serve_read`` (one server subprocess, open-loop mixed readers) and
``serve_write`` (one writable, durable server: a closed-loop writer
beside open-loop readers, then SIGKILL and recovery).  Stages run one
after another, so nothing but the server under test and the
single-threaded generator ever competes for the two cores.

Every stage calls public entry points with the product's defaults and
reports through :class:`Report`; a failed request or a failed
correctness check is counted in ``failed``.
"""

from __future__ import annotations

import bisect
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import loadgen
import probes
import workloads as wl
from core import (
    Run,
    latencies,
    open_phase,
    spawn_measured,
    verify_responses,
    warm,
)
from loadgen import median, summarize_ms

HARNESS_DIR = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# Stage 1: build
# ----------------------------------------------------------------------
def run_build(run: Run) -> None:
    report = run.report
    spec_path = run.work / "build_spec.json"
    result_path = run.work / "build_result.json"
    spec_path.write_text(json.dumps({
        "src": str(run.src), "edges": str(run.edges),
        "sharded": str(run.sharded), "flat": str(run.flat),
        "k": wl.K, "seed": run.seed, "shards": wl.SHARDS,
        "trace": run.traced, "probes": run.probing,
        "result": str(result_path),
    }), encoding="utf-8")
    with run.tracer.timed("stage.build", "build") as stage:
        child = subprocess.run(
            [sys.executable, str(HARNESS_DIR / "build_child.py"),
             str(spec_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
    if child.returncode != 0 or not result_path.exists():
        raise RuntimeError(
            f"build child failed ({child.returncode}): "
            f"{child.stdout.decode(errors='replace')}"
        )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    # The child's clock is this process's clock (CLOCK_MONOTONIC), so
    # its spans slot in under the stage span as they are.
    ids: Dict[int, Optional[int]] = {}
    for i, (name, start, end, parent, trace_id) in enumerate(result["spans"]):
        ids[i] = run.tracer.add(
            name, start, end, trace_id,
            stage.index if parent is None else ids[parent],
        )

    steps = result["steps_s"]          # one time per pass and step
    entries = result["entries"]
    report.timing("build_entries_per_s",
                  [entries / seconds for seconds in steps["build"]],
                  "entries/s")
    report.timing("build_to_first_answer_s", result["pass_s"], "s")
    report.put("index_bytes_per_entry", result["save_bytes"] / entries,
               "B/entry")
    report.put("peak_rss_mb", result["peak_rss_mb"], "MB")

    report.timing("graph.io.parse_s", steps["parse"], "s")
    report.timing("graph.csr.pack_s", steps["csr"], "s")
    report.put("graph.csr.arcs", result["arcs"], "count")
    report.put("ads.csr_cores.relaxations", result["relaxations"], "count")
    report.put("ads.csr_cores.insertions", result["insertions"], "count")
    report.put("ads.csr_cores.insertions_per_relaxation",
               result["insertions"] / max(1, result["relaxations"]), "ratio")
    report.timing("ads.index.build_s", steps["build"], "s")
    report.put("ads.index.entries", entries, "count")
    report.timing("ads.index.save_s", steps["save"], "s")
    report.put("ads.index.save_bytes", result["save_bytes"], "B")
    report.timing("ads.mmap_io.load_mmap_ms", result["load_mmap_ms"], "ms")
    report.timing("ads.mmap_io.first_query_ms", result["first_query_ms"],
                  "ms")
    if run.probing:
        typical = {name: median(times) for name, times in steps.items()}
        pack_hip = max(0.0, typical["build"] - result["scan_s"])
        report.timing("rand.ranks.assign_s", result["rank_assign_s"], "s")
        report.timing("ads.csr_cores.scan_s", result["scan_s"], "s")
        report.timing("ads.index.pack_hip_s", pack_hip, "s")
        report.budgets["build"] = [
            ("graph.io parse", typical["parse"], "s"),
            ("graph.csr pack", typical["csr"], "s"),
            ("ads.csr_cores scan", result["scan_s"], "s"),
            ("ads.index pack + HIP", pack_hip, "s"),
            ("ads.index save", typical["save"], "s"),
            ("ads.mmap_io load + first query",
             typical["load"] + typical["first"], "s"),
        ]
    report.labels["ads.kernels.backend"] = result["backend"]
    report.labels["build.reps"] = str(result["reps"])
    report.count(result["reps"], 0)
    for name, ok in result["checks"].items():
        report.check(
            f"build.{name}", ok,
            f"mean ADS size {result['mean_ads_size']:.2f} vs "
            f"k(1+ln n-ln k) = {result['expected_ads_size']:.2f}"
            if name == "mean_ads_size" else "",
        )


# ----------------------------------------------------------------------
# Stage 2: analytics
# ----------------------------------------------------------------------
WHOLE_GRAPH_CALLS = 4 + len(wl.THRESHOLDS)


def _sweep_script(index) -> List[Tuple[str, Any]]:
    return [
        ("closeness_sweep", lambda: index.closeness_centrality(classic=True)),
        ("cardinality_sweep",
         lambda: [index.cardinality_at(d) for d in wl.THRESHOLDS]),
        ("nf", index.neighborhood_function),
        ("top_central", lambda: index.top_central(10, classic=True)),
        ("distance_distribution", index.distance_distribution),
    ]


def _pair_script(index, pairs) -> List[Tuple[str, Any]]:
    return [
        ("pairs_distance", lambda: index.pairs_distance_estimate(pairs)),
        ("pairs_jaccard",
         lambda: index.pairs_neighborhood_jaccard(pairs, 3.0)),
        ("pairs_closeness", lambda: index.pairs_closeness_similarity(pairs)),
    ]


def _run_round(run: Run, script, trace_id: str):
    times, answers = {}, {}
    for name, call in script:
        with run.tracer.timed(f"ads.kernels.{name}", trace_id) as span:
            answers[name] = call()
        times[name] = span.seconds
    return times, answers


def hip_nrmse_over_bound(index, csr, nodes: Sequence[int]) -> float:
    """NRMSE of HIP neighborhood cardinalities against exact distances,
    as a multiple of Theorem 5.1's CV bound 1/sqrt(2(k-1))."""
    from repro.graph.csr import csr_dijkstra_distance_list

    labels = csr.nodes()
    total, count = 0.0, 0
    for node_id in nodes:
        dist = sorted(csr_dijkstra_distance_list(csr, node_id))
        for d in wl.THRESHOLDS:
            exact = bisect.bisect_right(dist, d)
            # Up to k nodes the sketch is exact, and once a neighborhood
            # nears the whole graph every node reads the same few
            # entries, so one rank draw decides all their errors at
            # once.  The bound is tested where errors are independent.
            if not index.k < exact <= csr.num_nodes // 4:
                continue
            estimate = index.node_cardinality_at(labels[node_id], d)
            total += ((estimate - exact) / exact) ** 2
            count += 1
    return math.sqrt(total / max(1, count)) * math.sqrt(2.0 * (index.k - 1))


def run_analytics(run: Run) -> None:
    from repro.ads import AdsIndex
    from repro.graph.io import read_edge_list

    report, workload = run.report, run.workload
    with run.tracer.timed("stage.analytics", "analytics"):
        mapped = AdsIndex.load(run.sharded, mmap=True)
        with run.tracer.timed("ads.index.load_eager") as span:
            eager = AdsIndex.load(run.flat, mmap=False)
        report.timing("ads.index.load_eager_s", span.seconds, "s")
        pairs = wl.make_pairs(workload, run.seed, workload.pairs_per_round)
        sweeps, pair_calls = _sweep_script(mapped), _pair_script(mapped, pairs)
        sweep_names = [name for name, _ in sweeps]
        pair_names = [name for name, _ in pair_calls]

        cold, answers = _run_round(run, sweeps + pair_calls, "round-cold")
        # Warm rounds of each script on its own, as many as fit in its
        # half of the budget; every round is a sample.
        warm: Dict[str, List[float]] = {name: [] for name in cold}
        rounds = 0
        for script in (sweeps, pair_calls):
            started, done = time.perf_counter(), 0
            while done < 5 or (
                done < 12 and time.perf_counter() - started
                < run.phases.analytics_s / 2
            ):
                times, part = _run_round(run, script, f"round-{rounds}")
                answers.update(part)
                for name, seconds in times.items():
                    warm[name].append(seconds)
                done += 1
                rounds += 1

        def rounds(names: Sequence[str]) -> List[float]:
            """The named calls' time in each warm round."""
            return list(map(sum, zip(*(warm[name] for name in names))))

        report.timing("sweep_estimates_per_s",
                      [workload.n * WHOLE_GRAPH_CALLS / seconds
                       for seconds in rounds(sweep_names)],
                      "node-estimates/s")
        report.timing("pair_estimates_per_s",
                      [len(pairs) * len(pair_names) / seconds
                       for seconds in rounds(pair_names)],
                      "pairs/s")
        for name in sweep_names + pair_names:
            report.timing(f"ads.kernels.{name}_ms",
                          [seconds * 1e3 for seconds in warm[name]], "ms")
        report.timing(
            "ads.kernels.first_call_prepare_ms",
            max(0.0, sum(cold.values()) - median(rounds(sweep_names))
                - median(rounds(pair_names))) * 1e3,
            "ms",
        )
        report.put("ads.kernels.workers", mapped.kernel_workers, "count")
        report.labels["ads.kernels.backend"] = mapped.backend
        report.count(len(cold) + sum(map(len, warm.values())), 0)

        # Correctness, after timing: both load modes answer identically,
        # and HIP error stays inside the paper's bound.
        _, eager_answers = _run_round(
            run, _sweep_script(eager) + _pair_script(eager, pairs),
            "round-eager",
        )
        report.check("analytics.eager_equals_mmap", eager_answers == answers)
        csr = read_edge_list(run.edges, node_type=int).to_csr()
        ratio = hip_nrmse_over_bound(
            mapped, csr, wl.accuracy_sample(workload, run.seed)
        )
        report.put("hip_nrmse_over_bound", ratio, "ratio")
        report.check("analytics.hip_within_bound", 0.0 < ratio <= 2.5,
                     f"NRMSE / (1/sqrt(2(k-1))) = {ratio:.3f}")


# ----------------------------------------------------------------------
# Stage 3: serve_read
# ----------------------------------------------------------------------
def run_serve_read(run: Run) -> None:
    from repro.ads import AdsIndex

    report, workload, phases = run.report, run.workload, run.phases
    server = spawn_measured(
        run, "read", ["--index", str(run.sharded), "--mmap"]
    )
    try:
        with run.tracer.timed("stage.serve_read", "serve_read"):
            address = server.address
            count = int(wl.REFERENCE_RATE * phases.reference_s)
            mix = wl.read_mix(workload, run.seed, max(count, 1000))
            warm(address, mix[:1000])

            # (a) closed-loop saturation, point reads only.
            points = wl.point_reads(workload, run.seed, 4096)
            items = [(r.cls, r.data, False) for r in points]
            window = phases.saturation_window_s
            with run.tracer.timed("phase.saturation", "saturation"):
                saturation = loadgen.run_load(
                    address, window * wl.SATURATION_WINDOWS,
                    closed=[
                        loadgen.cycle_stream(
                            items[c * 2048:] + items[:c * 2048],
                            wl.SATURATION_DEPTH,
                        )
                        for c in range(wl.SATURATION_CONNECTIONS)
                    ],
                )
            done = [c for stream in saturation.closed for c in stream]
            origin = min(c.sent for c in done) if done else 0.0
            per_window = [0] * wl.SATURATION_WINDOWS
            for c in done:
                slot = int((c.done - origin) / window) if c.ok else -1
                if 0 <= slot < wl.SATURATION_WINDOWS:
                    per_window[slot] += 1
            report.timing("read_saturation_qps",
                          [done / window for done in per_window], "req/s")
            report.count(saturation.sent(), saturation.failed())

            # (b) open loop at the reference rate, the full mix.
            reference = open_phase(
                run, address, mix, wl.REFERENCE_RATE, phases.reference_s,
                "reference", keep_every=100,
            )
            point = summarize_ms(latencies(reference.open, ["point"]))
            batch = summarize_ms(latencies(reference.open, ["node_batch"]))
            report.timing("read_p50_ms", point["p50_ms"], "ms")
            report.timing("read_p99_ms", point["p99_ms"], "ms")
            # Node batches only: one homogeneous class, so its median
            # does not move with the mix of pair kinds a lap happens to
            # draw (pair batches: serve.http.p50_ms.pair_batch).
            report.timing("batch_p50_ms", batch["p50_ms"], "ms")
            report.labels["read.samples"] = (
                f"point n={point['n']}, batch n={batch['n']}"
            )
            report.count(reference.sent(), reference.failed())
            report.put("loadgen.lateness_p99_ms", reference.lateness_ms(),
                       "ms")
            report.put("loadgen.cpu_share", reference.cpu_share, "ratio")
            report.put("loadgen.sent", reference.sent(), "count")
            report.put("loadgen.failed", reference.failed(), "count")
            report.check(
                "serve_read.generator_not_bound",
                not reference.generator_bound and not saturation.generator_bound,
                f"cpu_share reference={reference.cpu_share:.2f} "
                f"saturation={saturation.cpu_share:.2f}",
            )
            for cls in ("point", "node_batch", "pair_batch", "sweep"):
                summary = summarize_ms(latencies(reference.open, [cls]))
                report.timing(f"serve.http.p50_ms.{cls}", summary["p50_ms"],
                              "ms")

            if run.probing:
                probes.ladder(run, address, mix)
                probes.transport(run, address, points)

            status, body = loadgen.request_once(
                address, loadgen.http_get("/stats")
            )
            stats = json.loads(body) if status == 200 else {}
        rusage = server.kill()
    finally:
        server.kill()

    requests_served = max(1, stats.get("requests", 0))
    report.timing("serve.server.startup_s", run.setup_parts["spawn.read"],
                  "s")
    report.timing("serve.server.cpu_s_per_1k_req",
                  (rusage.ru_utime + rusage.ru_stime) / requests_served * 1e3,
                  "s")
    report.put("serve.server.peak_rss_mb", server.peak_rss_mb, "MB")
    report.put("serve.server.internal_errors",
               stats.get("internal_errors", -1), "count")
    transport = stats.get("transport", {})
    report.put("serve.transport.load_shed", transport.get("load_shed", -1),
               "count")
    report.labels["serve.transport.mode"] = str(transport.get("mode"))
    report.labels["serve.announce"] = server.announce

    # Correctness, after timing: a seeded 1 % of responses against the
    # in-process index (the repo's byte-identity invariant).
    mapped = AdsIndex.load(run.sharded, mmap=True)
    sampled = [
        (mix[i].spec, c.body)
        for i, c in enumerate(reference.open) if c.ok and c.body is not None
    ]
    checked, wrong = verify_responses(mapped, sampled)
    report.count(checked, wrong)
    report.check("serve_read.sampled_answers", checked > 0 and wrong == 0,
                 f"{checked} sampled responses, {wrong} differ")
    if run.probing:
        probes.replay_in_process(run, mapped, mix)


# ----------------------------------------------------------------------
# Stage 4: serve_write
# ----------------------------------------------------------------------
class _Writer:
    """The writer's request stream: one update batch after another, one
    ``/compact`` after the ``compact_after``-th batch, at most ``limit``
    requests; remembers what it sent."""

    def __init__(self, batches: wl.UpdateBatches,
                 compact_after: Optional[int] = None,
                 limit: Optional[int] = None,
                 batch_size: Optional[int] = None):
        self.batches = batches
        self.compact_after = compact_after
        self.limit = limit
        self.batch_size = batch_size   # None: the cycling sizes
        self.sent: List[Optional[List[list]]] = []   # None marks a compact

    def __call__(self, i: int):
        if self.limit is not None and len(self.sent) >= self.limit:
            return None
        if len(self.sent) == self.compact_after:
            self.sent.append(None)
            return ("compact", wl.COMPACT_REQUEST, True)
        batch = self.batches.next_batch(self.batch_size)
        self.sent.append(batch)
        return ("update", wl.update_request(batch), True)


def run_serve_write(run: Run) -> None:
    from repro.ads import AdsIndex
    from repro.graph.io import read_edge_list
    from repro.rand.hashing import HashFamily

    report, workload, phases = run.report, run.workload, run.phases
    home = run.work / "write"
    home.mkdir()
    index_path, edges_path = home / "index.adsidx", home / "edges.txt"
    # Compaction rewrites both files in place; the build's fixtures stay
    # pristine for the from-scratch comparison below.
    shutil.copyfile(run.flat, index_path)
    shutil.copyfile(run.edges, edges_path)
    args = ["--index", str(index_path), "--no-mmap", "--graph",
            str(edges_path), "--wal-dir", str(home / "wal")]
    server = spawn_measured(run, "write", args)
    restarted = None
    acked: List[list] = []
    try:
        with run.tracer.timed("stage.serve_write", "serve_write"):
            address = server.address
            count = int(wl.WRITE_MIX_READ_RATE * max(
                phases.write_baseline_s, phases.write_s)) + 1
            reads = wl.write_mix_reads(workload, run.seed, max(count, 200))
            warm(address, reads[:200])

            baseline = open_phase(
                run, address, reads, wl.WRITE_MIX_READ_RATE,
                phases.write_baseline_s, "write_baseline",
            )
            report.count(baseline.sent(), baseline.failed())

            writer = _Writer(wl.UpdateBatches(workload, run.seed, run.graph),
                             compact_after=wl.COMPACT_AFTER)
            mixed = open_phase(
                run, address, reads, wl.WRITE_MIX_READ_RATE, phases.write_s,
                "write_mix", closed=[
                    loadgen.ClosedStream(writer, 1, wl.UPDATE_INTERVAL_S)
                ],
            )
            report.count(mixed.sent(), mixed.failed())
            updates = _collect_acked(writer, mixed.closed[0], acked)
            update_ms = summarize_ms(latencies(updates, ["update"]))
            report.timing("update_p50_ms", update_ms["p50_ms"], "ms")
            report.timing("update_p90_ms", update_ms["p90_ms"], "ms")
            report.labels["update.samples"] = f"n={update_ms['n']}"
            under_write = summarize_ms(latencies(mixed.open, ["point"]))
            alone = summarize_ms(latencies(baseline.open, ["point"]))
            report.timing("read_under_write_p99_ms", under_write["p99_ms"],
                          "ms")
            report.timing("serve.locks.read_stall_ms",
                          under_write["p99_ms"] - alone["p99_ms"], "ms")
            report.timing("serve.write.updates_per_s",
                          update_ms["n"] / phases.write_s, "1/s")
            report.check(
                "serve_write.generator_not_bound",
                not mixed.generator_bound and not baseline.generator_bound,
                f"cpu_share baseline={baseline.cpu_share:.2f} "
                f"mixed={mixed.cpu_share:.2f}",
            )
            _trace_updates(run, updates)

            # End on exactly TAIL_BATCHES acknowledged, un-compacted
            # batches: flush, then write the tail with no reader beside.
            # Single-edge batches, so that what recovery replays costs
            # about the same whatever the seed drew.
            status, _ = loadgen.request_once(address, wl.COMPACT_REQUEST)
            report.count(1, 0 if status == 200 else 1)
            tail = _Writer(writer.batches, limit=wl.TAIL_BATCHES,
                           batch_size=1)
            tail_result = loadgen.run_load(
                address, 600.0, closed=[loadgen.ClosedStream(tail, 1)],
                drain_timeout=120.0,
            )
            report.count(tail_result.sent(), tail_result.failed())
            _collect_acked(tail, tail_result.closed[0], acked)

            probe = wl.point_reads(workload, run.seed + 1, 1)[0]
            _, before = loadgen.request_once(address, probe.data)
            status, body = loadgen.request_once(
                address, loadgen.http_get("/stats")
            )
            stats = json.loads(body) if status == 200 else {}

            # Crash, restart with the same flags, poll until it answers.
            # Replay leaves the log as it found it, so every cycle
            # recovers the same TAIL_BATCHES batches.
            recoveries, recovered = [], bool(before)
            for cycle in range(wl.RECOVERY_CYCLES):
                with run.tracer.timed("phase.recovery",
                                      f"recovery-{cycle}") as recovery:
                    (restarted or server).kill()
                    restarted = loadgen.ServerProcess(
                        run.src, run.work / f"write.recovered-{cycle}.log",
                        args,
                    ).start()
                    status, after = loadgen.request_once(
                        restarted.address, probe.data
                    )
                recoveries.append(recovery.seconds)
                recovered = recovered and status == 200 and after == before
            report.timing("recovery_s", recoveries, "s")
            report.check("serve_write.recovered_answer", recovered)
            status, body = loadgen.request_once(
                restarted.address, loadgen.http_get("/stats")
            )
            still = json.loads(body) if status == 200 else {}

        cache = stats.get("cache", {})
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        report.put("serve.cache.hits", hits, "count")
        report.put("serve.cache.misses", misses, "count")
        report.put("serve.cache.evictions", cache.get("evictions", 0), "count")
        report.put("serve.cache.hit_rate", hits / max(1, hits + misses),
                   "ratio")
        pending = [
            snapshot.get("updates", {}).get("wal", {}).get("pending_records")
            for snapshot in (stats, still)
        ]
        report.check(
            "serve_write.tail_pending",
            pending == [wl.TAIL_BATCHES] * 2,
            f"WAL holds {pending} un-compacted batches before the first "
            f"kill / after the last recovery",
        )
        replay_s = max(1e-9, median(recoveries)
                       - run.setup_parts["spawn.write"])
        report.timing("ads.wal.replay_batches_per_s",
                      wl.TAIL_BATCHES / replay_s, "1/s")

        # Durability, after timing, on the last lap: every acknowledged
        # batch survived.  The recovered server must answer like an
        # index built from scratch on the base graph plus all
        # acknowledged edges.
        if not run.final:
            return
        checks = wl.point_reads(workload, run.seed + 2, workload.recovery_checks)
        answers = loadgen.run_load(
            restarted.address, 600.0,
            closed=[loadgen.finite_stream(
                [(r.cls, r.data, True) for r in checks], 8
            )],
            drain_timeout=120.0,
        ).closed[0]
    finally:
        server.kill()
        if restarted is not None:
            restarted.kill()

    csr = read_edge_list(run.edges, node_type=int).to_csr()
    csr.add_edges([tuple(edge) for edge in acked])
    rebuilt = AdsIndex.build(csr, wl.K, HashFamily(run.seed))
    sampled = [
        (request.spec, done.body)
        for request, done in zip(checks, answers) if done.ok
    ]
    checked, wrong = verify_responses(rebuilt, sampled)
    wrong += len(checks) - checked
    report.count(len(checks), wrong)
    report.check(
        "serve_write.acked_batches_survive", wrong == 0,
        f"{len(checks)} point answers after recovery vs a from-scratch "
        f"build on base + {len(acked)} acknowledged edges: {wrong} differ",
    )


def _collect_acked(writer: _Writer, completions, acked: List[list]):
    """Pair the writer's completions with what it sent; returns the
    update completions and extends *acked* with acknowledged edges."""
    updates = []
    for sent, done in zip(writer.sent, completions):
        if sent is None:
            continue
        updates.append(done)
        if done.ok:
            acked.extend(sent)
    return updates


def _trace_updates(run: Run, updates) -> None:
    for i, done in enumerate(updates):
        if done.ok:
            run.tracer.add("request.update", done.start, done.done,
                           f"update-{i}", run.tracer.current())
