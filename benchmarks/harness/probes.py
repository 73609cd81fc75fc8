"""Traced-run probes: per-layer numbers taken from outside the product.

Each probe times a call into one layer's public function (or
differences two such timings): the rate ladder and one-caller
transport costs against the live read server, the same requests
replayed in-process without a socket, and the write path's parts
(``CSRGraph.add_edges``, ``WriteAheadLog.append``,
``AdsIndex.apply_edges``, ``AdsIndex.compact``) on fixed, seeded
batches, whose work counts therefore repeat exactly.  None of this
runs in the untraced pass that the end-to-end metrics come from.
"""

from __future__ import annotations

import json
import shutil
import time
from typing import Dict, List

import loadgen
import workloads as wl
from core import Run, expected_answer, latencies, open_phase
from loadgen import median, summarize_ms

PROBE_BATCHES = 30
WAL_APPENDS = 200


def ladder(run: Run, address, mix: List[wl.Request]) -> None:
    """Latency at a few fixed rates above the reference (traced run)."""
    report = run.report
    ok_rate = 0.0
    rates = {wl.REFERENCE_RATE: (
        report.value("read_p99_ms"), report.value("loadgen.failed"), False
    )}
    for rate in wl.LADDER_RATES:
        duration = run.phases.ladder_s
        count = int(rate * duration)
        requests = (mix * (count // len(mix) + 1))[:count]
        result = open_phase(run, address, requests, rate, duration,
                             f"rate{int(rate)}")
        p99 = summarize_ms(latencies(result.open, ["point"]))["p99_ms"]
        # Backlog growing: the second half answers markedly slower than
        # the first, i.e. the queue has not levelled off.
        ordered = [c.latency for c in result.open if c.ok]
        half = len(ordered) // 2
        growing = half > 0 and (
            median(ordered[half:]) > 2.0 * median(ordered[:half])
            and median(ordered[half:]) > wl.LATENCY_LIMIT_MS / 1e3 / 4
        )
        report.timing(f"loadgen.rate{int(rate)}.point_p99_ms", p99, "ms")
        report.count(result.sent(), result.failed())
        rates[rate] = (p99, result.failed(), growing)
    for rate in sorted(rates):
        p99, failed, growing = rates[rate]
        if p99 > wl.LATENCY_LIMIT_MS or failed or growing:
            break
        ok_rate = rate
    report.put("loadgen.max_rate_ok", ok_rate, "req/s")


def transport(run: Run, address, points: List[wl.Request]) -> None:
    """One caller at a time: raw socket vs the stock ``QueryClient``."""
    from repro.serve.client import QueryClient

    report = run.report
    duration = max(0.5, run.phases.ladder_s)
    items = [(r.cls, r.data, False) for r in points]
    raw = loadgen.run_load(
        address, duration, closed=[loadgen.cycle_stream(items, 1)]
    )
    raw_p50 = summarize_ms([c.latency for c in raw.closed[0] if c.ok])["p50_ms"]
    report.timing("serve.http.closed_p50_us.point", raw_p50 * 1e3, "us")
    cardinality = [r for r in points if r.spec[0] == "cardinality"]
    raw_card = loadgen.run_load(
        address, duration / 2, closed=[loadgen.cycle_stream(
            [(r.cls, r.data, False) for r in cardinality], 1)]
    )
    raw_card_p50 = summarize_ms(
        [c.latency for c in raw_card.closed[0] if c.ok]
    )["p50_ms"]
    times = []
    with QueryClient(f"http://{address[0]}:{address[1]}") as client:
        stop = time.perf_counter() + duration / 2
        i = 0
        while time.perf_counter() < stop:
            spec = cardinality[i % len(cardinality)].spec
            t0 = time.perf_counter()
            client.cardinality(node=spec[1], d=spec[2])
            times.append(time.perf_counter() - t0)
            i += 1
    client_p50 = summarize_ms(times)["p50_ms"]
    report.timing("serve.client.overhead_us",
                  (client_p50 - raw_card_p50) * 1e3, "us")
    report.count(raw.sent() + raw_card.sent() + len(times),
                 raw.failed() + raw_card.failed())


def replay_in_process(run: Run, index, mix: List[wl.Request]) -> None:
    """The same requests without a socket: ``handle_request``, the
    direct index call, and ``encode_response`` -- the stacked budget."""
    from repro.serve import AdsServer
    from repro.serve.wire import encode_response

    report = run.report
    sample = mix[:2000]
    per_class: Dict[str, Dict[str, List[float]]] = {}
    server = AdsServer(index, port=0)
    try:
        for i, request in enumerate(sample):
            body = (
                json.dumps(request.payload).encode("utf-8")
                if request.payload is not None else None
            )
            trace_id = f"replay-{i}"
            with run.tracer.timed(f"replay.{request.cls}", trace_id):
                with run.tracer.timed("serve.server.handle_request") as handle:
                    status, payload = server.handle_request(
                        request.method, request.target, body,
                        content_type="application/json" if body else None,
                    )
                with run.tracer.timed("serve.wire.encode_response") as encode:
                    encode_response(payload, None)
                with run.tracer.timed("ads.index.query") as direct:
                    expected_answer(index, request.spec)
            slot = per_class.setdefault(
                request.cls, {"handle": [], "encode": [], "index": []}
            )
            slot["handle"].append(handle.seconds)
            slot["encode"].append(encode.seconds)
            slot["index"].append(direct.seconds)
            report.count(1, 0 if status == 200 else 1)
    finally:
        server.close()

    names = {"point": "point", "node_batch": "batch", "pair_batch": "pairs",
             "sweep": "sweep"}
    for cls, short in names.items():
        slot = per_class.get(cls, {"handle": [0.0], "encode": [0.0],
                                   "index": [0.0]})
        handle, encode, direct = (
            median(slot["handle"]), median(slot["encode"]),
            median(slot["index"]),
        )
        report.timing(f"serve.server.handle_request_us.{short}",
                      handle * 1e6, "us")
        http_s = report.value(f"serve.http.p50_ms.{cls}") / 1e3
        report.budgets[f"request.{cls}"] = [
            ("serve.transport (HTTP p50 - handle_request - encode)",
             (http_s - handle - encode) * 1e6, "us"),
            ("serve.server logic (handle_request - index)",
             (handle - direct) * 1e6, "us"),
            ("ads.index / ads.kernels", direct * 1e6, "us"),
            ("serve.wire encode", encode * 1e6, "us"),
        ]
        if cls == "point":
            report.timing("serve.wire.encode_us.point", encode * 1e6, "us")
            report.timing("ads.index.point_query_us", direct * 1e6, "us")
            report.timing(
                "serve.transport.overhead_us.point",
                report.value("serve.http.closed_p50_us.point") - handle * 1e6,
                "us",
            )
        if cls == "sweep":
            report.timing("serve.wire.encode_ms.sweep", encode * 1e3, "ms")


def write_path(run: Run) -> None:
    """The update path's layers one by one, in-process, on the first
    ``PROBE_BATCHES`` batches the served writer also starts with."""
    from repro.ads import AdsIndex
    from repro.ads.wal import WriteAheadLog
    from repro.graph.io import read_edge_list

    report, workload = run.report, run.workload
    home = run.work / "write_probe"
    home.mkdir()
    source = wl.UpdateBatches(workload, run.seed, run.graph)
    batches = [
        [tuple(edge) for edge in source.next_batch()]
        for _ in range(PROBE_BATCHES)
    ]

    graph_only = read_edge_list(run.edges, node_type=int).to_csr()
    times = []
    for i, batch in enumerate(batches):
        with run.tracer.timed("graph.csr.add_edges", f"probe-update-{i}") as span:
            graph_only.add_edges(batch)
        times.append(span.seconds)
    report.timing("graph.csr.add_edges_ms", median(times) * 1e3, "ms")

    wal = WriteAheadLog(home / "wal")
    try:
        before = wal.path.stat().st_size
        times = []
        for i in range(WAL_APPENDS):
            with run.tracer.timed("ads.wal.append", f"probe-wal-{i}") as span:
                wal.append(batches[i % len(batches)])
            times.append(span.seconds)
        appended = wal.path.stat().st_size - before
    finally:
        wal.close()
    append_ms = median(times) * 1e3
    report.timing("ads.wal.append_ms", append_ms, "ms")
    report.put("ads.wal.bytes_per_batch", appended / WAL_APPENDS, "B")

    index_path = home / "index.adsidx"
    shutil.copyfile(run.flat, index_path)
    index = AdsIndex.load(index_path, mmap=False)
    graph = read_edge_list(run.edges, node_type=int).to_csr()
    times, dirty, arcs = [], [], 0
    for i, batch in enumerate(batches):
        with run.tracer.timed("ads.index.apply_edges", f"probe-update-{i}") as span:
            result = index.apply_edges(graph, batch)
        times.append(span.seconds)
        dirty.append(result.dirty_nodes)
        arcs += result.applied_arcs
    apply_ms = median(times) * 1e3
    report.timing("ads.index.apply_edges_ms", apply_ms, "ms")
    report.put("ads.dynamic.dirty_nodes_per_batch",
               sum(dirty) / len(dirty), "count")
    report.put("ads.dynamic.dirty_fraction",
               sum(dirty) / len(dirty) / index.num_nodes, "ratio")
    report.put("ads.dynamic.applied_arcs", arcs, "count")
    with run.tracer.timed("ads.index.compact", "probe-compact") as span:
        index.compact(index_path)
    report.timing("ads.index.compact_s", span.seconds, "s")
    report.count(2 * len(batches) + WAL_APPENDS + 1, 0)

    served = report.value("update_p50_ms")
    report.budgets["update"] = [
        ("ads.wal append (fsync)", append_ms, "ms"),
        ("ads.index apply_edges (ads.dynamic + graph.csr)", apply_ms, "ms"),
        ("remainder (HTTP, parse, lock wait, cache clear)",
         served - append_ms - apply_ms, "ms"),
    ]
