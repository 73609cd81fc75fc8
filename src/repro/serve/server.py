"""``AdsServer``: a long-lived JSON query daemon over one ``AdsIndex``.

The paper's workflow is build-once / query-forever (Section 1); this is
the query-forever half as an actual network service.  A single immutable
:class:`~repro.ads.index.AdsIndex` -- ideally loaded with ``mmap=True``
so the process starts serving in milliseconds -- is shared by a bounded
pool of worker threads behind stdlib ``http.server`` plumbing.  Pure
Python threads suffice here because every query is read-only over flat
columns and the hot whole-graph results are LRU-cached.

Endpoints (all JSON; the authoritative table every server flavor
builds its routes from is :mod:`repro.serve.registry`):

==========================  ===============================================
``GET  /healthz``           liveness probe
``GET  /stats``             request/cache counters, index metadata, uptime
``GET  /cardinality``       all-nodes n_d sweep (``?d=``), or one ``?node=``
``POST /cardinality``       batch: ``{"nodes": [...], "d": 2.0}``
``GET  /closeness``         all-nodes C_{alpha,beta} (``?kind=``), or one
``POST /closeness``         batch: ``{"nodes": [...], "kind": "harmonic"}``
``GET  /neighborhood``      whole-graph ANF series, or one ``?node=``
``GET  /nf-curve``          ANF curve with per-point fractions of the total
``GET  /top-central``       ``?count=&kind=&largest=`` ranking
``POST /similarity``        batch pair similarity: ``{"pairs": [[u, v],
                            ...], "metric": "jaccard"|"closeness", "d": 2}``
``POST /distance``          batch sketch-space distance estimates:
                            ``{"pairs": [[u, v], ...]}``
``GET  /similar/<label>``   most similar nodes (``?count=&d=``)
``GET  /node/<label>``      one node's summary (sketch size, estimates)
``POST /update``            apply an edge batch: ``{"edges": [[u, v], ...]}``
``POST /compact``           flush applied updates to the on-disk layout
==========================  ===============================================

The similarity/distance endpoints need a bottom-k index (the flavor
whose extracted MinHash sketches are comparable across nodes); other
flavors answer 409.

Unknown nodes are 404s, malformed parameters 400s, unexpected faults
500s -- always with an ``{"error": ...}`` body.  Handlers speak
HTTP/1.1 with explicit ``Content-Length``, so clients can keep
connections alive and batch thousands of queries per second over one
socket (``benchmarks/bench_serve.py`` measures exactly that).

Routing, caching, locking, and the endpoint handlers are
transport-agnostic: :meth:`AdsServer.handle_request` maps ``(method,
target, raw body)`` to ``(status, payload)`` without touching a
socket, which is how the asyncio transport
(:class:`repro.serve.aio.AsyncAdsServer`) serves the byte-identical
API over a pipelined parser.  Responses are negotiated per request:
clients that send ``Accept: application/x-repro-wire`` get the compact
binary codec (:mod:`repro.serve.wire`), everyone else the unchanged
JSON.  When every worker is busy and the connection backlog is full,
new connections are shed with an explicit ``503`` + ``Retry-After``
(counted under ``transport.load_shed`` in ``/stats``) rather than a
bare reset -- a reset reads as a transport fault and sends
well-behaved clients straight back into the overload.

Writes are optional: ``/update`` needs the server started with the
index's *graph* (``repro serve --graph``) and an eagerly loaded
(non-mmap) index, and answers 409 otherwise.  A
:class:`~repro.serve.locks.ReadWriteLock` keeps queries fully
concurrent while an update holds the exclusive side, and every applied
batch invalidates the whole-graph result cache (sketches changed; the
cached sweeps are stale by definition).
"""

from __future__ import annotations

import base64
import json
import math
import os
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from pathlib import Path
from typing import Union

from repro._util import require
from repro.ads.index import MANIFEST_NAME, AdsIndex
from repro.ads.wal import WriteAheadLog
from repro.centrality.closeness import top_k_central_nodes
from repro.errors import ReproError
from repro.serve import registry, wire
from repro.serve.cache import LruCache
from repro.serve.locks import ReadWriteLock
from repro.serve.schemas import (
    WireError,
    bad_request,
    centrality_kwargs,
    coerce_edge_labels,
    conflict,
    json_safe_number,
    label_value_pairs,
    nf_curve_points,
    not_found,
    parse_bool,
    parse_edges,
    parse_float,
    parse_int,
    parse_pairs,
    parse_similarity_metric,
    parse_sync_install,
    resolve_node,
    resolve_nodes,
    series_pairs,
)

_MAX_BODY_BYTES = 8 << 20  # refuse absurd batch payloads outright

_SHED_BODY = b'{"error": "server overloaded; retry later"}'
# Pre-rendered: the shed path runs on the accept thread under overload,
# where formatting a response per connection is exactly the wrong idea.
_SHED_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_SHED_BODY)).encode("ascii") + b"\r\n"
    b"Retry-After: 1\r\n"
    b"Connection: close\r\n"
    b"\r\n" + _SHED_BODY
)


class _PooledHTTPServer(HTTPServer):
    """An ``HTTPServer`` that handles connections on a bounded pool of
    daemon worker threads.

    ``ThreadingHTTPServer`` spawns an unbounded thread per connection; a
    serving daemon wants backpressure instead, so accepted connections
    queue once all ``threads`` workers are busy.  Workers are daemon
    threads -- a client holding a keep-alive connection open can never
    block process exit -- and each connection read carries the handler's
    idle timeout, after which the connection is dropped and the worker
    moves on.
    """

    allow_reuse_address = True

    def __init__(self, address, handler_class, app: "AdsServer",
                 threads: int):
        self.app = app
        # Bounded: once every worker is busy and the backlog is full,
        # new connections are shed immediately instead of accumulating
        # open file descriptors without limit.
        self._work: "queue.Queue" = queue.Queue(maxsize=threads * 8 + 16)
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            for i in range(threads)
        ]
        super().__init__(address, handler_class)
        for worker in self._workers:
            worker.start()

    def process_request(self, request, client_address):
        try:
            self._work.put_nowait((request, client_address))
        except queue.Full:
            # Shed load with an explicit 503 + Retry-After instead of a
            # bare connection reset: a reset is indistinguishable from
            # a transport fault, so clients would retry straight back
            # into the overloaded server.
            self.app._count_shed()
            try:
                request.sendall(_SHED_RESPONSE)
            except OSError:
                pass  # client already gone; shedding anyway
            self.shutdown_request(request)

    def _worker(self):
        while True:
            item = self._work.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def handle_error(self, request, client_address):
        # Client disconnects mid-response are routine, not stack traces.
        pass

    def server_close(self):
        super().server_close()
        for _ in self._workers:
            self._work.put(None)


class _AdsRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive; Content-Length always sent
    server_version = "repro-serve/1.0"
    timeout = 30.0  # idle keep-alive connections release their worker
    # Responses go out as two small writes (headers, then body); with
    # Nagle on, the second write stalls ~40ms behind the client's
    # delayed ACK, capping a keep-alive connection at ~25 queries/sec.
    disable_nagle_algorithm = True

    def do_GET(self):  # noqa: N802 (http.server naming contract)
        self.server.app.dispatch(self, "GET")

    def do_POST(self):  # noqa: N802
        self.server.app.dispatch(self, "POST")

    def log_message(self, format, *args):
        """Silence per-request stderr chatter; /stats has the counters."""


class ServerBase:
    """Transport, dispatch, caching, and counter chassis for servers.

    Everything about *serving HTTP* -- the pooled threaded transport,
    the transport-agnostic :meth:`handle_request` funnel, the
    read/write lock discipline around ``/update`` and ``/compact``,
    the LRU result cache, and the request/error/shed counters -- lives
    here, independent of *what* is being served.  Two daemons build on
    it: :class:`AdsServer` answers queries from a local
    :class:`~repro.ads.index.AdsIndex`, and
    :class:`repro.serve.cluster.RouterServer` answers the same API by
    fanning out to a sharded cluster of workers.  The route table is
    *not* per subclass: it is built from the declarative endpoint
    registry (:mod:`repro.serve.registry`) filtered by the class's
    ``_ROUTE_SCOPES``, so every flavor serves (and 404s) the same API
    by construction; subclasses just implement the handler methods the
    registry names, plus :meth:`_node_summary`.
    """

    # Paths that take the exclusive side of the read/write lock --
    # derived from the same registry the dispatch tables come from.
    _WRITE_PATHS = registry.WRITE_PATHS

    # Which registry scopes this server carries.  Workers (and single
    # servers) also answer the internal worker-to-worker endpoints; the
    # cluster router narrows this to {"all"}.
    _ROUTE_SCOPES = frozenset({"all", "worker"})

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        threads: int = 8,
        wire_mode: str = "auto",
    ):
        require(threads >= 1, f"threads must be >= 1, got {threads}")
        require(
            wire_mode in ("auto", "json"),
            f"wire_mode must be 'auto' or 'json', got {wire_mode!r}",
        )
        self.cache = LruCache(cache_size)
        self.threads = int(threads)
        self.wire_mode = wire_mode
        # Monotonic, not wall-clock: /stats uptime must survive a
        # wall-clock step (NTP correction, DST) without going negative.
        self.started_at = time.monotonic()
        self._requests = 0
        self._internal_errors = 0
        self._updates_applied = 0
        self._sheds = 0
        self._counter_lock = threading.Lock()
        self._rw_lock = ReadWriteLock()
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()
        self._routes = self._build_routes()
        self._open_transport(host, port)

    def _build_routes(self):
        """Bind the endpoint registry for this class's scopes.

        Returns the exact-path dispatch table and stores the
        prefix-route table (``/node/<label>``-style endpoints) on the
        side; both map path -> ``(bound handler, allowed methods)``.
        """
        exact, prefix = registry.route_tables(self, self._ROUTE_SCOPES)
        self._prefix_routes = prefix
        return exact

    def _open_transport(self, host: str, port: int) -> None:
        """Bind the transport; the asyncio mixin overrides this."""
        self._httpd = _PooledHTTPServer(
            (host, port), _AdsRequestHandler, self, self.threads
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block and serve until :meth:`shutdown` (or KeyboardInterrupt)."""
        self._serving.set()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving.clear()

    def start(self) -> "ServerBase":
        """Serve on a daemon background thread (tests, examples, embeds)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve-acceptor",
                daemon=True,
            )
            self._thread.start()
            # Wait for the accept loop to go live so an immediate
            # shutdown() cannot race serve_forever's startup (it would
            # skip the shutdown handshake and strand the loop).
            self._serving.wait(timeout=5.0)
        return self

    def shutdown(self) -> None:
        """Stop accepting, join the acceptor thread, release the socket.

        Safe to call whether or not the server ever started: the
        ``serve_forever`` handshake only runs when an accept loop is
        actually live (``HTTPServer.shutdown`` would otherwise wait
        forever on an event that only ``serve_forever`` sets).
        """
        if self._serving.is_set():
            self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.close()

    def close(self) -> None:
        """Release the listening socket and the worker pool.

        The public teardown for a server that was never (or is no
        longer) serving; :meth:`shutdown` calls it automatically.
        """
        self._httpd.server_close()

    def __enter__(self) -> "ServerBase":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _count_request(self) -> None:
        with self._counter_lock:
            self._requests += 1

    def _count_internal_error(self) -> None:
        with self._counter_lock:
            self._internal_errors += 1

    def _count_shed(self) -> None:
        with self._counter_lock:
            self._sheds += 1

    def dispatch(self, handler: _AdsRequestHandler, method: str) -> None:
        """Route one threaded-transport request and write its response."""
        accept = handler.headers.get("Accept")
        try:
            raw = self._read_body(handler) if method == "POST" else None
        except WireError as error:
            self._count_request()
            self._write_response(
                handler, error.status, {"error": error.message}, accept
            )
            return
        status, payload = self.handle_request(
            method,
            handler.path,
            raw,
            content_type=handler.headers.get("Content-Type"),
        )
        self._write_response(handler, status, payload, accept)

    def handle_request(
        self,
        method: str,
        target: str,
        body: Optional[bytes],
        content_type: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Transport-agnostic request handling: ``(status, payload)``.

        *target* is the request target as it appeared on the request
        line (path plus optional query string); *body* is the raw POST
        body, decoded as JSON or as the binary wire codec depending on
        *content_type*.  Never raises -- refusals and faults come back
        as their HTTP status with an ``{"error": ...}`` payload, and
        every call counts toward ``/stats``.  Both the threaded and
        the asyncio transports funnel through here, which is what
        keeps their payloads byte-identical.
        """
        self._count_request()
        try:
            split = urlsplit(target)
            path = unquote(split.path)
            # keep_blank_values: "?node=" must reach resolve_node (404)
            # rather than silently becoming an all-nodes sweep.
            params = {
                name: values[-1]
                for name, values in parse_qs(
                    split.query, keep_blank_values=True
                ).items()
            }
        except ValueError:
            return 400, {"error": "malformed request target"}
        try:
            parsed = (
                self._parse_body(body, content_type)
                if method == "POST" else None
            )
            # Reads share the lock (queries stay fully concurrent);
            # the update/compact endpoints take the exclusive side so
            # no query ever observes a half-spliced index.
            if path in self._WRITE_PATHS:
                with self._rw_lock.write_locked():
                    return self._route(method, path, params, parsed)
            with self._rw_lock.read_locked():
                return self._route(method, path, params, parsed)
        except WireError as error:
            return error.status, {"error": error.message}
        except ReproError as error:
            # Request validation all happens in the schemas layer
            # (WireError above); a library error surfacing here means
            # the *served index* failed mid-query -- a vanished shard
            # file, a truncated layout -- which is a server fault, not
            # a malformed request.
            self._count_internal_error()
            return 500, {"error": str(error)}
        except Exception:  # pragma: no cover - defensive
            self._count_internal_error()
            return 500, {"error": "internal server error"}

    @staticmethod
    def _parse_body(
        raw: Optional[bytes], content_type: Optional[str]
    ) -> Dict[str, Any]:
        """Decode a POST body per its Content-Type (JSON or binary)."""
        if not raw:
            raise bad_request("POST requires a request body")
        if wire.is_binary_content_type(content_type):
            try:
                body = wire.decode(raw)
            except wire.WireFormatError as error:
                raise bad_request(f"malformed binary body ({error})")
        else:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise bad_request(f"malformed JSON body ({error})")
        if not isinstance(body, dict):
            raise bad_request("request body must be an object")
        return body

    @staticmethod
    def _read_body(handler: _AdsRequestHandler) -> bytes:
        # Refusals raised BEFORE the body is fully consumed must also
        # drop the connection: otherwise the unread body bytes would be
        # parsed as the next request on this keep-alive socket.
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            handler.close_connection = True
            raise bad_request("invalid Content-Length")
        if length < 0:
            handler.close_connection = True
            raise bad_request("invalid Content-Length")
        if length > _MAX_BODY_BYTES:
            handler.close_connection = True
            raise bad_request("request body too large")
        raw = handler.rfile.read(length) if length else b""
        if not raw:
            # Covers chunked posts too (no Content-Length, body unread).
            handler.close_connection = True
            raise bad_request("POST requires a request body")
        return raw

    def _write_response(
        self,
        handler: _AdsRequestHandler,
        status: int,
        payload: Dict[str, Any],
        accept: Optional[str],
    ) -> None:
        data, content_type = wire.encode_response(
            payload, accept, self.wire_mode
        )
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(data)))
            if status == 503:
                handler.send_header("Retry-After", "1")
            if handler.close_connection:
                # Tell the client, don't just drop the socket (set when
                # a refused request left body bytes unread).
                handler.send_header("Connection", "close")
            handler.end_headers()
            handler.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def _route(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> Tuple[int, Dict[str, Any]]:
        for route_prefix, (target, methods) in self._prefix_routes.items():
            if path.startswith(route_prefix):
                if method not in methods:
                    raise bad_request(
                        f"{path} only supports {'/'.join(methods)}"
                    )
                return 200, target(path[len(route_prefix):], params)
        entry = self._routes.get(path)
        if entry is None:
            raise not_found(f"no such endpoint: {path}")
        target, methods = entry
        if method not in methods:
            raise bad_request(f"{path} only supports {'/'.join(methods)}")
        if method == "POST":
            return 200, target(params, body)
        return 200, target(params, None)

    def _saturation(self) -> float:
        """Queued-work fill fraction (transport-specific)."""
        work = self._httpd._work
        if work.maxsize <= 0:
            return 0.0
        return min(1.0, work.qsize() / work.maxsize)

    def _transport_stats(self) -> Dict[str, Any]:
        with self._counter_lock:
            sheds = self._sheds
        work = self._httpd._work
        return {
            "mode": "threaded",
            "threads": self.threads,
            "load_shed": sheds,
            "queue_depth": work.qsize(),
            "queue_capacity": work.maxsize,
        }

    def _cached(self, key: Tuple, compute) -> Tuple[Any, bool]:
        """Memoise a whole-graph result under a *parsed*-value key, so
        ``?d=2`` and ``?d=2.0`` (or spelled-out defaults) share one
        entry instead of fragmenting the LRU."""
        return self.cache.get_or_compute(key, compute)

    @staticmethod
    def _centrality_key(params: Dict[str, str]) -> Tuple[str, Any]:
        """Canonical (kind, half_life) pair: half_life only matters for
        the decay kernel, so other kinds collapse it to None."""
        kind = params.get("kind", "classic")
        half_life = (
            parse_float(params, "half_life", 1.0)
            if kind == "decay" else None
        )
        return kind, half_life

    def _node(self, raw: str, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /node/<label>`` prefix route -> per-flavor summary."""
        return self._node_summary(raw)

    def _node_summary(self, raw: str) -> Dict[str, Any]:
        raise NotImplementedError


class AdsServer(ServerBase):
    """The serving daemon: routing, caching, and counters over an index.

    Args:
        index: The sketch index to serve.
        host / port: Bind address; ``port=0`` picks a free port, read it
            back from :attr:`port`.
        cache_size: LRU capacity for whole-graph query results
            (``0`` disables caching).
        threads: Worker-thread pool size.  Each request thread may
            itself fan a batch query out across the index's kernel
            workers, so the server caps the product at
            ``KERNEL_BUDGET_FACTOR x cpu_count`` concurrent kernel
            tasks -- an index wired for more workers than
            ``(KERNEL_BUDGET_FACTOR * cpu_count) // threads`` is
            re-wired down at construction (results are bit-identical;
            only the fan-out changes).  The effective count is reported
            as ``index.kernel_workers`` in ``/stats``.
        graph: The index's :class:`~repro.graph.csr.CSRGraph` (same
            labels, same id order).  Enables ``POST /update``; without
            it the index is served read-only and updates answer 409.
        index_path: Where the served index lives on disk; the
            ``POST /compact`` destination.
        graph_path: Where the graph's edge list lives; ``POST
            /compact`` rewrites it alongside the index (node order
            pinned), so a restarted server loads a graph that matches
            -- a stale edge list would make post-restart updates
            silently diverge from a rebuild.
        wire_mode: ``"auto"`` (default) answers binary to clients that
            send ``Accept: application/x-repro-wire`` and JSON to
            everyone else; ``"json"`` pins every response to JSON
            regardless of the Accept header.
        node_range: ``(start, stop)`` global node-id range this worker
            *sweeps* -- the cluster shard-worker mode.  Single-node
            lookups still answer for any label (the router only sends
            a worker its own nodes, but a stray query is answered, not
            wrong), while the all-nodes endpoints (``/cardinality``,
            ``/closeness``, ``/top-central``, ``/neighborhood``,
            ``/nf-curve``, ``POST /nf-chain``) cover exactly rows
            ``[start, stop)`` -- and ``/similar/<label>`` restricts
            its *candidates* to them, so per-shard winners merge
            exactly at the router.
            ``stop=None`` leaves the range open-ended so the last shard
            group also owns nodes appended by later updates.  A worker
            over a sharded mmap layout only ever touches (and thus
            only ever maps) the shard files its range intersects.
        wal_dir: Directory for the write-ahead delta log
            (``--wal-dir``; requires ``graph``).  Every ``POST
            /update`` batch is checksummed, appended, and fsync'd
            *before* it is applied, and the log is truncated by ``POST
            /compact`` -- so a server killed at any point restarts by
            replaying the unflushed batches over its last compacted
            layout, bit-identical to a server that never crashed.
            Replay happens here, during construction.

    Example:
        >>> from repro.graph import path_graph
        >>> from repro.ads import AdsIndex
        >>> server = AdsServer(AdsIndex.build(path_graph(4).to_csr(), k=4))
        >>> with server:  # starts a background thread, shuts down on exit
        ...     from repro.serve.client import QueryClient
        ...     QueryClient(server.url).cardinality(node=0, d=1.0)["value"]
        2.0
    """

    # Oversubscription budget: at most this many concurrent kernel
    # tasks per CPU across all request threads (2 keeps cores busy
    # while one task waits on page faults without thrashing the
    # scheduler; see ARCHITECTURE.md "Parallel kernel execution").
    KERNEL_BUDGET_FACTOR = 2

    def __init__(
        self,
        index: AdsIndex,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        threads: int = 8,
        graph=None,
        index_path: Optional[Union[str, Path]] = None,
        graph_path: Optional[Union[str, Path]] = None,
        wire_mode: str = "auto",
        node_range: Optional[Tuple[int, Optional[int]]] = None,
        wal_dir: Optional[Union[str, Path]] = None,
    ):
        self.index = index
        self.graph = graph
        self.index_path = (
            Path(index_path) if index_path is not None else None
        )
        self.graph_path = (
            Path(graph_path) if graph_path is not None else None
        )
        self.wal: Optional[WriteAheadLog] = None
        self.wal_replayed = 0
        if wal_dir is not None:
            if index.mmap_backed:
                raise ReproError(
                    "--wal-dir needs an eagerly loaded index "
                    "(--no-mmap): a memory-mapped index is read-only "
                    "and never takes the updates a WAL would log"
                )
            if graph is None:
                raise ReproError(
                    "--wal-dir needs the index's graph (--graph): the "
                    "WAL logs live /update batches, which only a "
                    "writable server accepts"
                )
            self.wal = WriteAheadLog(wal_dir)
            # Replay BEFORE the graph/index label check below: a crash
            # between compact's index flush and its graph flush leaves
            # the pair misaligned on disk, and replay is what realigns
            # them (see _replay_wal).
            self.wal_replayed = self._replay_wal()
        if graph is not None and graph.nodes() != index.nodes():
            raise ReproError(
                "graph/index mismatch: the attached graph must carry "
                "exactly the index's node labels in id order"
            )
        # Computed once: coerce_edge_labels would otherwise scan every
        # label per update, under the exclusive lock.  Sound to cache
        # because coercion rejects any label that would break type
        # uniformity, so the type can never change over updates.
        self._label_type = index.label_type()
        self.node_range = self._validate_node_range(node_range)
        super().__init__(
            host=host, port=port, cache_size=cache_size,
            threads=threads, wire_mode=wire_mode,
        )
        # After super().__init__: the cap needs self.threads, and no
        # request can arrive before start()/serve_forever anyway.
        self.kernel_workers = self._cap_kernel_workers()

    def _replay_wal(self) -> int:
        """Re-apply WAL batches logged after the last compact.

        Normal crash recovery: the on-disk index and graph are the last
        compacted pair, and every pending record replays through
        :meth:`AdsIndex.apply_edges` -- which is deterministic and
        bit-identical to a rebuild, so the recovered server answers
        exactly like one that never crashed.

        One torn-compact window needs reconciling first.  Compact
        flushes the index, then the graph, then truncates the WAL; a
        crash between the first two steps leaves an index that already
        carries every logged batch next to a graph that is missing
        those batches' edges (detected here as a label mismatch).
        Replaying the *edges only* catches the graph up, and the label
        check afterwards proves the pair realigned.  A crash after both
        flushes but before the WAL truncate replays batches whose edges
        already exist -- ``add_edges`` reports no new arcs, so the
        replay is a no-op, as required.
        """
        records = self.wal.pending()
        if not records:
            return 0
        if self.graph.nodes() != self.index.nodes():
            for record in records:
                self.graph.add_edges(record.edges)
            if self.graph.nodes() != self.index.nodes():
                raise ReproError(
                    "WAL replay cannot reconcile this graph/index "
                    "pair: the logged batches do not bring the graph "
                    "to the index's node set (wrong --graph file or "
                    "--wal-dir?)"
                )
            return len(records)
        for record in records:
            self.index.apply_edges(self.graph, record.edges)
        return len(records)

    def _validate_node_range(
        self, value: Optional[Tuple[int, Optional[int]]]
    ) -> Optional[Tuple[int, Optional[int]]]:
        if value is None:
            return None
        start, stop = value
        start = int(start)
        n = self.index.num_nodes
        require(
            0 <= start < n,
            f"node_range start must be in [0, {n}), got {start}",
        )
        if stop is not None:
            stop = int(stop)
            require(
                start < stop <= n,
                f"node_range stop must be in ({start}, {n}], got {stop}",
            )
        return (start, stop)

    def _range_bounds(self) -> Tuple[int, int]:
        """The node-id rows this worker sweeps, as concrete bounds."""
        if self.node_range is None:
            return 0, self.index.num_nodes
        start, stop = self.node_range
        return start, (self.index.num_nodes if stop is None else stop)

    def _cap_kernel_workers(self) -> int:
        """Cap request-threads x kernel-workers oversubscription.

        The product of concurrently running request threads and each
        one's kernel fan-out must not exceed
        ``KERNEL_BUDGET_FACTOR * cpu_count``; an index wired hotter
        than the per-thread budget is re-wired down (same floats,
        smaller fan-out).  Returns the effective kernel worker count.
        """
        workers = getattr(self.index, "kernel_workers", 1)
        cap = max(
            1,
            (self.KERNEL_BUDGET_FACTOR * (os.cpu_count() or 1))
            // self.threads,
        )
        if workers > cap:
            self.index.set_kernel_workers(cap)
            workers = self.index.kernel_workers
        return workers

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _healthz(self, params, body) -> Dict[str, Any]:
        # saturation: 0.0 idle .. 1.0 fully backed up -- the signal a
        # load balancer reads to steer traffic before sheds start.
        return {
            "status": "ok",
            "nodes": self.index.num_nodes,
            "saturation": round(self._saturation(), 6),
        }

    def _stats(self, params, body) -> Dict[str, Any]:
        index = self.index
        with self._counter_lock:
            requests, internal = self._requests, self._internal_errors
            updates = self._updates_applied
        index_stats = {
            "flavor": index.flavor,
            "k": index.k,
            "nodes": index.num_nodes,
            "entries": index.num_entries,
            "mmap": index.mmap_backed,
            "mapped_shards": index.mapped_shards,
            "backend": index.backend,
            "kernel_workers": getattr(index, "kernel_workers", 1),
            # What this worker actually serves -- the router's startup
            # topology validation compares this against --cluster.
            "labels_digest": index.labels_digest(),
            # format_version / entry_bytes / bytes_per_entry
            **index.format_stats(),
        }
        if self.node_range is not None:
            # Shard-worker mode: report the sweep range so a router (or
            # an operator) can see which rows this worker owns.
            index_stats["node_range"] = list(self.node_range)
        wal_stats: Dict[str, Any] = {"enabled": self.wal is not None}
        if self.wal is not None:
            wal_stats.update(self.wal.stats())
            wal_stats["replayed_on_start"] = self.wal_replayed
        return {
            "requests": requests,
            "internal_errors": internal,
            "uptime_seconds": time.monotonic() - self.started_at,
            "threads": self.threads,
            "transport": self._transport_stats(),
            "cache": self.cache.stats(),
            "updates": {
                "writable": self._writable(),
                "applied_batches": updates,
                "pending_batches": len(index.delta_log),
                "wal": wal_stats,
            },
            "index": index_stats,
        }

    # -- write endpoints -----------------------------------------------
    def _writable(self) -> bool:
        return self.graph is not None and not self.index.mmap_backed

    def _require_writable(self) -> None:
        if self.index.mmap_backed:
            raise conflict(
                "index is memory-mapped read-only; restart the server "
                "with --no-mmap to accept updates"
            )
        if self.graph is None:
            raise conflict(
                "server was started without the index's graph; restart "
                "with --graph to accept updates"
            )

    def _update(self, params, body) -> Dict[str, Any]:
        """Apply an edge batch to the live index (exclusive lock held)."""
        self._require_writable()
        edges = coerce_edge_labels(
            self.index, parse_edges(body), label_type=self._label_type
        )
        if self.wal is not None:
            # Logged and fsync'd *before* apply: once the client sees
            # 200, the batch survives any crash.  A batch apply_edges
            # refuses must not replay either -- withdraw it.
            self.wal.append(edges)
            try:
                result = self.index.apply_edges(self.graph, edges)
            except BaseException:
                self.wal.rollback_last()
                raise
        else:
            result = self.index.apply_edges(self.graph, edges)
        # Whole-graph sweeps cached before this batch are stale now.
        self.cache.clear()
        with self._counter_lock:
            self._updates_applied += 1
        return {
            **result.to_dict(),
            "nodes": self.index.num_nodes,
            "entries": self.index.num_entries,
        }

    def _compact(self, params, body) -> Dict[str, Any]:
        """Flush applied batches to the server's on-disk layout.

        The destination is pinned to the path the server was started
        with: accepting a client-supplied path would hand anyone who
        can reach the socket an arbitrary-file-write primitive (and a
        way to silently redirect flushes away from the real index).
        """
        if self.index.mmap_backed:
            raise conflict(
                "index is memory-mapped read-only; restart the server "
                "with --no-mmap to accept updates"
            )
        if body and "path" in body:
            raise bad_request(
                "compact always flushes to the server's own index path; "
                "a client-writable destination is not accepted"
            )
        if self.index_path is None:
            raise conflict(
                "server does not know its index path; restart via "
                "`repro serve --index ...` (or pass index_path= when "
                "embedding AdsServer)"
            )
        info = self.index.compact(self.index_path)
        info["path"] = str(self.index_path)
        if self.graph is not None and self.graph_path is not None:
            # The edge list must follow the index (node order pinned):
            # restarting against a stale graph file would pass the
            # label check but propagate the *next* update over a graph
            # missing these batches' edges -- silent divergence.
            from repro.graph.io import write_edge_list

            write_edge_list(self.graph, self.graph_path, all_nodes=True)
            info["graph_path"] = str(self.graph_path)
        if self.wal is not None:
            # Truncate last: every crash point inside compact leaves a
            # log that still covers whatever the flushed files miss
            # (_replay_wal reconciles the torn-compact orderings).
            self.wal.reset(self.wal.last_seq)
            info["wal"] = self.wal.stats()
        return info

    # -- resync protocol (worker scope) --------------------------------
    #
    # A router re-seeds a stale-quarantined replica by reading a
    # /sync/snapshot off a healthy donor and POSTing it to the stale
    # worker's /sync/install, then compares digests before re-admitting
    # it.  The snapshot is the donor's *live* state -- by construction
    # equal to its compacted bytes with the WAL tail applied, without
    # forcing a disk flush on the donor.  All three endpoints need a
    # writable worker: read-only (mmap) workers never take the writes
    # that could make a replica diverge in the first place.
    def _sync_digest(self, params, body) -> Dict[str, Any]:
        """``GET /sync/digest``: content fingerprint for divergence
        checks (two workers agree here iff every query answers
        identically)."""
        self._require_writable()
        return {
            "digest": self.index.content_digest(),
            "nodes": self.index.num_nodes,
            "entries": self.index.num_entries,
            "pending_batches": len(self.index.delta_log),
        }

    def _sync_snapshot(self, params, body) -> Dict[str, Any]:
        """``GET /sync/snapshot``: the full re-seed payload a healthy
        donor serves (index bytes + graph edges, read lock held)."""
        self._require_writable()
        return {
            "digest": self.index.content_digest(),
            "index_b64": base64.b64encode(
                self.index.to_bytes()
            ).decode("ascii"),
            "edges": [list(edge) for edge in self.graph.edges()],
            "directed": bool(self.graph.directed),
            "seq": self.wal.last_seq if self.wal is not None else 0,
            "nodes": self.index.num_nodes,
            "entries": self.index.num_entries,
        }

    def _sync_install(self, params, body) -> Dict[str, Any]:
        """``POST /sync/install``: replace this worker's state with a
        donor snapshot (exclusive lock held -- no query can observe the
        half-swapped state).

        The installed index is digest-verified against the donor's
        claim, flushed to this worker's own index/graph paths (so a
        crash right after resync restarts from the donor's content, not
        the diverged state), and the WAL is reset at the donor's
        sequence floor.
        """
        self._require_writable()
        from repro.graph.csr import CSRGraph

        blob, raw_edges, directed, seq, expected = parse_sync_install(body)
        try:
            index = AdsIndex.from_bytes(
                blob, backend=self.index.backend,
            )
            graph = CSRGraph.from_edges(
                raw_edges, directed=directed, nodes=index.nodes()
            )
        except ReproError as error:
            raise bad_request(f"unusable donor snapshot ({error})")
        digest = index.content_digest()
        if expected is not None and digest != expected:
            raise conflict(
                f"installed snapshot digest {digest} does not match "
                f"the donor's claimed {expected}"
            )
        self.index = index
        self.graph = graph
        self._label_type = index.label_type()
        self.kernel_workers = self._cap_kernel_workers()
        self.cache.clear()
        flushed = self._flush_installed_state()
        if self.wal is not None:
            self.wal.reset(seq)
        return {
            "installed": True,
            "digest": digest,
            "nodes": index.num_nodes,
            "entries": index.num_entries,
            "flushed": flushed,
        }

    def _flush_installed_state(self) -> bool:
        """Persist a freshly installed snapshot to this worker's own
        paths, preserving an existing sharded layout's shard count."""
        if self.index_path is None:
            return False
        path = self.index_path
        if path.is_dir() or path.name == MANIFEST_NAME:
            directory = path if path.is_dir() else path.parent
            try:
                manifest = json.loads(
                    (directory / MANIFEST_NAME).read_text(encoding="utf-8")
                )
                shards = max(1, len(manifest.get("shards") or ()))
            except (OSError, json.JSONDecodeError, AttributeError):
                shards = 1
            self.index.save(directory, shards=shards)
        else:
            self.index.save(path)
        if self.graph_path is not None:
            from repro.graph.io import write_edge_list

            write_edge_list(self.graph, self.graph_path, all_nodes=True)
        return True

    # -- sweep helpers (node_range-aware) ------------------------------
    #
    # A full-index worker uses the batch kernel paths; a shard worker
    # sweeps its rows through the per-node query methods, which the
    # index documents as bit-identical to the batch kernels.  Both
    # produce rows in global node-id order, so a router concatenating
    # contiguous ranges reproduces the single-index ordering exactly.
    def _sweep_cardinality(self, d: float):
        if self.node_range is None:
            return label_value_pairs(self.index.cardinality_at(d))
        start, stop = self._range_bounds()
        labels = self.index.nodes()[start:stop]
        values = self.index.nodes_cardinality_at(labels, d)
        return [[label, value] for label, value in zip(labels, values)]

    def _sweep_closeness(self, kwargs):
        if self.node_range is None:
            return label_value_pairs(
                self.index.closeness_centrality(**kwargs)
            )
        start, stop = self._range_bounds()
        return [
            [label, self.index.node_closeness_centrality(label, **kwargs)]
            for label in self.index.nodes()[start:stop]
        ]

    def _sweep_top_central(self, count: int, largest: bool, kwargs):
        if self.node_range is None:
            return [
                [label, value]
                for label, value in self.index.top_central(
                    count, largest=largest, **kwargs
                )
            ]
        start, stop = self._range_bounds()
        values = {
            label: self.index.node_closeness_centrality(label, **kwargs)
            for label in self.index.nodes()[start:stop]
        }
        return [
            [label, value]
            for label, value in top_k_central_nodes(
                values, count, largest=largest
            )
        ]

    def _sweep_neighborhood(self):
        if self.node_range is None:
            return series_pairs(self.index.neighborhood_function())
        start, stop = self._range_bounds()
        jumps = self.index.accumulate_neighborhood_jumps({}, start, stop)
        series, running = [], 0.0
        for d in sorted(jumps):
            running += jumps[d]
            series.append([d, running])
        return series

    def _nf_chain(self, params, body) -> Dict[str, Any]:
        """Seeded ANF accumulation (``POST /nf-chain``) for routers.

        Body: ``{"seed": [[distance, weight_sum], ...]}`` -- the
        running per-distance sums from the preceding shard ranges
        (empty or omitted for the first).  The worker folds its own
        rows on top (see
        :meth:`~repro.ads.index.AdsIndex.accumulate_neighborhood_jumps`)
        and returns the updated sums sorted by distance.  Chaining the
        groups in shard order and prefix-summing the final jumps
        replays the single-index ANF float-op sequence exactly.
        """
        seed = body.get("seed", [])
        if not isinstance(seed, list):
            raise bad_request(
                "seed must be an array of [distance, weight] pairs"
            )
        jumps: Dict[float, float] = {}
        for pair in seed:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or any(
                    isinstance(x, bool) or not isinstance(x, (int, float))
                    for x in pair
                )
            ):
                raise bad_request(
                    "seed must be an array of [distance, weight] pairs"
                )
            jumps[float(pair[0])] = float(pair[1])
        start, stop = self._range_bounds()
        self.index.accumulate_neighborhood_jumps(jumps, start, stop)
        return {"jumps": [[d, jumps[d]] for d in sorted(jumps)]}

    def _cardinality(self, params, body) -> Dict[str, Any]:
        if body is not None:
            d = _batch_float(body, "d", math.inf)
            labels = resolve_nodes(self.index, body.get("nodes"))
            values = self.index.nodes_cardinality_at(labels, d)
            return {
                "d": json_safe_number(d),
                "results": [
                    [label, value]
                    for label, value in zip(labels, values)
                ],
            }
        d = parse_float(params, "d", math.inf)
        if "node" in params:
            label = resolve_node(self.index, params["node"])
            return {
                "node": label,
                "d": json_safe_number(d),
                "value": self.index.node_cardinality_at(label, d),
            }
        if d == math.inf:
            # Only the default all-reachable sweep is cached: d is a
            # continuous parameter, so caching every distinct threshold
            # would let a d-sweeping client pin cache-size O(n) result
            # lists in RAM.  Arbitrary-d sweeps stay O(n log k) per
            # request off the (once-materialised) prefix sums.
            results, cached = self._cached(
                ("/cardinality", d),
                lambda: self._sweep_cardinality(d),
            )
        else:
            results = self._sweep_cardinality(d)
            cached = False
        return {"d": json_safe_number(d), "results": results,
                "cached": cached}

    def _closeness(self, params, body) -> Dict[str, Any]:
        if body is not None:
            string_params = {
                name: str(body[name])
                for name in ("kind", "half_life") if name in body
            }
            kwargs = centrality_kwargs(string_params)
            labels = resolve_nodes(self.index, body.get("nodes"))
            return {
                "kind": string_params.get("kind", "classic"),
                "results": [
                    [label,
                     self.index.node_closeness_centrality(label, **kwargs)]
                    for label in labels
                ],
            }
        kwargs = centrality_kwargs(params)
        if "node" in params:
            label = resolve_node(self.index, params["node"])
            return {
                "node": label,
                "kind": params.get("kind", "classic"),
                "value": self.index.node_closeness_centrality(
                    label, **kwargs
                ),
            }
        results, cached = self._cached(
            ("/closeness",) + self._centrality_key(params),
            lambda: self._sweep_closeness(kwargs),
        )
        return {"kind": params.get("kind", "classic"), "results": results,
                "cached": cached}

    def _neighborhood(self, params, body) -> Dict[str, Any]:
        if "node" in params:
            label = resolve_node(self.index, params["node"])
            return {
                "node": label,
                "series": series_pairs(
                    self.index.node_neighborhood_function(label)
                ),
            }
        series, cached = self._cached(
            ("/neighborhood",),
            self._sweep_neighborhood,
        )
        return {"series": series, "cached": cached}

    def _top_central(self, params, body) -> Dict[str, Any]:
        count = parse_int(params, "count", 10, minimum=1)
        largest = parse_bool(params, "largest", True)
        kwargs = centrality_kwargs(params)
        results, cached = self._cached(
            ("/top-central", count, largest) + self._centrality_key(params),
            lambda: self._sweep_top_central(count, largest, kwargs),
        )
        return {
            "kind": params.get("kind", "classic"),
            "count": count,
            "largest": largest,
            "results": results,
            "cached": cached,
        }

    # -- similarity / distance-oracle endpoints ------------------------
    #
    # Validation order is pinned for cluster parity: everything a
    # router can check without an index (metric, pair shapes, d) is
    # checked first, in the same order the router checks it; the
    # flavor refusal comes last because only index-holding servers can
    # raise it (the router surfaces a worker's 409 verbatim).
    def _require_bottomk_index(self) -> None:
        if self.index.flavor != "bottomk":
            raise conflict(
                "similarity queries need a bottom-k index; this "
                f"server's index flavor is {self.index.flavor!r}"
            )

    def _similarity(self, params, body) -> Dict[str, Any]:
        metric = parse_similarity_metric(body)
        pairs = parse_pairs(self.index, body)
        if metric == "jaccard":
            d = _batch_float(body, "d", math.inf)
            self._require_bottomk_index()
            values = self.index.pairs_neighborhood_jaccard(pairs, d)
            return {
                "metric": metric,
                "d": json_safe_number(d),
                "results": [
                    [u, v, value]
                    for (u, v), value in zip(pairs, values)
                ],
            }
        if "d" in body:
            raise bad_request("d only applies to the jaccard metric")
        self._require_bottomk_index()
        values = self.index.pairs_closeness_similarity(pairs)
        return {
            "metric": metric,
            "results": [
                [u, v, value] for (u, v), value in zip(pairs, values)
            ],
        }

    def _distance(self, params, body) -> Dict[str, Any]:
        pairs = parse_pairs(self.index, body)
        self._require_bottomk_index()
        values = self.index.pairs_distance_estimate(pairs)
        # Unreachable pairs estimate to inf, which JSON cannot carry:
        # they come back as null.
        return {
            "results": [
                [u, v, json_safe_number(value)]
                for (u, v), value in zip(pairs, values)
            ],
        }

    def _similar(self, raw: str, params) -> Dict[str, Any]:
        if not raw:
            raise bad_request("/similar/<label> requires a label")
        count = parse_int(params, "count", 10, minimum=1)
        d = parse_float(params, "d", math.inf)
        label = resolve_node(self.index, raw)
        self._require_bottomk_index()
        start, stop = self._range_bounds()
        results = self.index.most_similar(
            label, count=count, d=d, start=start, stop=stop
        )
        return {
            "node": label,
            "count": count,
            "d": json_safe_number(d),
            "results": [[node, value] for node, value in results],
        }

    def _nf_curve(self, params, body) -> Dict[str, Any]:
        # Shares the /neighborhood cache entry: the curve is a pure
        # transform of the same swept series.
        series, cached = self._cached(
            ("/neighborhood",),
            self._sweep_neighborhood,
        )
        points, total = nf_curve_points(series)
        return {"points": points, "total_pairs": total, "cached": cached}

    def _node_summary(self, raw: str) -> Dict[str, Any]:
        if not raw:
            raise bad_request("/node/<label> requires a label")
        label = resolve_node(self.index, raw)
        lo, hi = self.index._slice(label)
        return {
            "node": label,
            "sketch_size": hi - lo,
            "reachable": self.index.node_cardinality_at(label),
            "closeness_classic": self.index.node_closeness_centrality(
                label, classic=True
            ),
            "neighborhood": series_pairs(
                self.index.node_neighborhood_function(label)
            ),
        }


def _batch_float(body: Dict[str, Any], name: str, default: float) -> float:
    """A float field of a JSON batch body (ints allowed, bools are not)."""
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise bad_request(f"{name} must be a number, got {value!r}")
    value = float(value)
    if math.isnan(value):
        raise bad_request(f"{name} must not be NaN")
    return value
