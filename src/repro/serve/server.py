"""``AdsServer``: a long-lived JSON query daemon over one ``AdsIndex``.

The paper's workflow is build-once / query-forever (Section 1); this is
the query-forever half as an actual network service.  A single
:class:`~repro.ads.index.AdsIndex` -- ideally loaded with ``mmap=True``
so the process starts serving in milliseconds -- answers from one
asyncio event loop: a hand-rolled HTTP/1.1 keep-alive parser consumes
a whole TCP segment at a time, every complete *pipelined* request in
the read buffer is dispatched, and all their responses leave in one
write, so a segment of N requests costs two syscalls and one round
trip, not 2N and N.  A point estimate is one bisect and one prefix-sum
lookup; the transport's job is to add as little as possible to that.

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
500s -- always with an ``{"error": ...}`` body.  Every response carries
an explicit ``Content-Length``, so clients keep connections alive and
may pipeline: N requests written in one segment are answered by N
responses in request order (``benchmarks/bench_serve.py`` measures
exactly that).

Routing, caching, locking, and the endpoint handlers never touch a
socket: :meth:`ServerBase.handle_request` maps ``(method, target, raw
body)`` to ``(status, payload)``, and the connection renders whatever
it returns.  Where that call runs is the one thing a server class
chooses (:attr:`ServerBase._DISPATCH_THREADS`), and one connection
class (an ``asyncio.Protocol``) serves both choices:

* :class:`AdsServer` runs it **inline on the event loop**.  A query is
  microseconds of bisect arithmetic, so a thread hand-off would cost
  more than the query; a whole-graph sweep does briefly stall other
  connections, which is what the LRU cache amortises.  An update or a
  compaction already excludes every reader through the write lock, so
  running it inline changes no ordering.
* :class:`repro.serve.cluster.RouterServer` blocks on worker RPCs, so
  the same loop awaits it **on a bounded thread executor**: connections
  overlap, responses still leave in request order per connection.

At most ``max_in_flight`` requests may be dispatched and unanswered at
once; beyond that the server answers ``503`` with ``Retry-After`` and
closes that connection (``transport.load_shed`` in ``/stats``,
``saturation`` in ``/healthz``) rather than resetting it -- a reset
reads as a transport fault and sends well-behaved clients straight
back into the overload.  Only executor dispatch can reach the bound:
an inline request is answered before the next one is parsed.

Responses are negotiated per request: clients that send ``Accept:
application/x-repro-wire`` get the compact binary codec
(:mod:`repro.serve.wire`), everyone else the unchanged JSON.

Writes are optional: ``/update`` needs the server started with the
index's *graph* (``repro serve --graph``) and an eagerly loaded
(non-mmap) index, and answers 409 otherwise.  A
:class:`~repro.serve.locks.ReadWriteLock` keeps in-process and
executor-dispatched queries concurrent while an update holds the
exclusive side, and every applied batch invalidates the whole-graph
result cache (sketches changed; the cached sweeps are stale by
definition).
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from repro._util import require
from repro.ads.index import AdsIndex
from repro.ads.storage import MANIFEST_NAME
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
_MAX_HEADER_COUNT = 64
#: A request head (request line + headers) must fit in this many bytes.
_MAX_HEAD_BYTES = 65536

#: Requests dispatched and not yet answered, over all connections,
#: before new ones are shed with ``503``.
MAX_IN_FLIGHT = 256
#: Executor size for a server whose ``handle_request`` blocks.
DISPATCH_THREADS = 8

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
#: ``_parse_request``'s answer for a complete head that announced
#: ``Expect: 100-continue`` and whose body has not arrived yet.
_AWAITING_BODY = object()


class _ProtocolError(Exception):
    """A request the parser must refuse; the connection closes after
    the error response (unread body bytes would poison the stream)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """``(path, params)`` of a request target, the last of a repeated
    parameter winning and blank values kept (``?node=`` must reach
    resolve_node's 404, not become an all-nodes sweep).  A target with
    nothing ``urlsplit`` / ``parse_qs`` would decode or drop -- ``%``,
    ``#``, tab / CR / LF, a leading ``//``, a ``+`` in the query -- is
    split by hand, to the same result; the rest go through them."""
    path, _, query = target.partition("?")
    if (
        path[:1] == "/" and path[1:2] != "/"
        and "%" not in target and "#" not in target and "+" not in query
        and "\t" not in target and "\r" not in target and "\n" not in target
    ):
        params = {}
        for field in query.split("&"):
            if field:
                name, _, value = field.partition("=")
                params[name] = value
        return path, params
    split = urlsplit(target)
    return unquote(split.path), {
        name: values[-1]
        for name, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }


class _Connection(asyncio.Protocol):
    """One client connection, for either dispatch mode.

    Each read runs :meth:`_answer` over the buffered wave: inline,
    inside ``data_received``; on the executor, as the connection's
    drain task, with reading paused until the wave is answered.
    Reading also pauses while unsent responses are above the
    transport's high-water mark, so a client that pipelines without
    reading costs at most that plus one wave.  One timer per connection
    drops it after ``idle_timeout`` seconds of waiting on the client.
    """

    def __init__(self, server: ServerBase, loop: asyncio.AbstractEventLoop):
        self.server = server
        self.loop = loop
        self.buf = bytearray()
        # True once the interim 100 went out for the request at the
        # front of buf; it is re-parsed on every read until its body is
        # whole and must be told to continue only once.
        self.continued = False
        self.write_paused = False
        self.drain: Optional["asyncio.Task[None]"] = None
        self.last_read = loop.time()
        self.timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        try:
            # asyncio disables Nagle only where sock.proto is TCP, and
            # an accepted socket's is 0.
            transport.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except OSError:  # pragma: no cover - platform-specific
            pass
        self.server._open.add(self)
        self.server._connections_total += 1
        self.timer = self.loop.call_later(
            self.server.idle_timeout, self._check_idle
        )

    def connection_lost(self, exc) -> None:
        self.server._open.discard(self)
        if self.timer is not None:
            self.timer.cancel()
        if self.drain is not None:
            self.drain.cancel()

    def data_received(self, data: bytes) -> None:
        self.buf += data
        self.last_read = self.loop.time()
        wave = self._answer()
        if self.server._executor is None:
            # Inline dispatch never awaits: one send() runs the wave.
            try:
                wave.send(None)
            except StopIteration:
                pass
        else:
            self.transport.pause_reading()
            self.drain = self.loop.create_task(wave)

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.last_read = self.loop.time()
        if self.drain is None:
            self.transport.resume_reading()

    def _check_idle(self) -> None:
        timeout = self.server.idle_timeout
        if self.drain is not None or self.write_paused:
            left = timeout  # waiting on our side, not the client's
        else:
            left = self.last_read + timeout - self.loop.time()
        if left > 0:
            self.timer = self.loop.call_later(left, self._check_idle)
        else:
            self.timer = None
            self.transport.close()

    async def _answer(self) -> None:
        server, buf = self.server, self.buf
        out: List[bytes] = []
        pos = 0
        closing = served = False
        while not closing:
            try:
                parsed = server._parse_request(buf, pos)
            except _ProtocolError as error:
                server._count_request()
                out.append(server._render(
                    error.status, {"error": error.message}, None, "close"
                ))
                closing = True
                break
            if parsed is None:
                break  # incomplete request: need more bytes
            if parsed is _AWAITING_BODY:
                if not self.continued:
                    out.append(_CONTINUE)
                    self.continued = True
                break
            self.continued = False
            served = True
            pos, method, target, headers, body, connection = parsed
            accept = headers.get("accept")
            if server._in_flight >= server.max_in_flight:
                # Only executor dispatch gets here: an inline request
                # is answered before the next one is parsed.
                server._sheds += 1
                out.append(server._render(
                    503, {"error": "server overloaded; retry later"},
                    accept, "close",
                ))
                closing = True
                break
            server._in_flight += 1
            try:
                if method not in ("GET", "POST"):
                    server._count_request()
                    status: int = 501
                    payload: Dict[str, Any] = {
                        "error": f"method {method} is not supported"
                    }
                elif server._executor is None:
                    status, payload = server.handle_request(
                        method, target, body, headers.get("content-type")
                    )
                else:
                    status, payload = await self.loop.run_in_executor(
                        server._executor, server.handle_request,
                        method, target, body, headers.get("content-type"),
                    )
            finally:
                server._in_flight -= 1
            out.append(server._render(status, payload, accept, connection))
            closing = connection == "close"
        if served:
            server._reads += 1
        # Trimmed once per read: per request, it would move the rest of
        # a pipelined wave every time.
        del buf[:pos]
        if out:
            self.transport.write(b"".join(out))
        self.drain = None
        self.last_read = self.loop.time()
        if closing:
            self.transport.close()
        elif not self.write_paused:
            self.transport.resume_reading()


class ServerBase:
    """Transport, dispatch, caching, and counter chassis for servers.

    Everything about *serving HTTP* -- the pipelined event-loop
    transport, the socket-free :meth:`handle_request` funnel, the
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
    by construction.  The public read endpoints and the ``/update``
    frame are implemented here too, once; a subclass writes only how a
    value is *fetched* from the sketches (the ``_fetch_*`` methods,
    listed above the handlers), ``/healthz``, ``/stats``, and its own
    write path.

    The listening socket binds at construction, so :attr:`port` and
    :attr:`url` are readable -- and :meth:`close` works -- on a server
    that never started.
    """

    # Paths that take the exclusive side of the read/write lock --
    # derived from the same registry the dispatch tables come from.
    _WRITE_PATHS = registry.WRITE_PATHS

    # Which registry scopes this server carries.  Workers (and single
    # servers) also answer the internal worker-to-worker endpoints; the
    # cluster router narrows this to {"all"}.
    _ROUTE_SCOPES = frozenset({"all", "worker"})

    #: ``None``: :meth:`handle_request` runs inline on the event loop
    #: (it must not block).  A count: it is awaited on an executor of
    #: that many threads, one request at a time per connection.
    _DISPATCH_THREADS: Optional[int] = None

    #: A connection the server has waited on this many seconds without
    #: a byte -- idle keep-alive, or stalled mid-request -- is dropped.
    idle_timeout = 30.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        wire_mode: str = "auto",
        max_in_flight: int = MAX_IN_FLIGHT,
    ):
        require(
            wire_mode in ("auto", "json"),
            f"wire_mode must be 'auto' or 'json', got {wire_mode!r}",
        )
        require(
            max_in_flight >= 1,
            f"max_in_flight must be >= 1, got {max_in_flight}",
        )
        self.cache = LruCache(cache_size)
        self.wire_mode = wire_mode
        self.max_in_flight = int(max_in_flight)
        # Monotonic, not wall-clock: /stats uptime must survive a
        # wall-clock step (NTP correction, DST) without going negative.
        self.started_at = time.monotonic()
        self._requests = 0
        self._internal_errors = 0
        self._updates_applied = 0
        self._counter_lock = threading.Lock()
        self._rw_lock = ReadWriteLock()
        # Transport state: touched on the event-loop thread only.
        self._in_flight = 0
        self._sheds = 0
        self._open: Set[_Connection] = set()
        self._connections_total = 0
        self._reads = 0
        # (status, content type, Connection) -> head around Content-Length
        self._heads: Dict[tuple, Tuple[bytes, bytes]] = {}
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._routes = self._build_routes()
        self._executor = (
            ThreadPoolExecutor(
                max_workers=self._DISPATCH_THREADS,
                thread_name_prefix="repro-serve-dispatch",
            )
            if self._DISPATCH_THREADS else None
        )
        self._socket = socket.create_server((host, port), backlog=512)
        self._socket.setblocking(False)

    def _build_routes(self):
        """Bind the endpoint registry for this class's scopes.

        Returns the exact-path dispatch table and stores the
        prefix-route table (``/node/<label>``-style endpoints) on the
        side; both map path -> ``(bound handler, allowed methods)``.
        """
        exact, prefix = registry.route_tables(self, self._ROUTE_SCOPES)
        self._prefix_routes = prefix
        return exact

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._socket.getsockname()[0]

    @property
    def port(self) -> int:
        return self._socket.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (or Ctrl-C)."""
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await loop.create_server(
            lambda: _Connection(self, loop), sock=self._socket
        )
        self._serving.set()
        try:
            await self._stop.wait()
        finally:
            self._serving.clear()
            self._loop = None
            server.close()
            # A client may hold a keep-alive connection open for as
            # long as it likes, and wait_closed() (Python >= 3.12.1)
            # waits for every connection: end them ourselves.
            for connection in list(self._open):
                connection.transport.abort()
            await server.wait_closed()

    def start(self) -> "ServerBase":
        """Serve on a daemon background thread (tests, examples, embeds)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve-loop",
                daemon=True,
            )
            self._thread.start()
            # Wait for the loop to go live so an immediate shutdown()
            # finds a loop to stop instead of racing its startup.
            self._serving.wait(timeout=5.0)
        return self

    def shutdown(self) -> None:
        """Stop the loop, join the background thread, close the socket.

        Safe to call whether or not the server ever started.
        """
        loop = self._loop
        if self._serving.is_set() and loop is not None:
            try:
                loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already torn down
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.close()

    def close(self) -> None:
        """Release the listening socket and the dispatch executor.

        The public teardown for a server that was never (or is no
        longer) serving; :meth:`shutdown` calls it automatically.
        Idempotent.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        self._socket.close()

    def __enter__(self) -> "ServerBase":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Connection handling (the wire side lives in _Connection)
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_request(buf: bytearray, start: int):
        """Parse one request from ``buf[start:]``; ``buf`` is not touched.

        Returns ``None`` when the rest of the buffer holds only a prefix
        of a request (the caller reads more bytes) -- or
        ``_AWAITING_BODY`` when that prefix is a complete head that
        asked for ``100 Continue`` -- raises :class:`_ProtocolError` for
        requests that must be refused, and otherwise returns ``(end,
        method, target, headers, body, connection)``: the next request
        starts at *end*, and *connection* is the ``Connection`` header
        the response carries (``"close"``, ``"keep-alive"`` for an
        HTTP/1.0 client that asked to stay, or ``None``).
        """
        head_end = buf.find(b"\r\n\r\n", start)
        sep_len = 4
        # Bare-LF framing is tolerated, per request: whichever
        # terminator comes first ends *this* head, so a bare-LF request
        # pipelined ahead of a CRLF one keeps its own headers.
        bare = (
            buf.find(b"\n\n", start, head_end) if head_end != -1
            else buf.find(b"\n\n", start)
        )
        if bare != -1:
            head_end, sep_len = bare, 2
        if head_end == -1:
            pending = len(buf) - start
            if pending > _MAX_HEAD_BYTES and buf.find(b"\n", start) == -1:
                raise _ProtocolError(400, "request line too long")
            if pending > 2 * _MAX_HEAD_BYTES:
                raise _ProtocolError(400, "request head too large")
            return None
        lines = bytes(buf[start:head_end]).split(b"\n")
        if len(lines[0]) > _MAX_HEAD_BYTES:
            raise _ProtocolError(400, "request line too long")
        line = lines[0].rstrip(b"\r").decode("latin-1")
        parts = line.split()
        if len(parts) != 3:
            raise _ProtocolError(400, "malformed request line")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise _ProtocolError(400, f"unsupported protocol {version}")
        if len(lines) - 1 > _MAX_HEADER_COUNT:
            raise _ProtocolError(400, "too many headers")
        headers: Dict[str, str] = {}
        for raw_header in lines[1:]:
            stripped = raw_header.rstrip(b"\r")
            name, sep, value = stripped.partition(b":")
            if not sep:
                raise _ProtocolError(400, "malformed header line")
            key = name.strip().lower().decode("latin-1")
            text = value.strip().decode("latin-1")
            # Two lengths that disagree are two framings of one stream:
            # whichever this server picked, a proxy may pick the other.
            if key == "content-length" and headers.get(key, text) != text:
                raise _ProtocolError(400, "conflicting Content-Length")
            headers[key] = text
        if "transfer-encoding" in headers:
            # Chunked bodies are not implemented; ignoring the header
            # would frame by Content-Length (or leave the chunks in the
            # buffer to be parsed as the next pipelined request).
            raise _ProtocolError(501, "Transfer-Encoding is not supported")
        asked = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            # A 1.0 client closes unless the response says it may stay.
            connection = "keep-alive" if asked == "keep-alive" else "close"
        else:
            connection = "close" if asked == "close" else None
        body: Optional[bytes] = None
        end = head_end + sep_len
        if "content-length" in headers:
            digits = headers["content-length"]
            # ASCII digits only, and few enough for int(): on its own
            # int() also takes "+10", "1_0" and non-ASCII digits.
            if not (digits.isascii() and digits.isdigit()) or len(digits) > 18:
                raise _ProtocolError(400, "invalid Content-Length")
            length = int(digits)
            if length > _MAX_BODY_BYTES:
                raise _ProtocolError(400, "request body too large")
            body_start, end = end, end + length
            if len(buf) < end:
                # Body still in flight.  A client that sent Expect is
                # holding it back until told to go on (curl above its
                # body-size threshold, older .NET defaults).
                if (
                    version != "HTTP/1.0"
                    and headers.get("expect", "").lower() == "100-continue"
                ):
                    return _AWAITING_BODY
                return None
            # Skipped for ANY method (a GET body left unread would be
            # parsed as the next pipelined request); only POST uses it.
            if method == "POST":
                body = bytes(buf[body_start:end])
        elif method == "POST":
            # No Content-Length: an absent body (or one we cannot
            # frame), so the connection cannot be kept alive.
            raise _ProtocolError(400, "POST requires Content-Length")
        return end, method, target, headers, body, connection

    def _render(
        self,
        status: int,
        payload: Dict[str, Any],
        accept: Optional[str],
        connection: Optional[str],
    ) -> bytes:
        data, content_type = wire.encode_response(
            payload, accept, self.wire_mode
        )
        key = (status, content_type, connection)
        if key not in self._heads:
            tail = "Retry-After: 1\r\n" if status == 503 else ""
            if connection:
                tail += f"Connection: {connection}\r\n"
            self._heads[key] = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\nContent-Length: "
                .encode("latin-1"),
                f"\r\n{tail}\r\n".encode("latin-1"),
            )
        lead, tail = self._heads[key]
        return b"%s%d%s%s" % (lead, len(data), tail, data)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _count_request(self) -> None:
        with self._counter_lock:
            self._requests += 1

    def _count_internal_error(self) -> None:
        with self._counter_lock:
            self._internal_errors += 1

    def handle_request(
        self,
        method: str,
        target: str,
        body: Optional[bytes],
        content_type: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Socket-free request handling: ``(status, payload)``.

        *target* is the request target as it appeared on the request
        line (path plus optional query string); *body* is the raw POST
        body, decoded as JSON or as the binary wire codec depending on
        *content_type*.  Never raises -- refusals and faults come back
        as their HTTP status with an ``{"error": ...}`` payload, and
        every call counts toward ``/stats``.  Connections and
        in-process callers both come through here, so a served body is
        ``encode_response`` of exactly what this returns.  Thread-safe.
        """
        self._count_request()
        try:
            path, params = _split_target(target)
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
        """In-flight fill fraction, 0.0 idle .. 1.0 about to shed.

        The probing request is itself in flight; this reports the
        pressure *beyond* it, so an idle server answers 0.0.
        """
        return min(
            1.0, max(0, self._in_flight - 1) / self.max_in_flight
        )

    def _transport_stats(self) -> Dict[str, Any]:
        # requests / reads is the pipeline depth actually served.
        return {
            "mode": "async",
            "connections": len(self._open),
            "connections_total": self._connections_total,
            "reads": self._reads,
            "in_flight": self._in_flight,
            "max_in_flight": self.max_in_flight,
            "load_shed": self._sheds,
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

    # ------------------------------------------------------------------
    # Read endpoints: one implementation for every server flavor
    # ------------------------------------------------------------------
    #
    # Each handler parses, validates, resolves labels against
    # ``self._directory``, *fetches*, shapes, and caches whole-graph
    # results.  Where the sketches live changes only the fetch:
    #
    #   node value    _fetch_node_cardinality(label, d, params)
    #                 _fetch_node_closeness(label, kwargs, params)
    #                 _fetch_node_series(label, params)
    #   node batch    _fetch_batch_cardinality(labels, d)
    #                 _fetch_batch_closeness(labels, kwargs, kind_params)
    #   sweep rows    _fetch_sweep_cardinality(d, params)
    #                 _fetch_sweep_closeness(kwargs, params)
    #   top-k rows    _fetch_top_central(count, largest, kwargs, params)
    #   ANF series    _fetch_anf_series()
    #   pair batch    _fetch_pair_values(path, pairs, fields)
    #   neighbours    _fetch_similar(label, count, d, params)
    #   node summary  _fetch_node_summary(label)
    #
    # A fetch returns what the index itself would -- floats (``inf``
    # included), or ``[x, value]`` wire rows in answer order -- and may
    # refuse: the bottom-k flavor gate is a property of the sketches,
    # so it sits there, after every check a handler can make without
    # them.  Arguments arrive parsed; the request's own string
    # ``params`` / ``kind_params`` ride along for a server that
    # forwards the question to the sketches' owner instead.
    def _cardinality(self, params, body) -> Dict[str, Any]:
        if body is not None:
            d = _batch_float(body, "d", math.inf)
            labels = resolve_nodes(self._directory, body.get("nodes"))
            values = self._fetch_batch_cardinality(labels, d)
            return {
                "d": json_safe_number(d),
                "results": [
                    [label, value]
                    for label, value in zip(labels, values)
                ],
            }
        d = parse_float(params, "d", math.inf)
        if "node" in params:
            label = resolve_node(self._directory, params["node"])
            return {
                "node": label,
                "d": json_safe_number(d),
                "value": self._fetch_node_cardinality(label, d, params),
            }
        if d == math.inf:
            # Only the default all-reachable sweep is cached: d is a
            # continuous parameter, so caching every distinct threshold
            # would let a d-sweeping client pin cache-size O(n) result
            # lists in RAM.  Arbitrary-d sweeps stay O(n log k) per
            # request off the (once-materialised) prefix sums.
            results, cached = self._cached(
                ("/cardinality", d),
                lambda: self._fetch_sweep_cardinality(d, params),
            )
        else:
            results = self._fetch_sweep_cardinality(d, params)
            cached = False
        return {"d": json_safe_number(d), "results": results,
                "cached": cached}

    def _closeness(self, params, body) -> Dict[str, Any]:
        if body is not None:
            kind_params = {
                name: str(body[name])
                for name in ("kind", "half_life") if name in body
            }
            kwargs = centrality_kwargs(kind_params)
            labels = resolve_nodes(self._directory, body.get("nodes"))
            values = self._fetch_batch_closeness(labels, kwargs, kind_params)
            return {
                "kind": kind_params.get("kind", "classic"),
                "results": [
                    [label, value]
                    for label, value in zip(labels, values)
                ],
            }
        kwargs = centrality_kwargs(params)
        if "node" in params:
            label = resolve_node(self._directory, params["node"])
            return {
                "node": label,
                "kind": params.get("kind", "classic"),
                "value": self._fetch_node_closeness(label, kwargs, params),
            }
        results, cached = self._cached(
            ("/closeness",) + self._centrality_key(params),
            lambda: self._fetch_sweep_closeness(kwargs, params),
        )
        return {"kind": params.get("kind", "classic"), "results": results,
                "cached": cached}

    def _neighborhood(self, params, body) -> Dict[str, Any]:
        if "node" in params:
            label = resolve_node(self._directory, params["node"])
            return {
                "node": label,
                "series": self._fetch_node_series(label, params),
            }
        series, cached = self._cached(
            ("/neighborhood",), self._fetch_anf_series
        )
        return {"series": series, "cached": cached}

    def _nf_curve(self, params, body) -> Dict[str, Any]:
        # Shares the /neighborhood cache entry: the curve is a pure
        # transform of the same series.
        series, cached = self._cached(
            ("/neighborhood",), self._fetch_anf_series
        )
        points, total = nf_curve_points(series)
        return {"points": points, "total_pairs": total, "cached": cached}

    def _top_central(self, params, body) -> Dict[str, Any]:
        count = parse_int(params, "count", 10, minimum=1)
        largest = parse_bool(params, "largest", True)
        kwargs = centrality_kwargs(params)
        results, cached = self._cached(
            ("/top-central", count, largest) + self._centrality_key(params),
            lambda: self._fetch_top_central(count, largest, kwargs, params),
        )
        return {
            "kind": params.get("kind", "classic"),
            "count": count,
            "largest": largest,
            "results": results,
            "cached": cached,
        }

    def _similarity(self, params, body) -> Dict[str, Any]:
        metric = parse_similarity_metric(body)
        pairs = parse_pairs(self._directory, body)
        fields: Dict[str, Any] = {"metric": metric}
        if metric == "jaccard":
            fields["d"] = _batch_float(body, "d", math.inf)
        elif "d" in body:
            raise bad_request("d only applies to the jaccard metric")
        values = self._fetch_pair_values("/similarity", pairs, fields)
        reply = dict(fields)
        if "d" in reply:
            reply["d"] = json_safe_number(reply["d"])
        reply["results"] = [
            [u, v, value] for (u, v), value in zip(pairs, values)
        ]
        return reply

    def _distance(self, params, body) -> Dict[str, Any]:
        pairs = parse_pairs(self._directory, body)
        values = self._fetch_pair_values("/distance", pairs, {})
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
        label = resolve_node(self._directory, raw)
        return {
            "node": label,
            "count": count,
            "d": json_safe_number(d),
            "results": self._fetch_similar(label, count, d, params),
        }

    def _node(self, raw: str, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /node/<label>`` prefix route."""
        return self._node_summary(raw)

    def _node_summary(self, raw: str) -> Dict[str, Any]:
        if not raw:
            raise bad_request("/node/<label> requires a label")
        label = resolve_node(self._directory, raw)
        return {"node": label, **self._fetch_node_summary(label)}

    def _update(self, params, body) -> Dict[str, Any]:
        """Apply an edge batch (exclusive lock held): validate, hand
        the typed edges to :meth:`_apply_update`, then drop the cached
        whole-graph results -- stale by definition -- and count it."""
        self._require_writable()
        edges = coerce_edge_labels(
            self._directory, parse_edges(body), label_type=self._label_type
        )
        result = self._apply_update(edges)
        self.cache.clear()
        with self._counter_lock:
            self._updates_applied += 1
        return result


class AdsServer(ServerBase):
    """The serving daemon: routing, caching, and counters over an index.

    Args:
        index: The sketch index to serve.  Its kernel fan-out
            (``index.kernel_workers``, reported in ``/stats``) is
            served as wired; ``repro serve`` wires 1 unless asked.
        host / port: Bind address; ``port=0`` picks a free port, read it
            back from :attr:`port`.
        cache_size: LRU capacity for whole-graph query results
            (``0`` disables caching).
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
        >>> with server:  # event loop on a background thread
        ...     from repro.serve.client import QueryClient
        ...     QueryClient(server.url).cardinality(node=0, d=1.0)["value"]
        2.0
    """

    def __init__(
        self,
        index: AdsIndex,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
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
            wire_mode=wire_mode,
        )

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

    def _apply_update(self, edges) -> Dict[str, Any]:
        """Splice a validated edge batch into the live index."""
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
                kernel_workers=self.index.kernel_workers,
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

    # -- fetches: the sketches are local -------------------------------
    @property
    def _directory(self) -> AdsIndex:
        """What request labels resolve against: the served index."""
        return self.index

    def _fetch_node_cardinality(self, label, d, params):
        return self.index.node_cardinality_at(label, d)

    def _fetch_node_closeness(self, label, kwargs, params):
        return self.index.node_closeness_centrality(label, **kwargs)

    def _fetch_node_series(self, label, params):
        return series_pairs(self.index.node_neighborhood_function(label))

    def _fetch_batch_cardinality(self, labels, d):
        return self.index.nodes_cardinality_at(labels, d)

    def _fetch_batch_closeness(self, labels, kwargs, kind_params):
        return [
            self.index.node_closeness_centrality(label, **kwargs)
            for label in labels
        ]

    def _fetch_node_summary(self, label) -> Dict[str, Any]:
        lo, hi = self.index._slice(label)
        return {
            "sketch_size": hi - lo,
            "reachable": self.index.node_cardinality_at(label),
            "closeness_classic": self.index.node_closeness_centrality(
                label, classic=True
            ),
            "neighborhood": self._fetch_node_series(label, None),
        }

    def _require_bottomk_index(self) -> None:
        if self.index.flavor != "bottomk":
            raise conflict(
                "similarity queries need a bottom-k index; this "
                f"server's index flavor is {self.index.flavor!r}"
            )

    def _fetch_pair_values(self, path, pairs, fields):
        self._require_bottomk_index()
        if path == "/distance":
            return self.index.pairs_distance_estimate(pairs)
        if fields["metric"] == "jaccard":
            return self.index.pairs_neighborhood_jaccard(pairs, fields["d"])
        return self.index.pairs_closeness_similarity(pairs)

    def _fetch_similar(self, label, count, d, params):
        self._require_bottomk_index()
        start, stop = self._range_bounds()
        return [
            [node, value]
            for node, value in self.index.most_similar(
                label, count=count, d=d, start=start, stop=stop
            )
        ]

    # The whole-graph fetches are node_range-aware: a full-index
    # server uses the batch kernel paths; a shard worker sweeps its
    # rows through the per-node query methods, which the index
    # documents as bit-identical to the batch kernels.  Both produce
    # rows in global node-id order, so a router concatenating
    # contiguous ranges reproduces the single-index ordering exactly.
    def _fetch_sweep_cardinality(self, d, params):
        if self.node_range is None:
            return label_value_pairs(self.index.cardinality_at(d))
        start, stop = self._range_bounds()
        labels = self.index.nodes()[start:stop]
        values = self.index.nodes_cardinality_at(labels, d)
        return [[label, value] for label, value in zip(labels, values)]

    def _fetch_sweep_closeness(self, kwargs, params):
        if self.node_range is None:
            return label_value_pairs(
                self.index.closeness_centrality(**kwargs)
            )
        start, stop = self._range_bounds()
        return [
            [label, self.index.node_closeness_centrality(label, **kwargs)]
            for label in self.index.nodes()[start:stop]
        ]

    def _fetch_top_central(self, count, largest, kwargs, params):
        if self.node_range is None:
            ranked = self.index.top_central(count, largest=largest, **kwargs)
        else:
            ranked = top_k_central_nodes(
                dict(self._fetch_sweep_closeness(kwargs, params)),
                count, largest=largest,
            )
        return [[label, value] for label, value in ranked]

    def _fetch_anf_series(self):
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


def _batch_float(body: Dict[str, Any], name: str, default: float) -> float:
    """A float field of a JSON batch body (ints allowed, bools are not)."""
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise bad_request(f"{name} must be a number, got {value!r}")
    value = float(value)
    if math.isnan(value):
        raise bad_request(f"{name} must not be NaN")
    return value
