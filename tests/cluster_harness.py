"""In-process cluster fixture + deterministic fault injection.

The cluster tests need a real multi-worker deployment -- actual
sockets, the real binary RPC path, real failover -- but spawning
subprocesses per test would be slow and non-deterministic to fault.
This harness builds the whole topology in one process:

* :func:`start_cluster` spins N shard workers (optionally R replicas
  each) on ephemeral loopback ports plus a
  :class:`~repro.serve.cluster.RouterServer` in front, and returns a
  :class:`Cluster` handle that quacks enough like a server for the
  parametrized ``test_serve*`` fixtures (``url``/``host``/``port``/
  ``started_at``/``shutdown``...) while exposing the workers for
  surgery.

* :class:`FaultProxy` sits between the router and one worker as an
  HTTP-aware relay, so tests inject *precise* failures on demand --
  not "the worker is slow today" but "the next response is truncated
  mid-frame".  Modes:

  - ``pass``       relay verbatim (the default);
  - ``refuse``     close every connection immediately (worker
    process gone: connect succeeds to a dead port's TIME_WAIT or is
    refused -- either way, a transport error);
  - ``kill_next``  close the connection mid-request *once* (worker
    killed while handling the call), then behave like ``refuse``;
  - ``blackhole``  accept and read the request, never answer (hung
    worker -- only the router's ``rpc_timeout`` gets you out);
  - ``truncate:N`` relay the response status/headers but cut the body
    to its first N bytes with a matching Content-Length, producing a
    *well-formed HTTP response carrying a torn wire frame* -- the
    nastiest failure, because only payload-level validation catches
    it.

  Every mode switch is a plain attribute write read per-request, so a
  test can flip a replica's behavior between two calls and know
  exactly which RPC hits the fault.
"""

import socket
import threading

from repro.ads import AdsIndex
from repro.ads.storage import shard_ranges
from repro.graph.csr import CSRGraph
from repro.serve import AdsServer, QueryClient, RouterServer


class ThreadDispatchedAdsServer(AdsServer):
    """``AdsServer`` with ``handle_request`` awaited on the chassis's
    thread executor -- the dispatch mode ``RouterServer`` runs in --
    instead of inline on the event loop.

    The ``threaded`` flavor of the parametrized ``test_serve*``
    fixtures: requests from different connections really do run
    concurrently here, which is what holds ``AdsServer.handle_request``
    (lock discipline, cache, counters) to the thread-safety its
    in-process callers rely on.
    """

    _DISPATCH_THREADS = 4


#: The single-server flavors of the parametrized ``server`` fixtures:
#: ``async`` is ``AdsServer`` as shipped (inline on the event loop).
SINGLE_SERVER_FLAVORS = {
    "async": AdsServer,
    "threaded": ThreadDispatchedAdsServer,
}


def _read_http_message(sock):
    """Read one full HTTP message (request or response) off *sock*.

    Returns ``(head_bytes, body_bytes)`` where *head* is everything up
    to the blank line, or ``None`` if the peer closed before a full
    message arrived.  Relies on Content-Length framing -- both the
    serve clients and servers always set it.
    """
    data = b""
    while b"\r\n\r\n" not in data:
        try:
            chunk = sock.recv(65536)
        except OSError:
            return None
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(body) < length:
        try:
            chunk = sock.recv(65536)
        except OSError:
            return None
        if not chunk:
            return None
        body += chunk
    return head, body


def _set_content_length(head, length):
    lines = head.split(b"\r\n")
    for position, line in enumerate(lines):
        if line.split(b":")[0].strip().lower() == b"content-length":
            lines[position] = b"Content-Length: %d" % length
    return b"\r\n".join(lines)


class FaultProxy:
    """HTTP-aware fault-injecting relay in front of one worker."""

    def __init__(self, upstream_host, upstream_port):
        self.upstream = (upstream_host, upstream_port)
        self.mode = "pass"
        self._dead = threading.Event()
        self._conns = []
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(
            target=self._accept_loop, name="fault-proxy", daemon=True
        )
        self._thread.start()

    @property
    def port(self):
        return self._listener.getsockname()[1]

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def kill(self):
        """Drop the listener and every live connection *now* -- the
        worker process is gone as far as the router can tell."""
        self._dead.set()
        self.mode = "refuse"
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def _accept_loop(self):
        while not self._dead.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            if self.mode == "refuse" or self._dead.is_set():
                conn.close()
                continue
            with self._lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        try:
            while not self._dead.is_set():
                message = _read_http_message(conn)
                if message is None:
                    return
                mode = self.mode
                if mode == "refuse":
                    return  # close without answering
                if mode == "kill_next":
                    # One mid-request connection drop, then dead.
                    self.mode = "refuse"
                    return
                if mode == "blackhole":
                    # Hold the socket open, never answer: the router's
                    # rpc_timeout is the only way out.
                    self._dead.wait()
                    return
                head, body = message
                upstream = socket.create_connection(
                    self.upstream, timeout=30
                )
                try:
                    upstream.sendall(head + b"\r\n\r\n" + body)
                    reply = _read_http_message(upstream)
                finally:
                    upstream.close()
                if reply is None:
                    return
                reply_head, reply_body = reply
                if mode.startswith("truncate:"):
                    keep = int(mode.split(":", 1)[1])
                    reply_body = reply_body[:keep]
                    reply_head = _set_content_length(reply_head, keep)
                    # A torn frame poisons the keep-alive stream; close
                    # after sending so framing stays deterministic.
                    conn.sendall(
                        reply_head + b"\r\n\r\n" + reply_body
                    )
                    return
                conn.sendall(reply_head + b"\r\n\r\n" + reply_body)
        except OSError:
            return
        finally:
            conn.close()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)


def clone_graph(graph):
    """An independent CSRGraph with identical node ids and edges."""
    return CSRGraph.from_edges(
        list(graph.edges()),
        directed=graph.directed,
        nodes=graph.nodes(),
    )


class Cluster:
    """Handle over a running router + workers (+ optional proxies).

    Quacks like a server for fixtures (`url`, `host`, `port`,
    `started_at`, `cache`, `shutdown`, context manager) by delegating
    to the router, and like a writable deployment (`index`, `graph`,
    `index_path`) by delegating to worker 0 -- every worker holds the
    full index and applies every batch, so worker 0's state is the
    cluster's.
    """

    def __init__(self, router, workers, proxies):
        self.router = router
        self.workers = workers  # flat list, group-major
        self.proxies = proxies  # parallel to workers, or all None

    # -- server-fixture surface (delegates to the router) --------------
    @property
    def url(self):
        return self.router.url

    @property
    def host(self):
        return self.router.host

    @property
    def port(self):
        return self.router.port

    @property
    def started_at(self):
        return self.router.started_at

    @property
    def cache(self):
        return self.router.cache

    # -- writable-fixture surface (delegates to worker 0) --------------
    @property
    def index(self):
        return self.workers[0].index

    @property
    def graph(self):
        return self.workers[0].graph

    @property
    def index_path(self):
        return self.workers[0].index_path

    def client(self, **kwargs):
        return QueryClient(self.router.url, **kwargs)

    def shutdown(self):
        self.router.shutdown()
        for proxy in self.proxies:
            if proxy is not None:
                proxy.kill()
        for worker in self.workers:
            worker.shutdown()

    close = shutdown

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def start_cluster(
    index,
    workers=2,
    replicas=1,
    graph=None,
    tmp_path=None,
    proxy=False,
    rpc_timeout=10.0,
    probe_interval=0.0,
    cache_size=256,
    wal=False,
    **router_kwargs,
):
    """Spin up a full in-process cluster; returns a :class:`Cluster`.

    Read-only mode (``graph=None``) shares *index* across all workers
    -- concurrent reads of one index are safe and cheap.  Writable
    mode (``graph=`` + ``tmp_path=``) gives every worker its own
    index/graph copy (via save/load round-trip and an edge-identical
    graph clone) so ``POST /update`` batches apply independently and
    deterministically converge.

    ``proxy=True`` interposes a :class:`FaultProxy` in front of every
    worker; the router only ever sees the proxy URLs.

    ``wal=True`` (writable mode only) gives each worker its own
    write-ahead-log directory under *tmp_path*, so update batches are
    durable and a restarted worker replays them.
    """
    writable = graph is not None
    if writable and tmp_path is None:
        raise ValueError("writable clusters need tmp_path for copies")
    ranges = [
        (start, None if position == workers - 1 else stop)
        for position, (start, stop) in enumerate(
            shard_ranges(index.num_nodes, workers)
        )
    ]
    seed_path = None
    if writable:
        seed_path = tmp_path / "cluster-seed.adsidx"
        index.save(seed_path)
    flat_workers, flat_proxies, groups = [], [], []
    for position, node_range in enumerate(ranges):
        urls = []
        for replica in range(replicas):
            if writable:
                wpath = tmp_path / f"ix-g{position}r{replica}.adsidx"
                windex = AdsIndex.load(seed_path)
                wgraph = clone_graph(graph)
                wal_dir = (
                    tmp_path / f"wal-g{position}r{replica}"
                    if wal else None
                )
                server = AdsServer(
                    windex, graph=wgraph, index_path=wpath,
                    node_range=node_range, wal_dir=wal_dir,
                )
            else:
                server = AdsServer(index, node_range=node_range)
            server.start()
            flat_workers.append(server)
            if proxy:
                relay = FaultProxy(server.host, server.port)
                flat_proxies.append(relay)
                urls.append(relay.url)
            else:
                flat_proxies.append(None)
                urls.append(server.url)
        groups.append((node_range, urls))
    router = RouterServer(
        index.nodes(),
        groups,
        cache_size=cache_size,
        rpc_timeout=rpc_timeout,
        probe_interval=probe_interval,
        writable=writable,
        **router_kwargs,
    )
    router.start()
    return Cluster(router, flat_workers, flat_proxies)
