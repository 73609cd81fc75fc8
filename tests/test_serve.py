"""The ``repro.serve`` layer: server endpoints, cache, client, wiring.

A real server is bound to a loopback port once per module *per
deployment flavor* (the module-scoped ``server`` fixture is
parametrized over ``AdsServer`` in both of the chassis's dispatch
modes and the cluster router) and exercised through
:class:`repro.serve.client.QueryClient` -- the same wire path
production traffic takes.  Estimates returned over HTTP must equal the
in-process ``AdsIndex`` queries exactly (JSON round-trips IEEE doubles
losslessly via repr-level serialisation), on every flavor.
"""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.ads import AdsIndex
from repro.errors import ParameterError
from repro.estimators.statistics import harmonic_kernel
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily
from repro.serve import (
    AdsServer,
    LruCache,
    QueryClient,
    ServeClientError,
)
from repro.serve.schemas import WireError, centrality_kwargs, resolve_node


@pytest.fixture(scope="module")
def index():
    graph = barabasi_albert_graph(120, 3, seed=21).to_csr()
    return AdsIndex.build(graph, 8, family=HashFamily(4))


@pytest.fixture(scope="module", params=["threaded", "async", "cluster"])
def server(index, request):
    # Every endpoint/error/concurrency test in this module runs against
    # three deployment flavors of the one transport: "async" is
    # AdsServer as shipped (handle_request inline on the event loop),
    # "threaded" the same server dispatched on the chassis's thread
    # executor (the router's mode: requests really run concurrently),
    # and the sharded cluster router must answer the identical API
    # byte-for-byte (exact merges, worker passthrough) -- this fixture
    # is what holds all of them to it.
    from cluster_harness import SINGLE_SERVER_FLAVORS, start_cluster

    if request.param == "cluster":
        with start_cluster(index, workers=2, cache_size=16) as cluster:
            yield cluster
        return
    server_class = SINGLE_SERVER_FLAVORS[request.param]
    with server_class(index, port=0, cache_size=16) as running:
        yield running


@pytest.fixture()
def client(server):
    with QueryClient(server.url) as running:
        yield running


class TestHappyPath:
    def test_healthz(self, client, index):
        # saturation is the load-balancer steering signal; idle servers
        # report 0.0 on every flavor.
        assert client.healthz() == {
            "status": "ok", "nodes": index.num_nodes, "saturation": 0.0
        }

    def test_single_node_cardinality_matches_index(self, client, index):
        response = client.cardinality(node=5, d=2.0)
        assert response["node"] == 5
        assert response["value"] == index.node_cardinality_at(5, 2.0)

    def test_all_nodes_cardinality_matches_index(self, client, index):
        response = client.cardinality(d=2.0)
        assert dict(
            (label, value) for label, value in response["results"]
        ) == index.cardinality_at(2.0)

    def test_batch_cardinality(self, client, index):
        nodes = [0, 7, 23, 119]
        response = client.cardinality_batch(nodes, d=3.0)
        assert response["results"] == [
            [label, index.node_cardinality_at(label, 3.0)]
            for label in nodes
        ]

    def test_default_d_is_infinite_reach(self, client, index):
        response = client.cardinality(node=9)
        assert response["d"] is None  # JSON null encodes the inf default
        assert response["value"] == index.node_cardinality_at(9)

    def test_negative_infinity_d_travels(self, client):
        # -inf must reach the server (an empty threshold), not silently
        # widen to the all-reachable default.
        import math

        assert client.cardinality(node=9, d=-math.inf)["value"] == 0.0
        batch = client.cardinality_batch([1, 2], d=-math.inf)
        assert [value for _, value in batch["results"]] == [0.0, 0.0]

    def test_closeness_kinds_match_index(self, client, index):
        classic = client.closeness(node=11, kind="classic")
        assert classic["value"] == index.node_closeness_centrality(
            11, classic=True
        )
        harmonic = client.closeness(node=11, kind="harmonic")
        assert harmonic["value"] == index.node_closeness_centrality(
            11, alpha=harmonic_kernel()
        )

    def test_batch_closeness(self, client, index):
        response = client.closeness_batch([1, 2], kind="classic")
        assert response["results"] == [
            [1, index.node_closeness_centrality(1, classic=True)],
            [2, index.node_closeness_centrality(2, classic=True)],
        ]

    def test_neighborhood_series(self, client, index):
        whole = client.neighborhood()
        assert whole["series"] == [
            [d, value] for d, value in index.neighborhood_function()
        ]
        one = client.neighborhood(node=17)
        assert one["series"] == [
            [d, value]
            for d, value in index.node_neighborhood_function(17)
        ]

    def test_top_central(self, client, index):
        response = client.top_central(count=5, kind="harmonic")
        assert response["results"] == [
            [label, value]
            for label, value in index.top_central(
                5, alpha=harmonic_kernel()
            )
        ]

    def test_node_summary(self, client, index):
        response = client.node(42)
        lo, hi = index._slice(42)
        assert response["node"] == 42
        assert response["sketch_size"] == hi - lo
        assert response["reachable"] == index.node_cardinality_at(42)

    def test_string_label_coerces_to_int_index_label(self, client, index):
        # HTTP query strings are text; the index stores ints.
        assert client.cardinality(node="5", d=2.0)["node"] == 5

    def test_stats_shape(self, client, index):
        stats = client.stats()
        assert stats["index"]["nodes"] == index.num_nodes
        assert stats["index"]["entries"] == index.num_entries
        assert stats["index"]["mmap"] is False
        assert stats["requests"] >= 1
        assert set(stats["cache"]) == {
            "hits", "misses", "evictions", "size", "capacity"
        }
        assert stats["transport"]["mode"] == "async"
        assert stats["transport"]["load_shed"] == 0

    def test_uptime_is_monotonic_not_wall_clock(self, client, server):
        # started_at must come from time.monotonic(): a wall-clock
        # epoch would make this difference ~1.7 billion seconds (and a
        # backwards NTP step would make /stats uptime negative).
        assert 0.0 <= time.monotonic() - server.started_at < 600.0
        assert client.stats()["uptime_seconds"] >= 0.0


class TestErrors:
    def test_unknown_node_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.cardinality(node=99999)
        assert excinfo.value.status == 404

    def test_unknown_node_in_batch_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.cardinality_batch([1, 99999])
        assert excinfo.value.status == 404

    def test_unknown_node_summary_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.node("nope")
        assert excinfo.value.status == 404

    def test_blank_node_param_is_404_not_full_sweep(self, client):
        # parse_qs would drop "node=" entirely without
        # keep_blank_values, silently answering the all-nodes sweep.
        for endpoint in ("/cardinality", "/closeness", "/neighborhood"):
            with pytest.raises(ServeClientError) as excinfo:
                client._request("GET", endpoint + "?node=")
            assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/no-such-endpoint")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("params", [
        {"d": "two"},
        {"d": "nan"},
        {"node": "5", "d": "x"},
    ])
    def test_malformed_cardinality_params_are_400(
        self, client, params
    ):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/cardinality", params=params)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("params", [
        {"kind": "bogus"},
        {"kind": "decay", "half_life": "0"},
        {"count": "0"},
        {"count": "x"},
        {"largest": "maybe"},
    ])
    def test_malformed_top_central_params_are_400(self, client, params):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/top-central", params=params)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("payload", [
        {},                          # nodes missing
        {"nodes": []},               # empty batch
        {"nodes": 5},                # not a list
        {"nodes": [1], "d": "x"},    # non-numeric d
        {"nodes": [None]},           # unresolvable label shape
        {"nodes": [[1], 2]},         # unhashable label must be a 400
        {"nodes": [{"a": 1}]},       # ... not an internal error
        {"nodes": [True]},           # bools are not labels
    ])
    def test_malformed_batch_bodies_are_400(self, client, payload):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/cardinality", payload=payload)
        assert excinfo.value.status == 400

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/cardinality", data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "error" in json.load(excinfo.value)

    def test_post_to_get_only_endpoint_is_400(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/top-central", payload={"count": 3})
        assert excinfo.value.status == 400

    def test_malformed_requests_do_not_count_as_internal_errors(
        self, client
    ):
        with pytest.raises(ServeClientError):
            client._request("POST", "/cardinality",
                            payload={"nodes": [[1]]})
        assert client.stats()["internal_errors"] == 0


class TestCaching:
    def test_repeat_whole_graph_query_hits_cache(self, index):
        with AdsServer(index, port=0, cache_size=8) as server:
            with QueryClient(server.url) as client:
                first = client.top_central(count=4)
                assert first["cached"] is False
                second = client.top_central(count=4)
                assert second["cached"] is True
                assert second["results"] == first["results"]
                stats = client.stats()["cache"]
                assert stats["hits"] == 1
                assert stats["misses"] == 1

    def test_distinct_params_are_distinct_entries(self, index):
        with AdsServer(index, port=0, cache_size=8) as server:
            with QueryClient(server.url) as client:
                client.closeness(kind="classic")
                client.closeness(kind="harmonic")
                assert client.stats()["cache"]["misses"] == 2

    def test_finite_d_sweeps_are_not_cached(self, index):
        # d is a continuous parameter: caching every threshold would
        # let a d-sweeping client pin cache-size O(n) lists in RAM.
        # Only the default all-reachable sweep is memoised.
        with AdsServer(index, port=0, cache_size=8) as server:
            with QueryClient(server.url) as client:
                assert client.cardinality(d=2.0)["cached"] is False
                assert client.cardinality(d=2.0)["cached"] is False
                client.cardinality()
                assert client.cardinality()["cached"] is True

    def test_equivalent_spellings_share_one_entry(self, index):
        # Keys are parsed values: "?d=inf" == the omitted default, and
        # explicit defaults == omitted defaults.
        with AdsServer(index, port=0, cache_size=8) as server:
            with QueryClient(server.url) as client:
                client._request("GET", "/cardinality")
                assert client._request(
                    "GET", "/cardinality?d=inf"
                )["cached"] is True
                client._request("GET", "/top-central")
                assert client._request(
                    "GET",
                    "/top-central?count=10&kind=classic&largest=true",
                )["cached"] is True

    def test_cache_size_zero_disables(self, index):
        with AdsServer(index, port=0, cache_size=0) as server:
            with QueryClient(server.url) as client:
                client.neighborhood()
                assert client.neighborhood()["cached"] is False


class TestLruCache:
    def test_eviction_order(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_never_stores(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        value, hit = cache.get_or_compute("a", lambda: 7)
        assert (value, hit) == (7, False)
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ParameterError):
            LruCache(-1)

    def test_get_or_compute_caches(self):
        cache = LruCache(4)
        calls = []
        compute = lambda: calls.append(1) or 42  # noqa: E731
        assert cache.get_or_compute("k", compute) == (42, False)
        assert cache.get_or_compute("k", compute) == (42, True)
        assert len(calls) == 1


class TestSchemas:
    def test_centrality_kwargs_mirror_cli(self):
        assert centrality_kwargs({}) == {"classic": True}
        assert centrality_kwargs({"kind": "distsum"}) == {}
        assert "alpha" in centrality_kwargs({"kind": "harmonic"})
        with pytest.raises(WireError):
            centrality_kwargs({"kind": "pagerank"})

    def test_resolve_node_coercion(self, index):
        assert resolve_node(index, 5) == 5
        assert resolve_node(index, "5") == 5
        with pytest.raises(WireError) as excinfo:
            resolve_node(index, "missing")
        assert excinfo.value.status == 404
        with pytest.raises(WireError) as excinfo:
            resolve_node(index, True)
        assert excinfo.value.status == 400


class TestKeepAliveHygiene:
    def test_oversized_post_closes_the_connection(self, server):
        # The 9 MB body is never read; keeping the socket alive would
        # feed it to the parser as the next request line.
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /cardinality HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 9000000\r\n\r\n"
            )
            raw.settimeout(10)
            head = raw.recv(4096).decode("latin-1")
            assert " 400 " in head.splitlines()[0]
            assert "connection: close" in head.lower()

    def test_client_recovers_after_refused_post(self, server):
        with QueryClient(server.url) as client:
            with pytest.raises(ServeClientError) as excinfo:
                client._request("POST", "/cardinality", payload=None)
            assert excinfo.value.status == 400
            assert client.healthz()["status"] == "ok"  # fresh socket

    def test_scheme_less_client_urls(self, server):
        for spelling in (f"{server.host}:{server.port}",
                         f"localhost:{server.port}"):
            with QueryClient(spelling) as client:
                assert client.healthz()["status"] == "ok"


class TestLifecycle:
    def test_start_then_immediate_shutdown(self, index):
        # __exit__ microseconds after start() must not strand the
        # event loop or burn the join timeout.
        start = time.perf_counter()
        with AdsServer(index, port=0):
            pass
        assert time.perf_counter() - start < 4.0
    def test_shutdown_before_start_returns_promptly(self, index):
        # A bound-but-never-started server must tear down cleanly
        # instead of waiting on a loop that never ran.
        server = AdsServer(index, port=0)
        server.shutdown()

    def test_close_is_public_and_idempotent(self, index):
        server = AdsServer(index, port=0)
        server.close()
        server.close()

    def test_port_reusable_after_shutdown(self, index):
        first = AdsServer(index, port=0)
        port = first.port
        first.shutdown()
        second = AdsServer(index, port=port)
        second.shutdown()


class TestConcurrency:
    def test_parallel_clients_agree(self, server, index):
        expected = index.node_cardinality_at(3, 2.0)
        results = []
        errors = []

        def worker():
            try:
                with QueryClient(server.url) as mine:
                    for _ in range(5):
                        results.append(
                            mine.cardinality(node=3, d=2.0)["value"]
                        )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert results == [expected] * 30


class TestServerStateFaults:
    def test_vanished_shard_is_500_not_400(self, index, tmp_path):
        # An index file failing under a *valid* request is a server
        # fault: 500 + internal_errors, never "malformed request".
        layout = tmp_path / "layout"
        index.save(layout, shards=3)
        loaded = AdsIndex.load(layout, mmap=True)
        with AdsServer(loaded, port=0, cache_size=0) as server:
            with QueryClient(server.url) as client:
                for shard in layout.glob("shard-*.adsshd"):
                    shard.unlink()
                with pytest.raises(ServeClientError) as excinfo:
                    client.neighborhood()
                assert excinfo.value.status == 500
                assert "vanished" in excinfo.value.message
                assert client.stats()["internal_errors"] == 1


class _ScriptedServer(threading.Thread):
    """A raw-socket HTTP stand-in that can kill connections on cue.

    ``kill_on`` names request-line prefixes to kill: the server reads
    the FULL request (headers + Content-Length body) -- as a real
    server that applied the batch would have -- and then closes the
    connection without responding, exactly the failure mode that made
    the old client double-apply `/update` batches.  Each prefix kills
    only once; later matches are served normally.
    """

    def __init__(self, kill_on=()):
        super().__init__(daemon=True)
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.requests = []
        self._kill_on = list(kill_on)
        self._lock = threading.Lock()

    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def run(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def close(self):
        self.sock.close()

    def _read_request(self, conn):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            rest += conn.recv(65536)
        return head.split(b"\r\n")[0].decode("latin-1")

    def _handle(self, conn):
        while True:
            line = self._read_request(conn)
            if line is None:
                conn.close()
                return
            with self._lock:
                self.requests.append(line)
                kill = next(
                    (p for p in self._kill_on if line.startswith(p)),
                    None,
                )
                if kill is not None:
                    self._kill_on.remove(kill)
            if kill is not None:
                # Fully read, then die before the response line -- the
                # request may have been applied server-side.
                conn.close()
                return
            body = b'{"status": "ok"}'
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"\r\n" + body
            )


class TestClientRetrySemantics:
    def test_update_killed_mid_flight_is_not_replayed(self):
        # THE regression: a fully-sent POST /update whose connection
        # dies before the response may already be applied; replaying
        # it would double-apply the edge batch.  The client must raise
        # instead, and the wire must carry the update exactly once.
        scripted = _ScriptedServer(kill_on=["POST /update"])
        scripted.start()
        try:
            with QueryClient(scripted.url()) as client:
                client.healthz()  # establish the keep-alive socket
                with pytest.raises(ServeClientError) as excinfo:
                    client.update([[0, 1]])
                assert excinfo.value.status is None
                assert "may already be applied" in excinfo.value.message
            time.sleep(0.2)
            sent = [r for r in scripted.requests
                    if r.startswith("POST /update")]
            assert len(sent) == 1
        finally:
            scripted.close()

    def test_compact_killed_mid_flight_is_not_replayed(self):
        scripted = _ScriptedServer(kill_on=["POST /compact"])
        scripted.start()
        try:
            with QueryClient(scripted.url()) as client:
                client.healthz()
                with pytest.raises(ServeClientError):
                    client.compact()
            time.sleep(0.2)
            sent = [r for r in scripted.requests
                    if r.startswith("POST /compact")]
            assert len(sent) == 1
        finally:
            scripted.close()

    def test_get_killed_mid_flight_is_retried(self):
        # Reads are idempotent: the same failure mode must transparently
        # replay on a fresh socket and succeed.
        scripted = _ScriptedServer(kill_on=["GET /stats"])
        scripted.start()
        try:
            with QueryClient(scripted.url()) as client:
                client.healthz()
                assert client.stats() == {"status": "ok"}
            sent = [r for r in scripted.requests
                    if r.startswith("GET /stats")]
            assert len(sent) == 2
        finally:
            scripted.close()

    def test_idempotent_post_batch_is_retried(self):
        # POST /cardinality is a pure read; it retries like a GET.
        scripted = _ScriptedServer(kill_on=["POST /cardinality"])
        scripted.start()
        try:
            with QueryClient(scripted.url()) as client:
                client.healthz()
                assert client.cardinality_batch([1, 2]) == {
                    "status": "ok"
                }
            sent = [r for r in scripted.requests
                    if r.startswith("POST /cardinality")]
            assert len(sent) == 2
        finally:
            scripted.close()

    def test_update_against_real_server_applies_exactly_once(
        self, tmp_path
    ):
        # End-to-end sanity on the real stack: a clean update applies
        # once and the pending-batch counter agrees.
        from repro.graph import path_graph

        graph = path_graph(6).to_csr()
        built = AdsIndex.build(graph, k=4)
        with AdsServer(built, port=0, graph=graph) as server:
            with QueryClient(server.url) as client:
                before = client.stats()["updates"]["applied_batches"]
                client.update([[0, 5]])
                after = client.stats()["updates"]
                assert after["applied_batches"] == before + 1


class _SheddingServer(threading.Thread):
    """A raw-socket stand-in that sheds the first *sheds* requests.

    Each shed is a full ``503 {"error": "overloaded"}`` response with
    a ``Retry-After`` header -- exactly what the real server emits
    at its in-flight bound -- then it recovers and serves 200s.
    """

    def __init__(self, sheds, retry_after="0.01"):
        super().__init__(daemon=True)
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.requests = 0
        self._sheds = sheds
        self._retry_after = retry_after
        self._lock = threading.Lock()

    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def run(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def close(self):
        self.sock.close()

    def _handle(self, conn):
        with conn:
            while True:
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    data += chunk
                with self._lock:
                    self.requests += 1
                    shed = self.requests <= self._sheds
                if shed:
                    body = b'{"error": "overloaded"}'
                    conn.sendall(
                        b"HTTP/1.1 503 Service Unavailable\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Retry-After: "
                        + self._retry_after.encode() + b"\r\n"
                        b"Content-Length: "
                        + str(len(body)).encode() + b"\r\n\r\n" + body
                    )
                else:
                    body = b'{"status": "ok"}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: "
                        + str(len(body)).encode() + b"\r\n\r\n" + body
                    )


class TestRetriesOnShed:
    def test_shed_propagates_by_default(self):
        # Opt-in semantics: without retries_on_shed a 503 surfaces
        # immediately -- existing callers keep their own backoff.
        shedding = _SheddingServer(sheds=1)
        shedding.start()
        try:
            with QueryClient(shedding.url()) as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.healthz()
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after == 0.01
            assert shedding.requests == 1
        finally:
            shedding.close()

    def test_retries_honor_retry_after_then_succeed(self):
        shedding = _SheddingServer(sheds=2)
        shedding.start()
        try:
            with QueryClient(
                shedding.url(), retries_on_shed=3
            ) as client:
                assert client.healthz() == {"status": "ok"}
            assert shedding.requests == 3  # 2 sheds + 1 success
        finally:
            shedding.close()

    def test_retry_after_is_capped(self):
        # A server asking for an hour of backoff must not stall the
        # client: the sleep is clamped to max_retry_after.
        shedding = _SheddingServer(sheds=1, retry_after="3600")
        shedding.start()
        try:
            started = time.monotonic()
            with QueryClient(
                shedding.url(), retries_on_shed=1, max_retry_after=0.05
            ) as client:
                assert client.healthz() == {"status": "ok"}
            assert time.monotonic() - started < 5.0
        finally:
            shedding.close()

    def test_budget_exhausted_raises_the_503(self):
        shedding = _SheddingServer(sheds=10)
        shedding.start()
        try:
            with QueryClient(
                shedding.url(), retries_on_shed=2
            ) as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.healthz()
                assert excinfo.value.status == 503
            assert shedding.requests == 3  # initial try + 2 retries
        finally:
            shedding.close()

    def test_writes_also_retry_sheds_safely(self):
        # A shed is sent *instead of* dispatching the request, so
        # retrying a POST /update after a 503 can never double-apply.
        shedding = _SheddingServer(sheds=1)
        shedding.start()
        try:
            with QueryClient(
                shedding.url(), retries_on_shed=2
            ) as client:
                assert client.update([[0, 1]]) == {"status": "ok"}
            assert shedding.requests == 2
        finally:
            shedding.close()


class TestServingMmapIndex:
    def test_server_over_lazily_loaded_layout(self, index, tmp_path):
        layout = tmp_path / "layout"
        index.save(layout, shards=3)
        loaded = AdsIndex.load(layout, mmap=True)
        with AdsServer(loaded, port=0) as server:
            with QueryClient(server.url) as client:
                stats = client.stats()["index"]
                assert stats["mmap"] is True
                assert stats["mapped_shards"] == 0
                value = client.cardinality(node=2, d=2.0)["value"]
                assert value == index.node_cardinality_at(2, 2.0)
                assert client.stats()["index"]["mapped_shards"] == 1
                top = client.top_central(count=3)["results"]
                assert top == [
                    [label, v]
                    for label, v in index.top_central(3, classic=True)
                ]
