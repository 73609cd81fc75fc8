"""The transport: pipelining, parser edges, interim ``100 Continue``,
backpressure, idle timeouts, request-target splitting, lifecycle.

The endpoint behaviour itself is covered by ``test_serve.py``; this
module exercises the chassis every server shares -- the hand-rolled
pipelined parser with hostile and fragmented input, bounded in-flight
load shedding where it can occur (executor dispatch behind a stalled
worker), a write buffer bounded against a client that never reads,
the idle timer, and the hand split of plain request targets held
equal to ``urlsplit`` / ``parse_qs`` -- plus the acceptance contract
that every endpoint's served *bytes* are ``handle_request``'s payload
encoded, and that the JSON and binary codecs carry the same payloads.
"""

import concurrent.futures
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock
from urllib.parse import parse_qs, unquote, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from repro.ads import AdsIndex
from repro.errors import ParameterError
from repro.graph import barabasi_albert_graph, path_graph
from repro.rand.hashing import HashFamily
from repro.serve import (
    AdsServer,
    QueryClient,
    RouterServer,
    ServeClientError,
)
from repro.serve import server as server_module
from repro.serve import wire


@pytest.fixture(scope="module")
def index():
    graph = barabasi_albert_graph(80, 3, seed=13).to_csr()
    return AdsIndex.build(graph, 8, family=HashFamily(4))


@pytest.fixture(scope="module")
def server(index):
    with AdsServer(index, port=0, cache_size=16) as running:
        yield running


def raw_exchange(server, request: bytes, expect: int = 1,
                 timeout: float = 10.0) -> bytes:
    """Send raw bytes, read until *expect* responses (or EOF)."""
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as conn:
        conn.sendall(request)
        conn.settimeout(timeout)
        data = b""
        while data.count(b"HTTP/1.1 ") < expect:
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            data += chunk
        return data


def read_to_eof(conn) -> bytes:
    """Everything the server sends until it closes the connection."""
    data = b""
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk


def read_one_response(conn):
    """One Content-Length-framed response: ``(head, body)``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        assert chunk, "connection closed before a response head"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    ((_, length),) = [
        line.split(b":", 1) for line in head.split(b"\r\n")[1:]
        if line.lower().startswith(b"content-length:")
    ]
    while len(body) < int(length):
        chunk = conn.recv(65536)
        assert chunk, "connection closed inside a response body"
        body += chunk
    return head, body


def on_loop(server, fn):
    """``fn()``'s result, called on the server's event-loop thread (the
    transport objects it inspects are not thread-safe)."""
    done = concurrent.futures.Future()

    def call():
        try:
            done.set_result(fn())
        except Exception as error:  # noqa: BLE001 - handed back
            done.set_exception(error)

    server._loop.call_soon_threadsafe(call)
    return done.result(timeout=5)


def split_responses(data: bytes):
    """Parse Content-Length-framed responses into (status, body) pairs."""
    out = []
    pos = 0
    while pos < len(data):
        end = data.find(b"\r\n\r\n", pos)
        if end == -1:
            break
        head = data[pos:end]
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        pos = end + 4 + length
        out.append((status, data[end + 4:pos]))
    return out


class TestPipelining:
    def test_many_requests_in_one_segment_answered_in_order(
        self, server, index
    ):
        nodes = list(range(10))
        request = b"".join(
            f"GET /cardinality?node={n}&d=2.0 HTTP/1.1\r\n"
            f"Host: x\r\n\r\n".encode()
            for n in nodes
        )
        responses = split_responses(
            raw_exchange(server, request, expect=len(nodes))
        )
        assert [status for status, _ in responses] == [200] * len(nodes)
        payloads = [json.loads(body) for _, body in responses]
        # Ordering is the HTTP/1.1 pipelining contract: response i
        # answers request i.
        assert [p["node"] for p in payloads] == nodes
        assert [p["value"] for p in payloads] == [
            index.node_cardinality_at(n, 2.0) for n in nodes
        ]

    def test_pipelined_posts_with_bodies(self, server, index):
        body = json.dumps({"nodes": [1, 2], "d": 2.0}).encode()
        one = (
            b"POST /cardinality HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        responses = split_responses(raw_exchange(server, one * 3, expect=3))
        assert [status for status, _ in responses] == [200, 200, 200]
        expected = [
            [1, index.node_cardinality_at(1, 2.0)],
            [2, index.node_cardinality_at(2, 2.0)],
        ]
        for _, raw in responses:
            assert json.loads(raw)["results"] == expected

    def test_request_split_across_many_tcp_segments(self, server, index):
        # The parser must reassemble a request dribbled byte-group by
        # byte-group (each send is a separate segment with Nagle off).
        request = (
            b"GET /cardinality?node=3&d=2.0 HTTP/1.1\r\n"
            b"Host: x\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(0, len(request), 7):
                conn.sendall(request[i:i + 7])
                time.sleep(0.002)
            conn.settimeout(10)
            data = read_to_eof(conn)
        ((status, body),) = split_responses(data)
        assert status == 200
        assert json.loads(body)["value"] == (
            index.node_cardinality_at(3, 2.0)
        )

    def test_post_body_split_from_headers(self, server, index):
        payload = json.dumps({"nodes": [5], "d": 1.0}).encode()
        head = (
            b"POST /cardinality HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(payload)).encode()
            + b"\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as conn:
            conn.sendall(head)
            time.sleep(0.05)  # body arrives later
            conn.sendall(payload)
            conn.settimeout(10)
            data = read_to_eof(conn)
        ((status, body),) = split_responses(data)
        assert status == 200
        assert json.loads(body)["results"] == [
            [5, index.node_cardinality_at(5, 1.0)]
        ]

    def test_accepted_connections_disable_nagle(self, server):
        # Otherwise a response that follows another before its ACK
        # waits out the client's delayed ACK.
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as conn:
            conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            read_one_response(conn)
            (nodelay,) = on_loop(server, lambda: [
                connection.transport.get_extra_info("socket").getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                for connection in server._open
                if connection.transport.get_extra_info("peername")
                == conn.getsockname()
            ])
        assert nodelay

    def test_bare_lf_request_ahead_of_a_crlf_one(self, server):
        # Each head ends at ITS first terminator: looking for CRLFCRLF
        # across the whole buffer first would hand the second
        # request's lines to the first as headers and refuse it.
        request = (
            b"GET /cardinality?node=1&d=2.0 HTTP/1.1\nHost: x\n\n"
            b"GET /cardinality?node=2&d=2.0 HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /cardinality?node=3&d=2.0 HTTP/1.1\nHost: x\n\n"
        )
        responses = split_responses(raw_exchange(server, request, expect=3))
        assert [status for status, _ in responses] == [200, 200, 200]
        assert [json.loads(body)["node"] for _, body in responses] == [
            1, 2, 3
        ]


class TestExpectContinue:
    # curl above its body-size threshold (and older .NET defaults)
    # hold a POST body back until the server says to go on; nobody
    # answers that for us any more, and a silent server costs such a
    # client its own one-second timer per batch.
    def test_interim_response_precedes_the_body(self, server, index):
        payload = json.dumps({"nodes": [5, 6], "d": 1.0}).encode()
        head = (
            b"POST /cardinality HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: " + str(len(payload)).encode()
            + b"\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as conn:
            conn.settimeout(5)
            conn.sendall(head)
            # Not one body byte has been sent yet.
            assert conn.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            # The body dribbles in: the head is re-parsed on every
            # read, and must be told to continue only once.
            conn.sendall(payload[:4])
            time.sleep(0.05)
            conn.sendall(payload[4:])
            data = read_to_eof(conn)
        ((status, body),) = split_responses(data)
        assert status == 200
        assert json.loads(body)["results"] == [
            [5, index.node_cardinality_at(5, 1.0)],
            [6, index.node_cardinality_at(6, 1.0)],
        ]

    def test_no_interim_response_when_the_body_came_along(self, server):
        payload = json.dumps({"nodes": [5]}).encode()
        request = (
            b"POST /cardinality HTTP/1.1\r\nHost: x\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: " + str(len(payload)).encode()
            + b"\r\n\r\n" + payload
        )
        data = raw_exchange(server, request)
        assert data.startswith(b"HTTP/1.1 200 ")

    def test_refusal_is_the_final_answer(self, server):
        # A body we will not read gets its 400 at once, not a go-ahead.
        data = raw_exchange(
            server,
            b"POST /update HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: 9000000\r\n\r\n",
        )
        ((status, body),) = split_responses(data)
        assert status == 400
        assert b"request body too large" in body


#: A well-formed request placed after disputed bytes in a segment.
_NEXT = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class TestParserRefusals:
    @pytest.mark.parametrize("request_bytes,expected_status,needle", [
        (b"GARBAGE\r\n\r\n", 400, b"malformed request line"),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 400, b"unsupported protocol"),
        (b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n", 400,
         b"malformed header"),
        (b"POST /update HTTP/1.1\r\nHost: x\r\n\r\n", 400,
         b"POST requires Content-Length"),
        (b"POST /update HTTP/1.1\r\nContent-Length: zz\r\n\r\n", 400,
         b"invalid Content-Length"),
        (b"POST /update HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400,
         b"invalid Content-Length"),
        (b"POST /update HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n",
         400, b"request body too large"),
        # Framing a fronting proxy could read differently (RFC 9112
        # 6.3).  Each row carries a well-formed GET after the bytes in
        # dispute: the single response unpacked below is the proof
        # that nothing after the refusal was parsed.
        (b"POST /cardinality HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n"
         b"{\"nodes\":" + _NEXT, 400, b"invalid Content-Length"),
        (b"POST /cardinality HTTP/1.1\r\nContent-Length: +10\r\n\r\n"
         b"{\"nodes\":" + _NEXT, 400, b"invalid Content-Length"),
        (b"POST /cardinality HTTP/1.1\r\nContent-Length: "
         + b"9" * 5000 + b"\r\n\r\n" + _NEXT, 400,
         b"invalid Content-Length"),
        (b"POST /cardinality HTTP/1.1\r\nContent-Length: 3\r\n"
         b"Content-Length: 5\r\n\r\nabcde" + _NEXT, 400,
         b"conflicting Content-Length"),
        (b"POST /cardinality HTTP/1.1\r\nContent-Length: 5\r\n"
         b"Transfer-Encoding: chunked\r\n\r\nabcde" + _NEXT, 501,
         b"Transfer-Encoding is not supported"),
        (b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"5\r\nhello\r\n0\r\n\r\n" + _NEXT, 501,
         b"Transfer-Encoding is not supported"),
    ])
    def test_hostile_requests_get_explicit_errors(
        self, server, request_bytes, expected_status, needle
    ):
        data = raw_exchange(server, request_bytes)
        ((status, body),) = split_responses(data)
        assert status == expected_status
        assert needle in body
        # Refusals that may leave stream bytes unread must close.
        assert b"connection: close" in data.lower()

    def test_unsupported_method_is_501_keep_alive(self, server):
        # A bodyless DELETE leaves the stream aligned, so the
        # connection survives the refusal and serves the next request.
        request = (
            b"DELETE /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        responses = split_responses(raw_exchange(server, request, expect=2))
        assert [status for status, _ in responses] == [501, 200]
        assert b"not supported" in responses[0][1]

    def test_too_many_headers_refused(self, server):
        request = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            f"X-H{i}: v\r\n".encode() for i in range(80)
        ) + b"\r\n"
        ((status, body),) = split_responses(raw_exchange(server, request))
        assert status == 400
        assert b"too many headers" in body

    def test_oversized_request_line_refused(self, server):
        request = b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n"
        ((status, body),) = split_responses(raw_exchange(server, request))
        assert status == 400
        assert b"request line too long" in body

    def test_half_request_then_eof_is_dropped_quietly(self, server):
        # A truncated request mid-line gets no response and no crash.
        data = raw_exchange(server, b"GET /healthz HT", expect=1,
                            timeout=1.0)
        assert data == b""
        with QueryClient(server.url) as client:  # server still alive
            assert client.healthz()["status"] == "ok"

    def test_get_with_body_keeps_the_stream_aligned(self, server):
        # A GET carrying Content-Length must have its body consumed,
        # or the body bytes would be parsed as the next request.
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 5\r\n\r\nxxxxx"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        responses = split_responses(raw_exchange(server, request, expect=2))
        assert [status for status, _ in responses] == [200, 200]

    def test_padded_and_repeated_equal_content_length_accepted(
        self, server
    ):
        # Optional whitespace around the value is legal, and a length
        # said twice the same way is one framing, not two.
        request = (
            b"GET /healthz HTTP/1.1\r\nContent-Length:  5 \r\n"
            b"Content-Length: 5\r\n\r\nxxxxx" + _NEXT
        )
        responses = split_responses(raw_exchange(server, request, expect=2))
        assert [status for status, _ in responses] == [200, 200]

    def test_http10_defaults_to_close(self, server):
        data = raw_exchange(
            server, b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n"
        )
        ((status, _),) = split_responses(data)
        assert status == 200
        assert b"connection: close" in data.lower()

    def test_http10_keep_alive_is_echoed_and_kept(self, server):
        # A 1.0 client closes unless the response says it may stay, so
        # a kept-open connection must say so.
        request = (
            b"GET /cardinality?node=4&d=2.0 HTTP/1.0\r\n"
            b"Connection: keep-alive\r\n\r\n"
        )
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as conn:
            conn.settimeout(10)
            for _ in range(2):
                conn.sendall(request)
                head, body = read_one_response(conn)
                assert head.startswith(b"HTTP/1.1 200 ")
                assert b"\r\nconnection: keep-alive" in head.lower()
                assert b"close" not in head.lower()
                assert json.loads(body)["node"] == 4


def _stalled_router(index, max_in_flight):
    """A router whose first candidate replica swallows requests.

    Inline dispatch answers each request before it parses the next,
    so the in-flight bound is only reachable where ``handle_request``
    blocks: the router, awaiting a worker.  Replica 0 of the single
    shard group reads RPCs and never answers (until ``rpc_timeout``
    fails the call over to replica 1, which answers correctly).
    """
    from cluster_harness import start_cluster

    cluster = start_cluster(
        index, workers=1, replicas=2, proxy=True, rpc_timeout=1.0,
        max_in_flight=max_in_flight,
    )
    cluster.proxies[0].mode = "blackhole"
    cluster.router.reset_round_robin()
    return cluster


def _park_one_request(cluster, conn, target=b"/cardinality?node=0&d=2.0"):
    conn.sendall(b"GET " + target + b" HTTP/1.1\r\nHost: x\r\n\r\n")
    deadline = time.monotonic() + 5
    while cluster.router._in_flight < 1:
        assert time.monotonic() < deadline, "request never dispatched"
        time.sleep(0.005)


class TestBackpressure:
    def test_in_flight_cap_sheds_with_503_and_retry_after(self, index):
        with _stalled_router(index, max_in_flight=1) as cluster:
            with socket.create_connection(
                (cluster.host, cluster.port), timeout=10
            ) as first:
                _park_one_request(cluster, first)
                # A second concurrent request must shed -- visibly,
                # with Retry-After, never a bare reset.
                shed_raw = raw_exchange(
                    cluster,
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
                )
                ((status, body),) = split_responses(shed_raw)
                assert status == 503
                assert b"retry-after: 1" in shed_raw.lower()
                assert b"connection: close" in shed_raw.lower()
                assert b"overloaded" in body
                # The parked request still completes correctly (it
                # fails over once the stalled replica times out).
                first.settimeout(10)
                data = b""
                while data.count(b"HTTP/1.1") < 1:
                    data += first.recv(65536)
                ((status, body),) = split_responses(data)
                assert status == 200
                assert json.loads(body)["value"] == (
                    index.node_cardinality_at(0, 2.0)
                )
            with cluster.client() as client:
                transport = client.stats()["transport"]
                assert transport["load_shed"] == 1
                assert transport["max_in_flight"] == 1

    def test_client_surfaces_retry_after(self, index):
        with _stalled_router(index, max_in_flight=1) as cluster:
            with socket.create_connection(
                (cluster.host, cluster.port), timeout=10
            ) as first:
                _park_one_request(cluster, first)
                with cluster.client() as client:
                    with pytest.raises(ServeClientError) as excinfo:
                        client.healthz()
                    assert excinfo.value.status == 503
                    assert excinfo.value.retry_after == 1.0

    def test_saturation_reported_under_load(self, index):
        with _stalled_router(index, max_in_flight=4) as cluster:
            with socket.create_connection(
                (cluster.host, cluster.port), timeout=10
            ) as parked:
                _park_one_request(cluster, parked)
                with cluster.client() as client:
                    # One parked + the probe itself; saturation counts
                    # pressure beyond the probe: 1/4.
                    assert client.healthz()["saturation"] == 0.25

    def test_invalid_limits_rejected(self, index):
        with pytest.raises(ParameterError):
            RouterServer(
                index.nodes(), [((0, None), ["http://127.0.0.1:9"])],
                max_in_flight=0, validate_topology=False,
            )


#: What one read hands ``data_received`` at most: asyncio's per-read
#: size for socket transports.
_ONE_READ = 262144


class TestWriteBackpressure:
    def test_client_that_never_reads_bounds_the_write_buffer(self, index):
        # Both ends' kernel buffers are pinned small, so the server's
        # own write buffer is what fills while the client reads nothing.
        depth = 20_000
        nodes = [i % index.num_nodes for i in range(depth)]
        requests = [
            f"GET /neighborhood?node={n} HTTP/1.1\r\nHost: x\r\n\r\n"
            .encode() for n in nodes
        ]
        # The last one closes, so the reader below can stop at EOF.
        requests[-1] = requests[-1].replace(
            b"Host: x", b"Host: x\r\nConnection: close"
        )

        def probe():
            # (write-buffer bytes, reading paused?, requests answered)
            (connection,) = server._open
            transport = connection.transport
            paused = not (transport.is_reading() or transport.is_closing())
            return (
                transport.get_write_buffer_size(), paused, server._requests
            )

        with AdsServer(index, port=0) as server, socket.socket() as stalled:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect((server.host, server.port))

            def shrink_send_buffer():
                if not server._open:
                    return False
                (connection,) = server._open
                connection.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                return True

            deadline = time.monotonic() + 5
            while not on_loop(server, shrink_send_buffer):
                assert time.monotonic() < deadline, "never accepted"
                time.sleep(0.001)
            sender = threading.Thread(
                target=stalled.sendall, args=(b"".join(requests),),
                daemon=True,
            )
            sender.start()
            sizes = []
            answered = []  # requests answered, from the pause on
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and len(answered) < 40:
                size, paused, requests_so_far = on_loop(server, probe)
                sizes.append(size)
                if paused or answered:
                    answered.append(requests_so_far)
                time.sleep(0.005)
            assert answered, "reading never paused"
            # Paused means paused: nothing more is parsed or answered
            # while the client reads nothing.
            assert answered[0] == answered[-1] < depth
            (connection,) = server._open
            high_water = connection.transport.get_write_buffer_limits()[1]
            # A second connection is served while the first is stalled.
            with QueryClient(server.url) as client:
                assert client.cardinality(node=1, d=2.0)["value"] == (
                    index.node_cardinality_at(1, 2.0)
                )
            stalled.settimeout(10)
            chunks = []
            while True:
                chunk = stalled.recv(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
            data = b"".join(chunks)
            sender.join(timeout=10)
            assert not sender.is_alive()
        responses = split_responses(data)
        assert [json.loads(body)["node"] for _, body in responses] == nodes
        head = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 99999\r\nConnection: close\r\n\r\n"
        )
        longest = len(head) + max(len(body) for _, body in responses)
        wave = (_ONE_READ // min(map(len, requests)) + 1) * longest
        assert max(sizes) <= high_water + wave


class TestIdleTimeout:
    def test_only_connections_that_send_nothing_are_dropped(self, index):
        server = AdsServer(index, port=0)
        server.idle_timeout = 0.2
        address = (server.host, server.port)
        with server, socket.create_connection(
            address, timeout=10
        ) as idle, socket.create_connection(
            address, timeout=10
        ) as half, socket.create_connection(address, timeout=10) as busy:
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            read_one_response(idle)  # now an idle keep-alive connection
            half.sendall(b"GET /healthz HTTP/1.1\r\nHo")
            request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            start = time.monotonic()
            # Trickle one request over 3x the timeout, a piece every
            # 0.05 s: each read pushes the deadline back.
            for i in range(0, len(request), 3):
                busy.sendall(request[i:i + 3])
                time.sleep(0.05)
            assert time.monotonic() - start > 3 * server.idle_timeout
            head, _ = read_one_response(busy)
            assert head.startswith(b"HTTP/1.1 200 ")
            for dropped in (idle, half):
                dropped.settimeout(5)
                assert read_to_eof(dropped) == b""
            assert time.monotonic() - start < 4.0


class TestExecutorDispatch:
    def test_pipelines_keep_request_order_across_racing_connections(
        self, index
    ):
        # The router's dispatch mode, driven hard: more pipelining
        # connections than cores (and than executor threads), a short
        # switch interval.  Each connection awaits one request at a
        # time, so its responses must come back in request order, and
        # no request may be lost or counted twice.
        from cluster_harness import ThreadDispatchedAdsServer

        connections, depth = 6, 40
        failures = []

        def pipeline(offset):
            nodes = [(offset + i) % index.num_nodes for i in range(depth)]
            request = b"".join(
                f"GET /cardinality?node={n}&d=2.0 HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode() for n in nodes
            )
            try:
                responses = split_responses(
                    raw_exchange(server, request, expect=depth)
                )
                assert [
                    json.loads(body)["node"] for _, body in responses
                ] == nodes
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadDispatchedAdsServer(index, port=0) as server:
                threads = [
                    threading.Thread(target=pipeline, args=(7 * c,))
                    for c in range(connections)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                with QueryClient(server.url) as client:
                    stats = client.stats()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert stats["requests"] == connections * depth + 1
        assert stats["transport"]["in_flight"] == 1  # the probe itself
        assert stats["transport"]["connections_total"] == connections + 1


class TestTransportStats:
    def test_reads_count_waves_not_requests(self, index):
        # requests / reads is the pipeline depth actually served: ten
        # requests in one segment are one read.
        with AdsServer(index, port=0) as server:
            request = b"".join(
                f"GET /cardinality?node={n} HTTP/1.1\r\nHost: x\r\n\r\n"
                .encode() for n in range(10)
            )
            raw_exchange(server, request, expect=10)
            with QueryClient(server.url) as client:
                first = client.stats()
                second = client.stats()
        transport = first["transport"]
        # The pipelining socket may still be closing server-side.
        assert transport.pop("connections") in (1, 2)
        assert transport == {
            "mode": "async", "connections_total": 2, "reads": 1,
            "in_flight": 1, "max_in_flight": 256, "load_shed": 0,
        }
        assert first["requests"] == 11
        assert "threads" not in first
        assert second["transport"]["reads"] == 2


class TestTransportByteIdentity:
    # The acceptance contract: what leaves the socket is exactly
    # handle_request's payload, encoded -- the transport adds framing
    # and nothing else -- and binary == JSON after decoding.
    TARGETS = [
        ("GET", "/healthz", None),
        ("GET", "/cardinality?d=2.0", None),
        ("GET", "/cardinality?node=5&d=2.0", None),
        ("GET", "/cardinality?node=5", None),
        ("POST", "/cardinality", {"nodes": [0, 3, 79], "d": 1.5}),
        ("GET", "/closeness?kind=harmonic", None),
        ("GET", "/closeness?node=7", None),
        ("POST", "/closeness", {"nodes": [1, 2], "kind": "classic"}),
        ("GET", "/neighborhood?node=9", None),
        ("GET", "/neighborhood", None),
        ("GET", "/top-central?count=5", None),
        ("GET", "/node/11", None),
        ("GET", "/cardinality?node=99999", None),       # 404
        ("GET", "/cardinality?d=bogus", None),          # 400
        ("GET", "/no-such-endpoint", None),             # 404
        ("POST", "/update", {"edges": [[0, 1]]}),       # 409 read-only
    ]

    @staticmethod
    def fetch(server, method, target, payload, accept=None):
        request_line = f"{method} {target} HTTP/1.1\r\n"
        headers = "Host: x\r\nConnection: close\r\n"
        if accept:
            headers += f"Accept: {accept}\r\n"
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
            headers += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        raw = (request_line + headers + "\r\n").encode() + body
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as conn:
            conn.sendall(raw)
            conn.settimeout(10)
            data = read_to_eof(conn)
        ((status, response_body),) = split_responses(data)
        return status, response_body

    def test_payload_bytes_identical_across_transports(self, index):
        # One side is the socket, the other the call every in-process
        # caller makes.  cache_size=0 so "cached" flags cannot drift.
        with AdsServer(index, port=0, cache_size=0) as server:
            for method, target, payload in self.TARGETS:
                body = (
                    json.dumps(payload).encode()
                    if payload is not None else None
                )
                status, returned = server.handle_request(
                    method, target, body,
                    content_type="application/json",
                )
                assert self.fetch(server, method, target, payload) == (
                    status, json.dumps(returned).encode()
                ), f"{method} {target}: socket and handle_request diverge"

    def test_binary_payloads_decode_to_json_payloads(self, index):
        with AdsServer(index, port=0, cache_size=0) as server:
            for method, target, payload in self.TARGETS:
                j_status, j_body = self.fetch(
                    server, method, target, payload
                )
                b_status, b_body = self.fetch(
                    server, method, target, payload,
                    accept=wire.WIRE_CONTENT_TYPE,
                )
                assert j_status == b_status
                assert json.loads(j_body) == wire.decode(b_body), (
                    f"{method} {target} diverged between codecs"
                )


def stdlib_split(target):
    """The reference split: what every target went through before
    plain ones were split by hand."""
    split = urlsplit(target)
    return unquote(split.path), {
        name: values[-1]
        for name, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }


def _targets(tokens, paths):
    piece = st.lists(st.sampled_from(tokens), max_size=4).map("".join)
    key = st.sampled_from(
        ["node", "d", "kind", "count", "largest", "half_life", "nóde", ""]
    ) | piece
    field = st.one_of(
        st.just(""), key, st.builds("{}={}".format, key, piece)
    )
    return st.builds(
        lambda path, fields: (
            path + ("" if fields is None else "?" + "&".join(fields))
        ),
        st.sampled_from(paths) | st.builds("/node/{}".format, piece),
        st.none() | st.lists(field, max_size=5),
    )


# Real endpoints, labels and values, empty fields, repeated keys and
# blank values; half the targets also carry what the stdlib treats
# specially: %-escapes (valid, truncated, invalid), "+", a fragment, a
# tab, a leading "//", a scheme.
_PLAIN_TOKENS = [
    "0", "3", "7", "79", "2.0", "inf", "-1", "harmonic", "true", "x",
    ";", ":", "é", "ÿ", "\xa0", "€", "=", "/",
]
_PLAIN_PATHS = [
    "/cardinality", "/closeness", "/neighborhood", "/nf-curve",
    "/top-central", "/healthz", "/node/3", "/node/", "/similar/4",
    "/node/é", "/cardinality;v=1", "/a:b",
]
_TARGET = _targets(_PLAIN_TOKENS, _PLAIN_PATHS) | _targets(
    _PLAIN_TOKENS + ["%33", "%2", "%zz", "%C3%A9", "+", "#", "\t"],
    _PLAIN_PATHS + [
        "//cardinality", "cardinality", "/card%69nality", "/node/%33",
        "http://x/cardinality", "/node/3#x",
    ],
)


@pytest.fixture(scope="module", params=["single", "cluster"])
def split_server(request, index):
    # cache_size=0: two calls with one target must not differ by the
    # "cached" flag of a whole-graph answer.
    if request.param == "single":
        server = AdsServer(index, port=0, cache_size=0)
        yield server
        server.close()
    else:
        from cluster_harness import start_cluster

        with start_cluster(index, workers=2, cache_size=0) as cluster:
            yield cluster.router


class TestTargetSplit:
    @settings(max_examples=400, deadline=None)
    @given(target=_TARGET)
    def test_split_equals_the_stdlib_reference(self, target):
        assert server_module._split_target(target) == stdlib_split(target)

    @settings(max_examples=150, deadline=None)
    @given(target=_TARGET)
    def test_handle_request_equals_the_stdlib_reference(
        self, split_server, target
    ):
        answer = split_server.handle_request("GET", target, None)
        with mock.patch.object(server_module, "_split_target", stdlib_split):
            reference = split_server.handle_request("GET", target, None)
        assert answer == reference


class TestAsyncLifecycle:
    def test_start_then_immediate_shutdown(self, index):
        start = time.perf_counter()
        with AdsServer(index, port=0):
            pass
        assert time.perf_counter() - start < 4.0

    def test_shutdown_before_start_returns_promptly(self, index):
        server = AdsServer(index, port=0)
        server.shutdown()

    def test_close_is_idempotent(self, index):
        server = AdsServer(index, port=0)
        server.close()
        server.close()

    def test_port_reusable_after_shutdown(self, index):
        first = AdsServer(index, port=0)
        port = first.port
        first.shutdown()
        second = AdsServer(index, port=port)
        second.shutdown()

    def test_clean_shutdown_with_live_keepalive_connection(self, index):
        # A client holding a keep-alive socket open must not hang or
        # crash shutdown (its transport is aborted cleanly).
        # Well under shutdown()'s own 5 s join timeout, which is what
        # a wait_closed() stuck on the live connection would run into.
        server = AdsServer(index, port=0)
        server.start()
        loop_thread = server._thread
        client = QueryClient(server.url)
        assert client.healthz()["status"] == "ok"
        start = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - start < 2.0
        assert not loop_thread.is_alive()
        client.close()

    def test_stdlib_http_server_is_not_imported(self):
        # One transport: the threaded chassis left the import graph,
        # not just the default.
        env_path = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "import repro.serve; "
             "print('http.server' in sys.modules)", env_path],
            capture_output=True, text=True, timeout=60,
        )
        assert result.stdout.strip() == "False", result.stderr


class TestAsyncUpdates:
    def test_update_and_compact_through_async_transport(self, tmp_path):
        # Writes run inline on the loop under the writer lock; a full
        # update -> query -> compact -> reload cycle must agree with a
        # from-scratch rebuild.
        graph = path_graph(8).to_csr()
        built = AdsIndex.build(graph, k=4)
        index_path = tmp_path / "g.adsidx"
        built.save(index_path)
        with AdsServer(
            built, port=0, graph=graph, index_path=index_path
        ) as server:
            with QueryClient(server.url) as client:
                result = client.update([[0, 7]])
                assert result["applied_arcs"] == 2  # undirected edge
                updated = client.cardinality(node=0, d=1.0)["value"]
                client.compact()
        rebuilt_graph = path_graph(8)
        rebuilt_graph.add_edge(0, 7)
        rebuilt = AdsIndex.build(rebuilt_graph.to_csr(), k=4)
        assert updated == rebuilt.node_cardinality_at(0, 1.0)
        reloaded = AdsIndex.load(index_path)
        assert reloaded.node_cardinality_at(0, 1.0) == updated
