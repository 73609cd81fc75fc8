"""Single-threaded HTTP load generator and server-subprocess helper.

One ``selectors`` event loop drives every served phase of the harness:

* **open loop** -- a pre-generated, seeded schedule of requests is sent
  at its due times over a fixed number of keep-alive connections
  (requests on one connection pipeline; responses come back in order).
  Latency is timed from the *due* time, so a stall in the server (or in
  this generator) is charged to every request that waited behind it.
* **closed loop** -- a stream keeps a fixed number of requests
  outstanding on its own connection and sends the next one when a
  response arrives (depth 1 = one caller waiting for each ack).

Both kinds run in the same loop, which is how one closed-loop writer
runs beside open-loop readers.  The generator checks itself: how late
it sent (``lateness``), and what share of a core it used
(``cpu_share``; above ``GENERATOR_BOUND_SHARE`` the phase measured the
generator, not the server).

Requests are raw bytes built before the clock starts; responses are
framed by ``Content-Length`` (every server in this repo sends it).
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

GENERATOR_BOUND_SHARE = 0.85
OPEN_CONNECTIONS = 2     # the open-loop schedule alternates between them
_RECV_BYTES = 1 << 18
_ANNOUNCE = re.compile(r"# serving .* on http://([^\s:]+):(\d+) ")


# ----------------------------------------------------------------------
# Request construction
# ----------------------------------------------------------------------
def http_get(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def http_post(target: str, payload) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in [0, 100])."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def summarize_ms(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median, p90, p99 (milliseconds) and the sample count."""
    ordered = sorted(latencies_s)
    return {
        "n": len(ordered),
        "p50_ms": percentile(ordered, 50) * 1e3,
        "p90_ms": percentile(ordered, 90) * 1e3,
        "p99_ms": percentile(ordered, 99) * 1e3,
    }


# ----------------------------------------------------------------------
# Load description and results
# ----------------------------------------------------------------------
@dataclass
class OpenLoop:
    """A due-time schedule: ``requests[i]`` is sent at ``due[i]`` seconds
    after the phase starts, on connection ``i % OPEN_CONNECTIONS``."""

    requests: List[bytes]
    due: List[float]
    classes: List[str]
    keep_body: Sequence[bool] = ()


@dataclass
class ClosedStream:
    """One connection that keeps *depth* requests outstanding.

    ``next_request(i)`` returns ``(class, request bytes, keep_body)``
    for the i-th request of the stream, or ``None`` to stop early.
    With ``interval`` > 0 the stream is *paced*: it still waits for
    each response, but starts requests no closer than ``interval``
    seconds apart (a caller that flushes on a timer and waits for the
    ack; when an ack is late the next request goes out at once).
    """

    next_request: Callable[[int], Optional[Tuple[str, bytes, bool]]]
    depth: int = 1
    interval: float = 0.0


@dataclass
class Completion:
    cls: str
    start: float      # due time (open loop) or send time (closed loop)
    sent: float
    done: float       # when the response arrived, or when we gave up
    status: int       # 0 when the request never completed
    body: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.start


@dataclass
class LoadResult:
    wall_s: float
    cpu_share: float
    open: List[Completion] = field(default_factory=list)
    closed: List[List[Completion]] = field(default_factory=list)

    @property
    def generator_bound(self) -> bool:
        return self.cpu_share > GENERATOR_BOUND_SHARE

    def lateness_ms(self, q: float = 99) -> float:
        late = sorted(c.sent - c.start for c in self.open)
        return percentile(late, q) * 1e3 if late else 0.0

    def sent(self) -> int:
        return len(self.open) + sum(len(s) for s in self.closed)

    def failed(self) -> int:
        every = list(self.open)
        for stream in self.closed:
            every.extend(stream)
        return sum(1 for c in every if not c.ok)


class _Conn:
    __slots__ = ("sock", "inbuf", "outbuf", "pending", "need", "body_at",
                 "status", "stream", "issued", "writing", "exhausted",
                 "next_at")

    def __init__(self, address, stream: int):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.pending: deque = deque()
        self.need: Optional[int] = None
        self.body_at = 0
        self.status = 0
        self.stream = stream      # -1 for open-loop connections
        self.issued = 0
        self.writing = False
        self.exhausted = False
        self.next_at = 0.0        # paced streams: earliest next start


def run_load(
    address: Tuple[str, int],
    duration: float,
    open_loop: Optional[OpenLoop] = None,
    closed: Sequence[ClosedStream] = (),
    drain_timeout: float = 20.0,
) -> LoadResult:
    """Run one phase: the open-loop schedule plus every closed stream.

    Closed streams issue new requests for *duration* seconds (or until
    ``next_request`` returns ``None``); the call returns once every
    outstanding response has arrived, or *drain_timeout* seconds after
    the last request was due, whichever comes first -- requests still
    outstanding then count as failed.
    """
    selector = selectors.SelectSelector()
    open_conns: List[_Conn] = []
    stream_conns: List[_Conn] = []
    n_open = len(open_loop.requests) if open_loop else 0
    if open_loop:
        open_conns = [_Conn(address, -1) for _ in range(OPEN_CONNECTIONS)]
    stream_conns = [_Conn(address, i) for i in range(len(closed))]
    for conn in open_conns + stream_conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)

    keep = tuple(open_loop.keep_body) if open_loop else ()
    open_done: List[Optional[Completion]] = [None] * n_open
    open_sent = [0.0] * n_open
    closed_done: List[List[Completion]] = [[] for _ in closed]
    dead: set = set()

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    stop_issuing = t0 + duration
    last_due = t0 + (open_loop.due[-1] if n_open else 0.0)
    hard_deadline = max(stop_issuing, last_due) + drain_timeout
    due_abs = [t0 + d for d in open_loop.due] if open_loop else []
    nxt = 0

    def flush(conn: _Conn) -> None:
        if conn in dead or not conn.outbuf:
            return
        try:
            sent = conn.sock.send(conn.outbuf)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            fail_conn(conn)
            return
        del conn.outbuf[:sent]
        want = selectors.EVENT_READ | (
            selectors.EVENT_WRITE if conn.outbuf else 0
        )
        if bool(conn.outbuf) != conn.writing:
            conn.writing = bool(conn.outbuf)
            selector.modify(conn.sock, want, conn)

    def fail_conn(conn: _Conn) -> None:
        """The server hung up: everything outstanding here failed."""
        if conn in dead:
            return
        dead.add(conn)
        now = time.perf_counter()
        while conn.pending:
            finish(conn, 0, None, now)
        try:
            selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()

    def finish(conn: _Conn, status: int, body, now: float) -> None:
        tag = conn.pending.popleft()
        if conn.stream < 0:
            open_done[tag] = Completion(
                open_loop.classes[tag], due_abs[tag], open_sent[tag],
                now, status, body,
            )
        else:
            cls, sent_at, _ = tag
            closed_done[conn.stream].append(Completion(
                cls, sent_at, sent_at, now, status, body,
            ))

    def issue(conn: _Conn, now: float) -> None:
        """Top a closed stream back up to its depth."""
        stream = closed[conn.stream]
        while (
            len(conn.pending) < stream.depth and now >= conn.next_at
            and now < stop_issuing and conn not in dead
        ):
            conn.next_at = now + stream.interval
            item = stream.next_request(conn.issued)
            if item is None:
                conn.exhausted = True
                break
            cls, data, keep_body = item
            conn.issued += 1
            conn.outbuf += data
            conn.pending.append((cls, now, keep_body))

    def wants_body(conn: _Conn) -> bool:
        tag = conn.pending[0]
        if conn.stream < 0:
            return bool(keep) and keep[tag]
        return tag[2]

    def drain(conn: _Conn, now: float) -> None:
        buf = conn.inbuf
        while conn.pending:
            if conn.need is None:
                end = buf.find(b"\r\n\r\n")
                if end < 0:
                    return
                head = bytes(buf[:end]).lower()
                conn.status = int(head[9:12])
                at = head.find(b"content-length:")
                if at < 0:
                    fail_conn(conn)
                    return
                stop = head.find(b"\r\n", at)
                length = int(head[at + 15: stop if stop >= 0 else None])
                conn.body_at = end + 4
                conn.need = conn.body_at + length
            if len(buf) < conn.need:
                return
            body = (
                bytes(buf[conn.body_at:conn.need])
                if wants_body(conn) else None
            )
            del buf[:conn.need]
            conn.need = None
            finish(conn, conn.status, body, now)

    while True:
        now = time.perf_counter()
        touched = []
        while nxt < n_open and due_abs[nxt] <= now:
            conn = open_conns[nxt % len(open_conns)]
            open_sent[nxt] = now
            if conn in dead:
                open_done[nxt] = Completion(
                    open_loop.classes[nxt], due_abs[nxt], now, now, 0,
                )
            else:
                conn.outbuf += open_loop.requests[nxt]
                conn.pending.append(nxt)
                touched.append(conn)
            nxt += 1
        for conn in touched:
            flush(conn)
        for conn in stream_conns:
            issue(conn, now)   # a no-op unless it has room and it is its turn
            flush(conn)
        outstanding = any(
            c.pending for c in open_conns + stream_conns if c not in dead
        )
        streams_over = now >= stop_issuing or all(
            c.exhausted or c in dead for c in stream_conns
        )
        if nxt >= n_open and streams_over and not outstanding:
            break
        if now > hard_deadline:
            break
        if nxt < n_open:
            timeout = max(0.0, due_abs[nxt] - now)
        elif now < stop_issuing:
            timeout = min(0.05, stop_issuing - now)
        else:
            timeout = 0.05
        for conn in stream_conns:
            # A paced stream with room wakes the loop when its turn comes.
            if conn.next_at > now and len(conn.pending) < closed[conn.stream].depth:
                timeout = min(timeout, conn.next_at - now)
        for key, mask in selector.select(timeout):
            conn = key.data
            if conn in dead:
                continue
            if mask & selectors.EVENT_READ:
                try:
                    chunk = conn.sock.recv(_RECV_BYTES)
                except (BlockingIOError, InterruptedError):
                    chunk = None
                except OSError:
                    chunk = b""
                if chunk == b"":
                    fail_conn(conn)
                    continue
                if chunk:
                    conn.inbuf += chunk
                    now = time.perf_counter()
                    drain(conn, now)
                    if conn.stream >= 0:
                        issue(conn, now)
                        flush(conn)
            if mask & selectors.EVENT_WRITE:
                flush(conn)

    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    # Whatever never came back missed every latency limit.
    for conn in open_conns + stream_conns:
        if conn not in dead:
            now = time.perf_counter()
            while conn.pending:
                finish(conn, 0, None, now)
            selector.unregister(conn.sock)
            conn.sock.close()
    selector.close()
    # Past the hard deadline the rest of the schedule was never sent.
    now = time.perf_counter()
    for i in range(nxt, n_open):
        open_done[i] = Completion(
            open_loop.classes[i], due_abs[i], now, now, 0
        )
    return LoadResult(
        wall_s=wall,
        cpu_share=cpu / wall if wall > 0 else 0.0,
        open=open_done,
        closed=closed_done,
    )


def uniform_schedule(rate: float, duration: float) -> List[float]:
    """Evenly spaced due times: ``rate`` requests/s for ``duration`` s."""
    count = max(1, int(round(rate * duration)))
    return [i / rate for i in range(count)]


def finite_stream(
    items: Sequence[Tuple[str, bytes, bool]], depth: int = 1
) -> ClosedStream:
    """A closed stream that sends each pre-built request once."""
    return ClosedStream(
        lambda i: items[i] if i < len(items) else None, depth
    )


def cycle_stream(
    items: Sequence[Tuple[str, bytes, bool]], depth: int
) -> ClosedStream:
    """A closed stream that cycles through pre-built requests forever."""
    return ClosedStream(lambda i: items[i % len(items)], depth)


# ----------------------------------------------------------------------
# Server subprocess
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve ...`` as a child, from the checkout's src.

    Only deployment settings are passed (index path, graph path, WAL
    directory, port 0, and the load mode the workload needs); every
    tier choice -- transport, threads, backend, kernel workers -- is
    left to the product's defaults.
    """

    def __init__(self, src_dir: Path, log_path: Path, args: Sequence[str]):
        self.src_dir = Path(src_dir)
        self.log_path = Path(log_path)
        self.args = list(args)
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.announce = ""
        self.startup_s = float("nan")
        self.rusage = None
        self.peak_rss_mb = float("nan")

    def start(self, timeout: float = 120.0) -> "ServerProcess":
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src_dir) + (
            os.pathsep + inherited if inherited else ""
        )
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 *self.args],
                stdout=log, stderr=log, stdin=subprocess.DEVNULL, env=env,
            )
        deadline = started + timeout
        while True:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            match = _ANNOUNCE.search(text)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                self.announce = text.strip().splitlines()[-1]
                break
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: {text}"
                )
            if time.perf_counter() > deadline:
                self.kill()
                raise RuntimeError(f"server did not announce: {text}")
            time.sleep(0.005)
        self.startup_s = time.perf_counter() - started
        return self

    def kill(self):
        """SIGKILL and reap; returns the child's ``wait4`` rusage (CPU
        times; ``peak_rss_mb`` holds its memory high-water mark)."""
        if self.process is None:
            return self.rusage
        process, self.process = self.process, None
        self.peak_rss_mb = peak_rss_mb(process.pid)
        try:
            process.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            _, _, self.rusage = os.wait4(process.pid, 0)
        except ChildProcessError:
            process.wait()
        else:
            process.returncode = -signal.SIGKILL  # already reaped
        return self.rusage


def peak_rss_mb(pid="self") -> float:
    """High-water resident set of a live process, from ``/proc``.

    ``ru_maxrss`` is not used: Linux folds the *parent's* resident set
    at fork time into the child's maximum, so a child spawned by a
    large benchmark process would report the benchmark's memory.
    ``VmHWM`` belongs to the address space created at exec.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return float("nan")


def request_once(
    address: Tuple[str, int], request: bytes, timeout: float = 60.0
) -> Tuple[int, bytes]:
    """One blocking request on a fresh connection: ``(status, body)``."""
    result = run_load(
        address, timeout, closed=[finite_stream([("once", request, True)])],
        drain_timeout=timeout,
    )
    done = result.closed[0]
    if not done:
        return 0, b""
    return done[0].status, done[0].body or b""
