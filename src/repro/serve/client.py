"""``QueryClient``: a thin stdlib client for the ``repro serve`` API.

Built straight on :mod:`http.client` so the connection is kept alive
across calls -- the difference between a few hundred and a few thousand
queries per second against a localhost daemon.  One client owns one
socket and is **not** thread-safe; give each thread its own client.

Example::

    client = QueryClient("http://127.0.0.1:8080")
    client.healthz()                      # {"status": "ok", ...}
    client.cardinality(node=5, d=2.0)     # one node
    client.cardinality_batch([1, 2, 3])   # many nodes, one round trip
    client.top_central(count=10, kind="harmonic")

The client speaks to a single ``AdsServer`` and to the cluster
``RouterServer`` identically, and can opt into the compact binary
codec with ``wire_mode="binary"`` -- same payloads, negotiated via
``Accept``/``Content-Type``, no API change.

Retries are idempotency-aware.  A kept-alive connection the server has
since closed fails on its next use, so reads (every ``GET``, plus the
read-only ``POST /cardinality`` / ``/closeness`` / ``/similarity`` /
``/distance`` batches) are replayed once on a fresh socket.  Writes (``/update``, ``/compact``)
are replayed **only** when the send itself failed -- a request whose
bytes were fully handed to the transport may already have been applied
before the connection died, and replaying it would double-apply the
edge batch.  That case surfaces as a transport-level
:class:`ServeClientError` instead; the caller decides whether to
re-issue after checking ``/stats``.

Server-side refusals (unknown node, malformed parameter) raise
:class:`ServeClientError` carrying the HTTP status and the server's
``error`` message; transport failures raise it with ``status=None``.
A ``503`` shed also carries the server's ``Retry-After`` hint as
``error.retry_after`` seconds.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import time
from typing import Any, Dict, Hashable, Optional, Sequence
from urllib.parse import quote, urlencode, urlsplit

from repro.errors import ReproError
from repro.serve import wire


class ServeClientError(ReproError):
    """An HTTP query failed; ``status`` is None for transport faults.

    ``retry_after`` carries the server's ``Retry-After`` hint in
    seconds when present (load-shedding 503s send it), else ``None``.
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class QueryClient:
    """Keep-alive client for one ``AdsServer`` or ``RouterServer``.

    Args:
        base_url: Server root, e.g. ``"http://127.0.0.1:8080"``.
        timeout: Per-request socket timeout in seconds.
        wire_mode: ``"json"`` (default) speaks the JSON API unchanged;
            ``"binary"`` negotiates the compact wire codec
            (:mod:`repro.serve.wire`) for request and response bodies.
            Results are identical either way.
        retries_on_shed: Opt-in 503 handling.  ``0`` (default) raises
            the shed straight to the caller, as always.  ``N > 0``
            sleeps for the server's ``Retry-After`` hint (capped at
            ``max_retry_after``) and re-issues the request up to N
            times before raising.  Safe for every endpoint: a 503 is
            sent *instead of* dispatching, so nothing was applied.
        max_retry_after: Ceiling in seconds on any single shed sleep --
            a server advertising a pathological ``Retry-After`` must
            not wedge the client.
    """

    # POST endpoints that are pure reads: replaying one can never
    # change server state, so they retry like GETs do.
    _IDEMPOTENT_POST_PATHS = frozenset(
        {"/cardinality", "/closeness", "/similarity", "/distance"}
    )

    #: Shed responses without a (parseable) Retry-After back off this
    #: many seconds.
    DEFAULT_RETRY_AFTER = 0.05

    def __init__(
        self, base_url: str, timeout: float = 10.0,
        wire_mode: str = "json", retries_on_shed: int = 0,
        max_retry_after: float = 5.0,
    ):
        if "://" not in base_url:
            # "localhost:8080" would otherwise urlsplit as scheme
            # "localhost"; scheme-less inputs are always host[:port].
            base_url = f"http://{base_url}"
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.netloc:
            raise ServeClientError(f"unsupported server URL {base_url!r}")
        if wire_mode not in ("json", "binary"):
            raise ServeClientError(
                f"wire_mode must be 'json' or 'binary', got {wire_mode!r}"
            )
        host, _, port = split.netloc.partition(":")
        self.host = host
        self.port = int(port) if port else 80
        self.timeout = timeout
        self.wire_mode = wire_mode
        self.retries_on_shed = int(retries_on_shed)
        self.max_retry_after = float(max_retry_after)
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, Any]] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One logical request, with opt-in sleep-and-retry on 503.

        A shed (503) is answered *instead of* dispatching the request,
        so re-issuing after the server's ``Retry-After`` hint can
        never double-apply anything -- which is why the shed retry,
        unlike the mid-flight replay below, applies to writes too.
        """
        shed_attempts = 0
        while True:
            try:
                return self._request_once(method, path, params, payload)
            except ServeClientError as error:
                if (
                    error.status != 503
                    or shed_attempts >= self.retries_on_shed
                ):
                    raise
                shed_attempts += 1
                delay = (
                    error.retry_after
                    if error.retry_after is not None
                    else self.DEFAULT_RETRY_AFTER
                )
                time.sleep(min(max(delay, 0.0), self.max_retry_after))

    def _request_once(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, Any]] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        full_path = f"{path}?{urlencode(params)}" if params else path
        body = None
        headers = {}
        if self.wire_mode == "binary":
            headers["Accept"] = wire.WIRE_CONTENT_TYPE
        if payload is not None:
            if self.wire_mode == "binary":
                body = wire.encode(payload)
                headers["Content-Type"] = wire.WIRE_CONTENT_TYPE
            else:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
        idempotent = (
            method == "GET" or path in self._IDEMPOTENT_POST_PATHS
        )
        last_error: Optional[Exception] = None
        # One retry on a fresh socket: a kept-alive connection the
        # server has since closed fails only on its next use.  Writes
        # replay ONLY when the send itself failed -- a fully-sent
        # /update the connection died on may already be applied, and
        # replaying it would double-apply the edge batch.
        for attempt in range(2):
            conn = self._conn
            if conn is None:
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
                try:
                    conn.connect()
                    conn.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                except OSError as error:
                    conn.close()
                    raise ServeClientError(
                        f"cannot reach server ({error})"
                    )
            sent = False
            try:
                conn.request(
                    method, full_path, body=body, headers=headers
                )
                # request() returning means every byte was handed to
                # the transport; a send-phase exception means the body
                # never fully reached the server (its Content-Length
                # read comes up short), so the request cannot have
                # been applied and is safe to replay.
                sent = True
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError) as error:
                conn.close()
                self._conn = None
                last_error = error
                if attempt == 0 and (idempotent or not sent):
                    continue
                raise ServeClientError(
                    f"request failed mid-flight ({error}); not "
                    f"replayed -- {path} may already be applied"
                    if not idempotent else
                    f"cannot reach server ({error})"
                )
            self._conn = conn
            return self._parse_response(response, raw)
        raise ServeClientError(f"cannot reach server ({last_error})")

    def _parse_response(self, response, raw: bytes) -> Dict[str, Any]:
        """Decode a response body per its Content-Type; raise on >=400."""
        if wire.is_binary_content_type(
            response.getheader("Content-Type")
        ):
            try:
                data = wire.decode(raw)
            except wire.WireFormatError as error:
                raise ServeClientError(
                    f"malformed binary response ({error})",
                    status=response.status,
                )
        else:
            try:
                data = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise ServeClientError(
                    f"non-JSON response ({response.status})",
                    status=response.status,
                )
        if response.status >= 400:
            message = (
                data.get("error", "request failed")
                if isinstance(data, dict) else "request failed"
            )
            retry_after: Optional[float] = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass  # HTTP-date form; callers just back off
            raise ServeClientError(
                message, status=response.status, retry_after=retry_after
            )
        return data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def cardinality(
        self, node: Optional[Hashable] = None, d: Optional[float] = None
    ) -> Dict[str, Any]:
        """n_d estimates: every node, or just *node* when given."""
        params: Dict[str, Any] = {}
        if d is not None and d != math.inf:
            # +inf is the server default; anything else (-inf included)
            # must travel, not silently widen to all-reachable.
            params["d"] = d
        if node is not None:
            params["node"] = node
        return self._request("GET", "/cardinality", params=params)

    def cardinality_batch(
        self, nodes: Sequence[Hashable], d: Optional[float] = None
    ) -> Dict[str, Any]:
        """One round trip answering n_d for every node in *nodes*."""
        payload: Dict[str, Any] = {"nodes": list(nodes)}
        if d is not None and d != math.inf:
            payload["d"] = d
        return self._request("POST", "/cardinality", payload=payload)

    def closeness(
        self,
        node: Optional[Hashable] = None,
        kind: str = "classic",
        half_life: Optional[float] = None,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {"kind": kind}
        if half_life is not None:
            params["half_life"] = half_life
        if node is not None:
            params["node"] = node
        return self._request("GET", "/closeness", params=params)

    def closeness_batch(
        self,
        nodes: Sequence[Hashable],
        kind: str = "classic",
        half_life: Optional[float] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"nodes": list(nodes), "kind": kind}
        if half_life is not None:
            payload["half_life"] = half_life
        return self._request("POST", "/closeness", payload=payload)

    def neighborhood(
        self, node: Optional[Hashable] = None
    ) -> Dict[str, Any]:
        """The ANF series -- whole graph, or one node's distribution."""
        params = {"node": node} if node is not None else None
        return self._request("GET", "/neighborhood", params=params)

    def top_central(
        self,
        count: int = 10,
        kind: str = "classic",
        half_life: Optional[float] = None,
        largest: bool = True,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {
            "count": count,
            "kind": kind,
            "largest": "true" if largest else "false",
        }
        if half_life is not None:
            params["half_life"] = half_life
        return self._request("GET", "/top-central", params=params)

    def node(self, label: Hashable) -> Dict[str, Any]:
        """One node's summary: sketch size, reachability, centrality."""
        return self._request(
            "GET", f"/node/{quote(str(label), safe='')}"
        )

    def similarity_batch(
        self,
        pairs: Sequence[Sequence[Hashable]],
        metric: str = "jaccard",
        d: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Pairwise similarity in one round trip.

        *metric* is ``"jaccard"`` (d-neighborhood MinHash Jaccard;
        *d* defaults to the full reachability sets) or ``"closeness"``
        (distance-profile similarity; *d* does not apply).  Needs a
        bottom-k index; 409 otherwise.
        """
        payload: Dict[str, Any] = {
            "pairs": [list(pair) for pair in pairs],
            "metric": metric,
        }
        if d is not None and d != math.inf:
            payload["d"] = d
        return self._request("POST", "/similarity", payload=payload)

    def distance_batch(
        self, pairs: Sequence[Sequence[Hashable]]
    ) -> Dict[str, Any]:
        """Pairwise distance-oracle upper bounds in one round trip.

        Each value is the 2-hop-cover estimate through the pair's
        common sketch entries; ``None`` (JSON null) when the sketches
        share no entry.  Needs a bottom-k index; 409 otherwise.
        """
        payload = {"pairs": [list(pair) for pair in pairs]}
        return self._request("POST", "/distance", payload=payload)

    def similar(
        self,
        node: Hashable,
        count: int = 10,
        d: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The *count* nodes most similar to *node* (sketch-space
        nearest neighbors by d-neighborhood Jaccard)."""
        params: Dict[str, Any] = {"count": count}
        if d is not None and d != math.inf:
            params["d"] = d
        return self._request(
            "GET", f"/similar/{quote(str(node), safe='')}",
            params=params,
        )

    def nf_curve(self) -> Dict[str, Any]:
        """The cumulative distance distribution: ``[d, pairs_within_d,
        fraction]`` rows over the whole graph."""
        return self._request("GET", "/nf-curve")

    def update(self, edges: Sequence[Sequence[Any]]) -> Dict[str, Any]:
        """Apply an edge batch: ``[[u, v], [u, v, w], ...]``.

        Requires a server started with the index's graph (``repro serve
        --graph``) and an eagerly loaded index; 409 otherwise.
        """
        payload = {"edges": [list(edge) for edge in edges]}
        return self._request("POST", "/update", payload=payload)

    def compact(self) -> Dict[str, Any]:
        """Flush applied updates to the server's own index path.

        The destination is fixed server-side (a client-chosen path
        would be an arbitrary-file-write primitive); 409 when the
        server has no index path or is read-only.
        """
        return self._request("POST", "/compact", payload={})


__all__ = ["QueryClient", "ServeClientError"]
