"""Cluster membership: replicas, shard groups, and health probing.

The cluster router (:mod:`repro.serve.cluster`) answers every query by
calling workers over HTTP.  This module holds the *who-is-alive*
bookkeeping that makes those calls resilient:

* :class:`Replica` -- one worker endpoint with a pooled binary-wire
  client and a four-state health machine::

      up ---(probe/RPC failure)---> down ---(probe success)---> up
      up/down --(missed a committed update batch)--> stale
      stale --(router begins resync)--> syncing
      syncing --(digest-verified re-seed)--> up
      syncing --(resync failed)--> stale

  ``stale`` is a quarantine, not an outage: the replica answered (or
  may answer) but its index *content* diverged from the cluster --
  serving it would return confidently wrong floats.  Health probes
  never revive a stale replica; only the router's resync loop
  (:meth:`repro.serve.cluster.RouterServer.resync_stale`) moves it
  through ``syncing`` by re-seeding it from a healthy donor and
  re-admitting it after a content-digest check.  ``syncing`` replicas,
  like stale ones, never serve reads and are skipped by probes.

* :class:`ShardGroup` -- the replica set owning one contiguous global
  node-id range ``[start, stop)`` (``stop=None`` leaves the last group
  open-ended so it also owns nodes appended by updates).  Healthy
  replicas are tried round-robin; marked-down replicas are kept as a
  last resort, which doubles as a passive recovery probe.

* :class:`ClusterMembership` -- the ordered, contiguity-checked list
  of groups, owner lookup by global node id, and the periodic
  ``/healthz`` prober.

Example:
    >>> replica = Replica("http://127.0.0.1:1")
    >>> replica.state
    'up'
    >>> replica.mark_down("connect refused")
    >>> replica.mark_up()
    >>> replica.state
    'up'
    >>> replica.mark_stale("missed update batch")
    >>> replica.mark_up()  # probes never revive a stale replica
    >>> replica.state
    'stale'
    >>> replica.begin_resync()  # only the resync loop moves it on
    True
    >>> replica.state
    'syncing'
    >>> replica.mark_synced()
    >>> replica.state
    'up'
"""

from __future__ import annotations

import queue
import random
import threading
import time
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence

from repro._util import require
from repro.serve.client import QueryClient, ServeClientError

STATE_UP = "up"
STATE_DOWN = "down"
STATE_STALE = "stale"
STATE_SYNCING = "syncing"


class Replica:
    """One worker endpoint: pooled wire client + health state machine.

    Args:
        url: The worker's base URL.
        timeout: Per-RPC socket timeout in seconds; this is what turns
            a hung worker into a failover instead of a stuck router.
        wire_mode: RPC encoding -- ``"binary"`` (default) round-trips
            floats exactly over :mod:`repro.serve.wire`; ``"json"``
            is exact too (repr round-trip) but slower.
        pool_size: Keep-alive clients retained between calls.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        wire_mode: str = "binary",
        pool_size: int = 16,
    ):
        self.url = url
        self.timeout = float(timeout)
        self.wire_mode = wire_mode
        self.state = STATE_UP
        self.failures = 0
        self.last_error: Optional[str] = None
        # Observed topology, filled by the router's startup validation
        # probe (and refreshed after a resync): what this worker
        # *actually* serves, surfaced through /stats.
        self.node_range: Optional[List[int]] = None
        self.labels_digest: Optional[str] = None
        self.index_format: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()
        self._pool: "queue.LifoQueue[QueryClient]" = queue.LifoQueue(
            maxsize=pool_size
        )

    # -- RPC -----------------------------------------------------------
    def call(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, Any]] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One RPC through a pooled keep-alive client.

        Raises :class:`~repro.serve.client.ServeClientError` exactly as
        :class:`~repro.serve.client.QueryClient` does; the caller (the
        router) decides which errors mean *failover* and which mean
        *propagate*.
        """
        client = self._acquire()
        try:
            result = client._request(method, path, params=params,
                                     payload=payload)
        except ServeClientError as error:
            if error.status is not None and error.status >= 400:
                # The worker answered an HTTP refusal; the connection
                # itself is fine, keep it pooled.
                self._release(client)
            else:
                # Transport fault or a malformed 200: the connection is
                # suspect, drop it.
                client.close()
            raise
        except BaseException:
            client.close()
            raise
        self._release(client)
        return result

    def _acquire(self) -> QueryClient:
        try:
            return self._pool.get_nowait()
        except queue.Empty:
            return QueryClient(
                self.url, timeout=self.timeout, wire_mode=self.wire_mode
            )

    def _release(self, client: QueryClient) -> None:
        try:
            self._pool.put_nowait(client)
        except queue.Full:
            client.close()

    # -- health state machine ------------------------------------------
    def mark_down(self, error: Any) -> None:
        with self._lock:
            if self.state == STATE_UP:
                self.state = STATE_DOWN
            self.failures += 1
            self.last_error = str(error)

    def mark_up(self) -> None:
        """Recover ``down -> up``; ``stale`` is terminal (see module
        docstring) and never revived here."""
        with self._lock:
            if self.state == STATE_DOWN:
                self.state = STATE_UP

    def mark_stale(self, reason: Any) -> None:
        with self._lock:
            self.state = STATE_STALE
            self.last_error = str(reason)

    def begin_resync(self) -> bool:
        """Claim a stale replica for re-seeding (``stale -> syncing``).

        Returns False unless the replica was stale -- the atomic
        check-and-set means two resync sweeps can never both work on
        the same replica.
        """
        with self._lock:
            if self.state != STATE_STALE:
                return False
            self.state = STATE_SYNCING
            return True

    def mark_synced(self) -> None:
        """Re-admit a re-seeded replica (``syncing -> up``); the caller
        has already digest-verified its content against the donor."""
        with self._lock:
            if self.state == STATE_SYNCING:
                self.state = STATE_UP
                self.last_error = None

    def probe(self) -> bool:
        """One ``/healthz`` round trip; updates the health state.

        Any HTTP answer -- even a refusal -- proves the worker is
        alive and routable; only transport faults and 5xx count as
        down.
        """
        try:
            self.call("GET", "/healthz")
        except ServeClientError as error:
            if error.status is not None and 400 <= error.status < 500:
                self.mark_up()
                return True
            self.mark_down(error)
            return False
        except Exception as error:  # pragma: no cover - defensive
            self.mark_down(error)
            return False
        self.mark_up()
        return True

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "url": self.url,
                "state": self.state,
                "failures": self.failures,
                "last_error": self.last_error,
                "node_range": list(self.node_range)
                if self.node_range is not None else None,
                "labels_digest": self.labels_digest,
                "index_format": self.index_format,
            }

    def observe_topology(self, index_stats: Dict[str, Any]) -> None:
        """Record what this worker's ``/stats`` ``index`` block says it
        serves: its node range, labels digest and storage format."""
        reported = index_stats.get("node_range")
        self.node_range = (
            list(reported) if isinstance(reported, (list, tuple)) else None
        )
        self.labels_digest = index_stats.get("labels_digest")
        self.index_format = {
            field: index_stats.get(field)
            for field in ("format_version", "entry_bytes", "bytes_per_entry")
        }

    def close(self) -> None:
        while True:
            try:
                self._pool.get_nowait().close()
            except queue.Empty:
                return


class ShardGroup:
    """The replica set owning global node-id range ``[start, stop)``."""

    def __init__(
        self,
        start: int,
        stop: Optional[int],
        replicas: Sequence[Replica],
    ):
        require(start >= 0, f"shard start must be >= 0, got {start}")
        if stop is not None:
            require(
                stop > start,
                f"shard stop must exceed start, got [{start}, {stop})",
            )
        require(len(replicas) >= 1, "a shard group needs >= 1 replica")
        self.start = int(start)
        self.stop = None if stop is None else int(stop)
        self.replicas: List[Replica] = list(replicas)
        self._rr = 0
        self._lock = threading.Lock()

    def describe_range(self, total: int) -> str:
        stop = total if self.stop is None else self.stop
        return f"[{self.start}, {stop})"

    def owns(self, node_id: int, total: int) -> bool:
        stop = total if self.stop is None else self.stop
        return self.start <= node_id < stop

    def candidates(self) -> List[Replica]:
        """Replicas in try order for one request.

        Healthy replicas first, rotated round-robin so read load
        spreads; marked-down replicas follow as a last resort (if one
        answers, the router marks it back up -- a passive recovery
        probe).  Stale and syncing replicas never appear: their
        content diverged (or is mid-replacement).
        """
        with self._lock:
            offset = self._rr
            self._rr += 1
        up = [r for r in self.replicas if r.state == STATE_UP]
        down = [r for r in self.replicas if r.state == STATE_DOWN]
        if up:
            pivot = offset % len(up)
            up = up[pivot:] + up[:pivot]
        return up + down

    def all_up(self) -> bool:
        return all(r.state == STATE_UP for r in self.replicas)

    def reset_round_robin(self) -> None:
        """Pin the next candidate order to replica 0 (test determinism)."""
        with self._lock:
            self._rr = 0

    def snapshot(self, total: int) -> Dict[str, Any]:
        return {
            "start": self.start,
            "stop": self.stop,
            "range": self.describe_range(total),
            "replicas": [r.snapshot() for r in self.replicas],
        }

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()


class ClusterMembership:
    """Ordered shard groups + owner lookup + the health prober."""

    def __init__(self, groups: Sequence[ShardGroup]):
        require(len(groups) >= 1, "a cluster needs >= 1 shard group")
        expected = 0
        for position, group in enumerate(groups):
            require(
                group.start == expected,
                "shard groups must tile the node-id space contiguously: "
                f"group {position} starts at {group.start}, "
                f"expected {expected}",
            )
            last = position == len(groups) - 1
            require(
                last or group.stop is not None,
                "only the last shard group may be open-ended",
            )
            if group.stop is not None:
                expected = group.stop
        self.groups: List[ShardGroup] = list(groups)
        self._starts = [group.start for group in self.groups]
        self._probe_stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None

    def group_for(self, node_id: int, total: int) -> ShardGroup:
        group = self.groups[bisect_right(self._starts, node_id) - 1]
        require(
            group.owns(node_id, total),
            f"node id {node_id} outside every shard range",
        )
        return group

    def all_up(self) -> bool:
        return all(group.all_up() for group in self.groups)

    def reset_round_robin(self) -> None:
        for group in self.groups:
            group.reset_round_robin()

    def probe_all(self) -> None:
        for group in self.groups:
            for replica in group.replicas:
                if replica.state not in (STATE_STALE, STATE_SYNCING):
                    replica.probe()

    def start_probes(
        self,
        interval: float,
        jitter: float = 0.2,
        backoff_cap: float = 8.0,
    ) -> None:
        """Probe every non-stale replica about each ``interval`` seconds
        on a daemon thread (``interval <= 0`` disables probing).

        Two storm-avoidance behaviours, both per-router-local:

        * every sleep is *interval* +- ``jitter`` (a fraction, default
          20%), so N routers started together against the same workers
          drift apart instead of probing in lockstep;
        * a replica that keeps failing its probe backs off
          exponentially -- its next probe is delayed by 2x, 4x, ... up
          to ``backoff_cap`` x *interval* per consecutive failure -- so
          a worker rebuilding its index after a restart is not hammered
          by every router's full-rate probes at once.  One successful
          probe resets the backoff.
        """
        if interval <= 0 or self._probe_thread is not None:
            return
        rng = random.Random()
        next_allowed: Dict[int, float] = {}
        backoff: Dict[int, float] = {}

        def jittered(base: float) -> float:
            if jitter <= 0:
                return base
            return base * (1.0 + jitter * (2.0 * rng.random() - 1.0))

        def loop() -> None:
            while not self._probe_stop.wait(jittered(interval)):
                now = time.monotonic()
                for group in self.groups:
                    for replica in group.replicas:
                        if replica.state in (STATE_STALE, STATE_SYNCING):
                            continue
                        key = id(replica)
                        if now < next_allowed.get(key, 0.0):
                            continue
                        if replica.probe():
                            backoff.pop(key, None)
                            next_allowed.pop(key, None)
                        else:
                            factor = min(
                                backoff_cap, backoff.get(key, 1.0) * 2.0
                            )
                            backoff[key] = factor
                            next_allowed[key] = (
                                time.monotonic()
                                + jittered(interval * factor)
                            )

        self._probe_thread = threading.Thread(
            target=loop, name="repro-route-probe", daemon=True
        )
        self._probe_thread.start()

    def stop_probes(self) -> None:
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
            self._probe_thread = None

    def snapshot(self, total: int) -> List[Dict[str, Any]]:
        return [group.snapshot(total) for group in self.groups]

    def close(self) -> None:
        self.stop_probes()
        for group in self.groups:
            group.close()


__all__ = [
    "STATE_DOWN",
    "STATE_STALE",
    "STATE_SYNCING",
    "STATE_UP",
    "ClusterMembership",
    "Replica",
    "ShardGroup",
]
