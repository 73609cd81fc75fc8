"""``RouterServer``: the sharded-cluster fan-out router.

The deployment shape the paper's scale story implies: the ADSSHD01
sharded layout is split by *global node-id range*, N ``repro serve``
workers each serve one range (``AdsServer(node_range=...)`` -- a
worker over a sharded mmap layout only ever maps its own shard
files), and this router answers the single-server API over them.

The request handlers are not here: every read endpoint is implemented
once, on :class:`~repro.serve.server.ServerBase`, which parses,
validates, resolves labels (here against a :class:`LabelDirectory`),
shapes and caches.  The router supplies the *fetch* behind each kind
of read -- a few lines over one of five merge helpers, each exact:

* **Node values** (``?node=``, ``/node/<label>``): :meth:`_ask_owner`
  asks the owning shard group and takes ``value`` / ``series`` / the
  summary fields out of its reply.  The shared handler shapes them, so
  the bytes are the single server's because the same code wrote them,
  not because a worker's payload was passed through.
* **Node and pair batches** (``POST /cardinality`` / ``/closeness`` /
  ``/similarity`` / ``/distance``): :meth:`_scatter` splits the items
  by owning group and reassembles the values in request order.
* **Sweeps** (``/cardinality``, ``/closeness``): :meth:`_gather` fans
  to every group in shard order and concatenates.  Each node lives on
  exactly one shard and workers emit rows in global id order, so
  concatenation *is* the single-index row order, bit-identical.
* **Top-k rows** (``/top-central``, ``/similar/<label>``):
  :func:`merge_top_central` re-ranks the union of the per-group
  top-``count`` rows with the same
  :func:`~repro.centrality.closeness.top_k_central_nodes` comparator
  (value, then node ``repr`` -- the documented tie-break).  The global
  top-count is always a subset of that union (for ``/similar`` each
  worker scans only its own node range, and ``AdsIndex.most_similar``
  ranks with that comparator too), so the merge is exact.
* **The ANF series** (``/neighborhood``, ``/nf-curve``):
  :meth:`_fetch_anf_series` chains the seeded ``POST /nf-chain``
  accumulation through the groups in shard order, then prefix-sums --
  replaying the single-index float-op sequence exactly (see
  :meth:`~repro.ads.index.AdsIndex.accumulate_neighborhood_jumps`).

The one check a router cannot run itself is the bottom-k flavor gate:
it is a property of the sketches, so the workers refuse (409) and
:meth:`_call_group` re-raises a worker's 4xx verbatim.

``POST /update`` is two-phase: the shared frame validates, then the
router refuses unless every non-stale replica of every group is up,
applies the batch to *every* replica (full-index workers apply
deterministically and stay converged; a replica that misses a
committed batch is quarantined ``stale``), and only then grows its
label directory and lets the frame invalidate the cache.  The fan-out
runs under the router's exclusive write lock, so no concurrent read
ever observes a torn cross-shard view.

Failover: replicas are health-checked (periodic ``/healthz`` probes
plus per-RPC outcomes -- see :mod:`repro.serve.membership`).  A
transport fault, 5xx, or malformed wire frame marks the replica down
and the call retries the next candidate; a 4xx is a *worker answer*
and propagates to the client verbatim.  When a whole group is
unreachable the router sheds with a structured
``503 shard [start, stop) unavailable: ...`` -- never a hang, never a
partial merge.

Self-healing: a ``stale``-quarantined replica (one that missed a
committed write or answered divergently) is no longer terminal.  The
router's resync loop (:meth:`RouterServer.resync_stale`, run every
``resync_interval`` seconds) re-seeds it from a healthy donor via the
worker-scope ``/sync/snapshot`` -> ``/sync/install`` protocol and
re-admits it only after the installed content digest matches the
donor's -- all under the router's exclusive write lock, so no update
can slip between the snapshot and the verdict.  And misconfiguration
is refused up front: at construction the router probes every worker's
actual ``node_range`` and labels digest and raises
:class:`ClusterTopologyError` on any mismatch with the declared
``--cluster`` ranges, instead of silently answering sweeps with the
wrong rows.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

from repro._util import require
from repro.ads.storage import labels_digest
from repro.centrality.closeness import top_k_central_nodes
from repro.errors import ReproError
from repro.serve.client import ServeClientError
from repro.serve.membership import (
    STATE_DOWN,
    STATE_UP,
    ClusterMembership,
    Replica,
    ShardGroup,
)
from repro.serve.schemas import WireError, bad_request, conflict
from repro.serve.server import DISPATCH_THREADS, MAX_IN_FLIGHT, ServerBase

#: ``((start, stop_or_None), [replica_url, ...])`` -- one shard group.
GroupSpec = Tuple[Tuple[int, Optional[int]], Sequence[str]]


class ClusterTopologyError(ReproError):
    """Router construction refused: one or more workers' actual served
    ranges or label sets disagree with the declared ``--cluster``
    topology.  Routing over them would silently answer sweeps with the
    wrong rows, so the router fails fast instead."""


class LabelDirectory:
    """The router's label -> global-node-id map.

    Duck-types the slice of the index surface the schemas layer needs
    (``__contains__`` for :func:`~repro.serve.schemas.resolve_node`,
    :meth:`label_type` for edge coercion), which is what lets the
    shared handlers resolve a request's labels without knowing whether
    ``self._directory`` is this or an index.  Grown in worker interning
    order when updates append nodes (first occurrence of each new
    endpoint label, u before v, edge by edge).
    """

    def __init__(self, labels: Sequence[Any]):
        self._labels: List[Any] = list(labels)
        self._ids: Dict[Any, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        require(
            len(self._ids) == len(self._labels),
            "node labels must be unique",
        )
        require(len(self._labels) >= 1, "a cluster needs >= 1 node")

    def __contains__(self, label: Any) -> bool:
        return label in self._ids

    def __len__(self) -> int:
        return len(self._labels)

    def id_of(self, label: Any) -> int:
        return self._ids[label]

    def label_type(self) -> Optional[type]:
        """Same uniformity rule as ``AdsIndex.label_type``: ``int`` if
        every label is a non-bool int, ``str`` if every label is a
        str, else ``None`` (mixed -- no coercion)."""
        if all(
            isinstance(label, int) and not isinstance(label, bool)
            for label in self._labels
        ):
            return int
        if all(isinstance(label, str) for label in self._labels):
            return str
        return None

    def append(self, label: Any) -> bool:
        """Intern *label* if unseen; True when it was new."""
        if label in self._ids:
            return False
        self._ids[label] = len(self._labels)
        self._labels.append(label)
        return True

    def labels_digest(self) -> str:
        """Same fingerprint as ``AdsIndex.labels_digest`` over the same
        label list -- the equality topology validation checks."""
        return labels_digest(self._labels)


def merge_top_central(
    group_results: Sequence[Sequence[Sequence[Any]]],
    count: int,
    largest: bool = True,
) -> List[List[Any]]:
    """Exact k-way merge of per-shard ``/top-central`` rows.

    Each group submits its own top-``count`` ``[label, value]`` rows.
    Every node lives on exactly one shard, so any node in the global
    top-``count`` is necessarily in its own shard's top-``count`` --
    the union of the per-group rows always contains the global answer.
    Re-selecting from that union with
    :func:`~repro.centrality.closeness.top_k_central_nodes` applies
    the *same* comparator a single index uses (value first, node
    ``repr`` as the tie-break), so the merged ranking -- order
    included -- is bit-identical to the single-index result.

    Example:
        >>> merge_top_central(
        ...     [[["a", 0.5], ["b", 0.25]], [["c", 0.5], ["d", 0.75]]],
        ...     count=3,
        ... )
        [['d', 0.75], ['a', 0.5], ['c', 0.5]]
    """
    candidates: Dict[Any, float] = {}
    for rows in group_results:
        for label, value in rows:
            candidates[label] = value
    return [
        [label, value]
        for label, value in top_k_central_nodes(
            candidates, count, largest=largest
        )
    ]


class RouterServer(ServerBase):
    """Fan-out router over a sharded worker cluster.

    Serves the exact single-server API -- the inherited handlers --
    by fetching from shard workers; see the module docstring for merge
    and failover semantics.

    Args:
        labels: Every node label in global id order (``index.nodes()``
            of the full index; ``repro route`` reads them from the
            index header without materialising sketches).
        groups: Shard groups as ``((start, stop), [url, ...])`` pairs.
            Ranges must tile ``[0, len(labels))`` contiguously in
            order; the last group's stop is treated as open-ended so
            it also owns nodes appended by updates.  Every URL in a
            group is a replica serving that same range.
        host / port / cache_size / wire_mode: As on
            :class:`~repro.serve.server.AdsServer` (the router carries
            its own LRU for merged sweep results, keyed identically).
        max_in_flight: Bound on requests dispatched and not yet
            answered; beyond it new requests are shed with ``503`` +
            ``Retry-After`` (a stalled worker is what fills it).
        rpc_timeout: Socket timeout per worker RPC -- the bound that
            turns a hung worker into a failover.
        rpc_wire: ``"binary"`` (default) or ``"json"`` worker RPCs;
            both round-trip floats exactly.
        probe_interval: Seconds between background ``/healthz`` probes
            of every non-stale replica (``0`` disables; per-RPC
            outcomes still mark replicas down/up).
        writable: Accept ``POST /update`` / ``/compact`` and fan them
            to every replica.  Requires workers started with their
            graphs (eager indexes); leave False for mmap deployments.
        fanout_workers: Thread-pool size for parallel group RPCs.
        validate_topology: Probe every worker's ``/stats`` at
            construction and refuse (:class:`ClusterTopologyError`)
            any whose actual ``node_range`` or labels digest disagrees
            with the declared group ranges.  Workers that are
            unreachable are marked down and skipped -- an outage is
            failover's job, not a misconfiguration.
        resync_interval: Seconds between automatic
            :meth:`resync_stale` sweeps re-seeding quarantined
            replicas from healthy donors (``0`` disables the loop;
            the method can still be called directly).

    Example:
        >>> from repro.graph import path_graph
        >>> from repro.ads import AdsIndex
        >>> from repro.serve import AdsServer, QueryClient
        >>> index = AdsIndex.build(path_graph(6).to_csr(), k=4)
        >>> w0 = AdsServer(index, node_range=(0, 3)).start()
        >>> w1 = AdsServer(index, node_range=(3, None)).start()
        >>> router = RouterServer(
        ...     index.nodes(),
        ...     [((0, 3), [w0.url]), ((3, None), [w1.url])],
        ... )
        >>> with router:
        ...     QueryClient(router.url).cardinality(node=0, d=1.0)["value"]
        2.0
        >>> w0.shutdown(); w1.shutdown()
    """

    def __init__(
        self,
        labels: Sequence[Any],
        groups: Sequence[GroupSpec],
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        wire_mode: str = "auto",
        max_in_flight: int = MAX_IN_FLIGHT,
        rpc_timeout: float = 10.0,
        rpc_wire: str = "binary",
        probe_interval: float = 0.0,
        writable: bool = False,
        fanout_workers: Optional[int] = None,
        validate_topology: bool = True,
        resync_interval: float = 0.0,
    ):
        require(
            rpc_wire in ("binary", "json"),
            f"rpc_wire must be 'binary' or 'json', got {rpc_wire!r}",
        )
        require(
            rpc_timeout > 0, f"rpc_timeout must be > 0, got {rpc_timeout}"
        )
        require(
            resync_interval >= 0,
            f"resync_interval must be >= 0, got {resync_interval}",
        )
        self._directory = LabelDirectory(labels)
        # Fixed for the router's life, as on AdsServer: coercion
        # refuses any label that would break type uniformity.
        self._label_type = self._directory.label_type()
        self.rpc_timeout = float(rpc_timeout)
        self.rpc_wire = rpc_wire
        self.probe_interval = float(probe_interval)
        self.resync_interval = float(resync_interval)
        self.writable = bool(writable)
        built = []
        for position, ((start, stop), urls) in enumerate(groups):
            if position == len(groups) - 1:
                # Open-ended: the last group also owns appended nodes.
                require(
                    stop is None or stop == len(self._directory),
                    f"last shard range must end at {len(self._directory)}"
                    f" (or None), got {stop}",
                )
                stop = None
            built.append(ShardGroup(start, stop, [
                Replica(url, timeout=self.rpc_timeout, wire_mode=rpc_wire)
                for url in urls
            ]))
        self._membership = ClusterMembership(built)
        self._groups = self._membership.groups
        self._fan_outs = 0
        self._failovers = 0
        self._resyncs = 0
        self._resync_stop = threading.Event()
        self._resync_thread: Optional[threading.Thread] = None
        if validate_topology:
            try:
                self._validate_topology()
            except BaseException:
                self._membership.close()
                raise
        if fanout_workers is None:
            fanout_workers = max(4, min(32, DISPATCH_THREADS * len(built)))
        self._fanout_pool = ThreadPoolExecutor(
            max_workers=fanout_workers,
            thread_name_prefix="repro-route-fanout",
        )
        super().__init__(
            host=host, port=port, cache_size=cache_size,
            wire_mode=wire_mode, max_in_flight=max_in_flight,
        )
        self._membership.start_probes(self.probe_interval)
        self.start_resync(self.resync_interval)

    # The router serves the public API only: worker-scoped internals
    # (``/nf-chain``) stay off its route table, while every ``"all"``
    # endpoint in :mod:`repro.serve.registry` is required here -- the
    # chassis binds them at construction, so adding a public endpoint
    # to the registry without a router handler fails fast, not with a
    # cluster-only 404.
    _ROUTE_SCOPES = frozenset({"all"})

    # handle_request blocks on worker RPCs (up to rpc_timeout on a hung
    # worker), so each connection awaits it on the executor; one
    # slow shard then stalls its own callers, not every connection.
    _DISPATCH_THREADS = DISPATCH_THREADS

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._resync_stop.set()
        if self._resync_thread is not None:
            self._resync_thread.join(timeout=5.0)
            self._resync_thread = None
        self._membership.close()
        self._fanout_pool.shutdown(wait=False)
        super().close()

    # Test/operator hook: pin every group's next candidate to replica 0.
    def reset_round_robin(self) -> None:
        self._membership.reset_round_robin()

    # ------------------------------------------------------------------
    # Startup topology validation
    # ------------------------------------------------------------------
    def _validate_topology(self) -> None:
        """Probe each worker's actual served range and label set.

        Every reachable worker must report the labels digest of the
        router's node set and exactly its group's declared node range
        (open-ended stops normalise to the total) -- otherwise sweeps
        through it would silently cover the wrong rows.  A full-index
        worker (no ``node_range`` in its ``/stats``) only passes when
        the cluster has a single group covering everything.
        Unreachable workers are marked down and skipped: an outage is
        failover's problem; this check is for *misconfiguration*.  The
        observed range/digest is stored on each replica and surfaced
        through ``/stats``.
        """
        expected_digest = self._directory.labels_digest()
        total = len(self._directory)
        problems: List[str] = []
        for group in self._groups:
            for replica in group.replicas:
                try:
                    stats = replica.call("GET", "/stats")
                except ServeClientError as error:
                    replica.mark_down(error)
                    continue
                except Exception as error:  # pragma: no cover
                    replica.mark_down(error)
                    continue
                index_stats = stats.get("index") or {}
                replica.observe_topology(index_stats)
                digest = replica.labels_digest
                reported = index_stats.get("node_range")
                if digest != expected_digest:
                    problems.append(
                        f"{replica.url}: serves a different node set "
                        f"(labels digest {digest} != router's "
                        f"{expected_digest})"
                    )
                    continue
                if reported is None:
                    if len(self._groups) == 1 and group.start == 0:
                        continue  # full index == the only group's range
                    problems.append(
                        f"{replica.url}: not started as a shard worker "
                        "(no --cluster range); its sweeps would cover "
                        "every node, overlapping the other shards"
                    )
                    continue
                if (
                    not isinstance(reported, (list, tuple))
                    or len(reported) != 2
                ):
                    problems.append(
                        f"{replica.url}: unparseable node_range "
                        f"{reported!r}"
                    )
                    continue
                if not self._range_matches(
                    (group.start, group.stop), tuple(reported), total
                ):
                    declared = group.describe_range(total)
                    actual = self._format_range(tuple(reported), total)
                    problems.append(
                        f"{replica.url}: serves node range {actual} but "
                        f"is declared as shard {declared}"
                    )
        if problems:
            raise ClusterTopologyError(
                "cluster topology validation failed; refusing to route "
                "over mis-ranged workers:\n  - " + "\n  - ".join(problems)
            )

    @staticmethod
    def _range_matches(declared, reported, total: int) -> bool:
        """Range equality with open-ended stops normalised to *total*
        (a worker may say ``[45, None]`` where the group says
        ``[45, 90)``, and vice versa -- same rows either way)."""
        try:
            d_start, d_stop = declared
            r_start, r_stop = reported
            d_stop = total if d_stop is None else int(d_stop)
            r_stop = total if r_stop is None else int(r_stop)
            return int(d_start) == int(r_start) and d_stop == r_stop
        except (TypeError, ValueError):
            return False

    @staticmethod
    def _format_range(reported, total: int) -> str:
        start, stop = reported
        return f"[{start}, {total if stop is None else stop})"

    # ------------------------------------------------------------------
    # RPC core: failover + fan-out
    # ------------------------------------------------------------------
    def _call_group(
        self,
        group: ShardGroup,
        method: str,
        path: str,
        params: Optional[Dict[str, Any]] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One shard-group RPC with replica failover.

        * 4xx from a worker: the worker *answered* -- a refusal, not a
          fault.  Re-raised as the same status/message, so the client
          sees bytes identical to a single server's refusal.
        * Transport fault, 5xx, or a malformed wire frame (a 200 whose
          body does not decode -- e.g. truncated mid-frame): the
          replica is marked down and the next candidate is tried.
        * All candidates exhausted: a structured 503 naming the shard
          range, so callers know *which* rows are unavailable.
        """
        last_error: Any = "no replica configured"
        for replica in group.candidates():
            try:
                result = replica.call(
                    method, path, params=params, payload=payload
                )
            except ServeClientError as error:
                status = error.status
                if status is not None and 400 <= status < 500:
                    raise WireError(status, error.message)
                replica.mark_down(error)
                with self._counter_lock:
                    self._failovers += 1
                last_error = error
                continue
            if replica.state != STATE_UP:
                # A marked-down replica answered: passive recovery.
                replica.mark_up()
            return result
        raise WireError(
            503,
            f"shard {group.describe_range(len(self._directory))} "
            f"unavailable: no replica answered ({last_error})",
        )

    def _fan_out(
        self, requests: Sequence[Tuple]
    ) -> List[Dict[str, Any]]:
        """Run ``(group, method, path, params, payload)`` RPCs in
        parallel; raises (preferring a worker refusal over a shard
        outage) unless every group answered -- a partial merge is
        never returned."""
        with self._counter_lock:
            self._fan_outs += 1
        if len(requests) == 1:
            return [self._call_group(*requests[0])]
        futures = [
            self._fanout_pool.submit(self._call_group, *request)
            for request in requests
        ]
        results: List[Dict[str, Any]] = []
        errors: List[BaseException] = []
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as error:
                errors.append(error)
        if errors:
            for error in errors:
                if (
                    isinstance(error, WireError)
                    and 400 <= error.status < 500
                ):
                    raise error
            raise errors[0]
        return results

    def _owner_group(self, label: Any) -> ShardGroup:
        return self._membership.group_for(
            self._directory.id_of(label), len(self._directory)
        )

    def _ask_owner(
        self, label: Any, path: str, params: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One GET to the group owning *label*'s sketch."""
        return self._call_group(
            self._owner_group(label), "GET", path, params
        )

    def _group_rows(
        self, path: str, params: Dict[str, str]
    ) -> List[List[List[Any]]]:
        """Fan a GET to every group; their row lists, in shard order."""
        return [
            payload["results"]
            for payload in self._fan_out([
                (group, "GET", path, params, None)
                for group in self._groups
            ])
        ]

    def _gather(
        self, path: str, params: Dict[str, str]
    ) -> List[List[Any]]:
        """A sweep: every group's rows concatenated in shard order
        (global node-id order by construction)."""
        return [
            row for rows in self._group_rows(path, params) for row in rows
        ]

    def _scatter(
        self,
        path: str,
        key: str,
        items: Sequence[Any],
        owners: Sequence[Any],
        fields: Dict[str, Any],
    ) -> List[Any]:
        """Batch POST: split *items* by the group owning each one's
        *owners* label, send every group its share as body field *key*
        beside the request's other *fields*, and return the values --
        the last column of the workers' rows -- in request order.  A
        node batch is owned label by label; a pair goes to its *first*
        node's group (every worker holds the full index, so any worker
        answers any pair value-for-value identically -- routing by
        first endpoint just spreads the work)."""
        positions_of: Dict[ShardGroup, List[int]] = {}
        for position, owner in enumerate(owners):
            positions_of.setdefault(
                self._owner_group(owner), []
            ).append(position)
        responses = self._fan_out([
            (
                group, "POST", path, None,
                {**fields, key: [items[p] for p in positions]},
            )
            for group, positions in positions_of.items()
        ])
        values: List[Any] = [None] * len(items)
        for positions, payload in zip(positions_of.values(), responses):
            for position, row in zip(positions, payload["results"]):
                values[position] = row[-1]
        return values

    # ------------------------------------------------------------------
    # Liveness and counters
    # ------------------------------------------------------------------
    def _healthz(self, params, body) -> Dict[str, Any]:
        return {
            "status": "ok",
            "nodes": len(self._directory),
            "saturation": round(self._saturation(), 6),
        }

    def _stats(self, params, body) -> Dict[str, Any]:
        with self._counter_lock:
            requests, internal = self._requests, self._internal_errors
            updates = self._updates_applied
            fan_outs, failovers = self._fan_outs, self._failovers
            resyncs = self._resyncs
        index_stats, pending = self._probe_index_stats()
        return {
            "requests": requests,
            "internal_errors": internal,
            "uptime_seconds": time.monotonic() - self.started_at,
            "transport": self._transport_stats(),
            "cache": self.cache.stats(),
            "updates": {
                "writable": self.writable,
                "applied_batches": updates,
                "pending_batches": pending,
            },
            "index": index_stats,
            "cluster": {
                "groups": self._membership.snapshot(
                    len(self._directory)
                ),
                "rpc": {
                    "wire": self.rpc_wire,
                    "timeout_seconds": self.rpc_timeout,
                    "probe_interval": self.probe_interval,
                    "resync_interval": self.resync_interval,
                    "fan_outs": fan_outs,
                    "failovers": failovers,
                    "resyncs": resyncs,
                },
            },
        }

    def _probe_index_stats(self) -> Tuple[Dict[str, Any], int]:
        """Index metadata passthrough from group 0 (every worker holds
        the full index, so its totals are the cluster's); degraded
        shape rather than an error when no replica answers."""
        try:
            stats = self._call_group(self._groups[0], "GET", "/stats")
        except WireError as error:
            return (
                {"nodes": len(self._directory),
                 "unavailable": error.message},
                0,
            )
        index_stats = dict(stats.get("index") or {})
        # One worker's sweep range must not masquerade as the
        # cluster's; per-replica served ranges (and labels digests)
        # are surfaced under cluster.groups[*].replicas instead.
        index_stats.pop("node_range", None)
        pending = stats.get("updates", {}).get("pending_batches", 0)
        return index_stats, pending

    # ------------------------------------------------------------------
    # Fetches: the sketches live on the workers.  ServerBase has the
    # handlers that call these; the module docstring, why each is exact.
    # ------------------------------------------------------------------
    def _fetch_node_cardinality(self, label, d, params):
        return self._ask_owner(label, "/cardinality", params)["value"]

    def _fetch_node_closeness(self, label, kwargs, params):
        return self._ask_owner(label, "/closeness", params)["value"]

    def _fetch_node_series(self, label, params):
        return self._ask_owner(label, "/neighborhood", params)["series"]

    def _fetch_node_summary(self, label) -> Dict[str, Any]:
        summary = self._ask_owner(
            label, f"/node/{quote(str(label), safe='')}"
        )
        del summary["node"]  # the shared handler leads with its own
        return summary

    def _fetch_batch_cardinality(self, labels, d):
        return self._scatter("/cardinality", "nodes", labels, labels, {"d": d})

    def _fetch_batch_closeness(self, labels, kwargs, kind_params):
        return self._scatter(
            "/closeness", "nodes", labels, labels, kind_params
        )

    def _fetch_sweep_cardinality(self, d, params):
        return self._gather("/cardinality", params)

    def _fetch_sweep_closeness(self, kwargs, params):
        return self._gather("/closeness", params)

    def _fetch_top_central(self, count, largest, kwargs, params):
        return merge_top_central(
            self._group_rows("/top-central", params), count, largest=largest
        )

    def _fetch_anf_series(self) -> List[List[float]]:
        """Seeded accumulation through the groups in shard order, then
        one prefix sum: the single-index float-op sequence, replayed."""
        jumps: List[List[float]] = []
        for group in self._groups:
            jumps = self._call_group(
                group, "POST", "/nf-chain", payload={"seed": jumps}
            )["jumps"]
        series: List[List[float]] = []
        running = 0.0
        for distance, weight in jumps:
            running += weight
            series.append([distance, running])
        return series

    def _fetch_pair_values(self, path, pairs, fields):
        values = self._scatter(
            path, "pairs", pairs, [u for u, _ in pairs], fields
        )
        # A worker's wire row carries an unreachable distance as null;
        # hand back the estimate itself, as a local index would.
        return [math.inf if value is None else value for value in values]

    def _fetch_similar(self, label, count, d, params):
        return merge_top_central(
            self._group_rows(
                f"/similar/{quote(str(label), safe='')}", params
            ),
            count, largest=True,
        )

    # ------------------------------------------------------------------
    # Write endpoints (two-phase, under the router's exclusive lock)
    # ------------------------------------------------------------------
    def _require_writable(self) -> None:
        if not self.writable:
            raise conflict(
                "cluster is read-only: start the router with --writable "
                "(and the workers with their graphs) to accept updates"
            )

    def _require_full_membership(self, action: str) -> None:
        """Writes need every non-stale replica reachable: a replica
        that misses a batch diverges permanently (it would be
        quarantined), so refusing up front is the cheaper failure."""
        for group in self._groups:
            # Down replicas block writes; stale ones are already
            # quarantined out of the cluster and don't count.
            absent = [
                r for r in group.replicas if r.state == STATE_DOWN
            ]
            if absent:
                raise WireError(
                    503,
                    f"cluster {action} requires full membership; shard "
                    f"{group.describe_range(len(self._directory))} has "
                    f"{len(absent)} unavailable replica(s)",
                )

    def _fan_write(
        self,
        path: str,
        payload: Dict[str, Any],
        action: str,
        compare_results: bool = True,
    ) -> Dict[str, Any]:
        """Apply a write to every replica of every group, in shard
        order (phase one of two -- the caller commits router state
        only after this returns).

        Failure rules:

        * The very first call fails: nothing has been applied
          anywhere, the cluster is unchanged -- propagate (worker
          refusals keep their status/message verbatim).
        * A later call fails: that replica missed a batch its peers
          committed -- quarantine it ``stale`` and continue.
        * A group ends with zero successful replicas: 500; that shard
          range lost every copy of this batch.
        """
        first_result: Optional[Dict[str, Any]] = None
        for group in self._groups:
            applied = 0
            for replica in group.replicas:
                if replica.state != STATE_UP:
                    continue
                try:
                    result = replica.call("POST", path, payload=payload)
                except ServeClientError as error:
                    if first_result is None:
                        # A refusal (>=400) propagates verbatim; a
                        # transport fault or torn 200 frame is an
                        # outage, not an answer.
                        if (
                            error.status is not None
                            and error.status >= 400
                        ):
                            raise WireError(error.status, error.message)
                        replica.mark_down(error)
                        raise WireError(
                            503,
                            f"cluster {action} failed before any apply "
                            f"({error}); cluster unchanged",
                        )
                    replica.mark_stale(f"missed {action} ({error})")
                    with self._counter_lock:
                        self._failovers += 1
                    continue
                if first_result is None:
                    first_result = result
                elif compare_results and result != first_result:
                    # Deterministic apply means identical payloads; a
                    # divergent answer is a divergent index.  (Compact
                    # replies legitimately differ -- each worker
                    # reports its own flush path -- so that fan sets
                    # compare_results=False.)
                    replica.mark_stale(
                        f"divergent {action} result"
                    )
                    continue
                applied += 1
            if applied == 0:
                raise WireError(
                    500,
                    "cluster degraded: shard "
                    f"{group.describe_range(len(self._directory))} "
                    f"lost every replica during {action}; restart its "
                    "workers from a compacted index",
                )
        assert first_result is not None
        return first_result

    def _apply_update(self, edges) -> Dict[str, Any]:
        self._require_full_membership("update")
        result = self._fan_write(
            "/update",
            {"edges": [list(edge) for edge in edges]},
            "update",
        )
        # Phase two: every replica holds the batch -- commit the
        # router's view.  New labels intern exactly as CSRGraph
        # interns them (first occurrence, u before v, edge order), so
        # directory ids keep matching worker node ids.
        for edge in edges:
            self._directory.append(edge[0])
            self._directory.append(edge[1])
        return result

    def _compact(self, params, body) -> Dict[str, Any]:
        self._require_writable()
        if body and "path" in body:
            raise bad_request(
                "compact always flushes to the server's own index path; "
                "a client-writable destination is not accepted"
            )
        self._require_full_membership("compact")
        # Every worker flushes to its *own* index path; the first
        # group's first replica speaks for the cluster in the reply.
        return self._fan_write(
            "/compact", {}, "compact", compare_results=False
        )

    # ------------------------------------------------------------------
    # Stale-replica resync (self-healing)
    # ------------------------------------------------------------------
    def start_resync(self, interval: float) -> None:
        """Run :meth:`resync_stale` about every *interval* seconds on a
        daemon thread (``interval <= 0`` disables the loop)."""
        if interval <= 0 or self._resync_thread is not None:
            return

        def loop() -> None:
            while not self._resync_stop.wait(interval):
                try:
                    self.resync_stale()
                except Exception:  # pragma: no cover - defensive
                    pass

        self._resync_thread = threading.Thread(
            target=loop, name="repro-route-resync", daemon=True
        )
        self._resync_thread.start()

    def resync_stale(self) -> List[Dict[str, Any]]:
        """One self-healing sweep: re-seed every stale replica from a
        healthy donor and re-admit it only after a digest check.

        Each replica's resync runs under the router's exclusive write
        lock, so no update batch can land between the donor snapshot
        and the digest verdict -- the comparison is race-free by
        construction (the same lock ``POST /update`` holds).  A failed
        resync puts the replica back in ``stale`` for the next sweep.
        Returns one outcome dict per replica attempted.
        """
        outcomes: List[Dict[str, Any]] = []
        for group in self._groups:
            for replica in group.replicas:
                # Atomic stale -> syncing claim; concurrent sweeps
                # can never both work on the same replica.
                if not replica.begin_resync():
                    continue
                with self._rw_lock.write_locked():
                    outcomes.append(self._resync_replica(group, replica))
        return outcomes

    def _find_donor(
        self, group: ShardGroup, replica: Replica
    ) -> Optional[Replica]:
        """A healthy replica to snapshot from: same-group peers first,
        then any up replica -- every worker holds the full index, so
        any of them is a valid donor."""
        for peer in group.replicas:
            if peer is not replica and peer.state == STATE_UP:
                return peer
        for other in self._groups:
            for peer in other.replicas:
                if peer is not replica and peer.state == STATE_UP:
                    return peer
        return None

    def _resync_replica(
        self, group: ShardGroup, replica: Replica
    ) -> Dict[str, Any]:
        outcome: Dict[str, Any] = {"url": replica.url, "resynced": False}
        donor = self._find_donor(group, replica)
        if donor is None:
            replica.mark_stale("resync: no healthy donor replica")
            outcome["error"] = "no healthy donor replica"
            return outcome
        outcome["donor"] = donor.url
        try:
            snapshot = donor.call("GET", "/sync/snapshot")
            installed = replica.call(
                "POST", "/sync/install",
                payload={
                    "index_b64": snapshot["index_b64"],
                    "edges": snapshot["edges"],
                    "directed": snapshot["directed"],
                    "seq": snapshot.get("seq", 0),
                    "digest": snapshot.get("digest"),
                },
            )
        except (ServeClientError, KeyError, TypeError) as error:
            replica.mark_stale(f"resync failed ({error})")
            outcome["error"] = str(error)
            return outcome
        digest = snapshot.get("digest")
        if not digest or installed.get("digest") != digest:
            replica.mark_stale(
                f"resync digest mismatch (donor {digest!r}, installed "
                f"{installed.get('digest')!r})"
            )
            outcome["error"] = "digest mismatch"
            return outcome
        replica.mark_synced()
        self._refresh_replica_topology(replica)
        with self._counter_lock:
            self._resyncs += 1
        outcome.update({"resynced": True, "digest": digest})
        return outcome

    def _refresh_replica_topology(self, replica: Replica) -> None:
        """Best-effort refresh of the observed range/digest a resync
        (or recovery) may have changed -- keeps ``/stats`` honest."""
        try:
            stats = replica.call("GET", "/stats")
        except Exception:
            return
        replica.observe_topology(stats.get("index") or {})


__all__ = [
    "ClusterTopologyError",
    "LabelDirectory",
    "RouterServer",
    "merge_top_central",
]
