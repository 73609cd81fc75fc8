"""Fault injection against the cluster router.

The contract under test (ISSUE 8): when replicas fail, the router
**degrades or sheds, never lies and never hangs** --

* a replica lost mid-batch fails over to a survivor and the response
  stays bit-identical to the single-index answer;
* losing every replica of a shard is a *structured* 503 naming the
  unavailable node range, returned promptly (bounded by connect
  failure or ``rpc_timeout``, not a hang);
* a hung worker costs at most ``rpc_timeout``;
* a truncated wire frame -- a well-formed HTTP 200 carrying a torn
  binary payload -- is detected at decode, treated as an outage, and
  failed over exactly like a crash;
* health probes bring recovered replicas back (``down -> up``), but
  never revive a replica that missed a committed update batch
  (``stale`` is terminal quarantine);
* writes refuse up front (503) unless every non-stale replica is
  reachable, so a partial apply can't silently fork the cluster.

Faults are injected through :class:`cluster_harness.FaultProxy`, an
HTTP-aware relay, so each test controls exactly which RPC fails and
how.
"""

import time

import pytest

from cluster_harness import start_cluster
from repro.ads import AdsIndex
from repro.graph import barabasi_albert_graph, path_graph
from repro.graph.csr import CSRGraph
from repro.serve import (
    AdsServer,
    ClusterTopologyError,
    QueryClient,
    RouterServer,
    ServeClientError,
)
from repro.serve.membership import STATE_DOWN, STATE_STALE, STATE_UP


@pytest.fixture(scope="module")
def index():
    graph = barabasi_albert_graph(90, 3, seed=11).to_csr()
    return AdsIndex.build(graph, 8)


def _replica(cluster, group, position):
    return cluster.router._membership.groups[group].replicas[position]


class TestReplicaFailover:
    def test_killed_replica_fails_over_bit_identically(self, index):
        # Two replicas per shard; kill group 0's first replica, then
        # force the router to try it first.  The fan-out must land on
        # the survivor and the merged sweep must still equal the
        # single-index floats exactly.
        with start_cluster(
            index, workers=2, replicas=2, proxy=True, cache_size=0,
            rpc_timeout=5.0,
        ) as cluster:
            cluster.proxies[0].kill()
            cluster.router.reset_round_robin()
            with cluster.client() as client:
                response = client.cardinality(d=2.0)
            assert dict(
                (label, value) for label, value in response["results"]
            ) == index.cardinality_at(2.0)
            assert _replica(cluster, 0, 0).state == STATE_DOWN
            with cluster.client() as client:
                stats = client.stats()
            assert stats["cluster"]["rpc"]["failovers"] >= 1

    def test_connection_dropped_mid_request_fails_over(self, index):
        # kill_next closes the socket while the RPC is in flight --
        # the router sees a torn connection, not a refused connect.
        with start_cluster(
            index, workers=2, replicas=2, proxy=True, cache_size=0,
            rpc_timeout=5.0,
        ) as cluster:
            cluster.proxies[0].mode = "kill_next"
            cluster.router.reset_round_robin()
            with cluster.client() as client:
                response = client.closeness(kind="classic")
            assert dict(
                (label, value) for label, value in response["results"]
            ) == index.closeness_centrality(classic=True)

    def test_truncated_wire_frame_is_failover_not_garbage(self, index):
        # The proxy answers 200 OK with the body cut to 10 bytes and a
        # matching Content-Length: HTTP framing is valid, the binary
        # payload is torn.  The router must detect it at decode, mark
        # the replica down, and serve the survivor's exact answer.
        with start_cluster(
            index, workers=2, replicas=2, proxy=True, cache_size=0,
            rpc_timeout=5.0,
        ) as cluster:
            cluster.proxies[0].mode = "truncate:10"
            cluster.router.reset_round_robin()
            with cluster.client() as client:
                response = client.cardinality(d=3.0)
            assert dict(
                (label, value) for label, value in response["results"]
            ) == index.cardinality_at(3.0)
            assert _replica(cluster, 0, 0).state == STATE_DOWN

    def test_hung_worker_costs_at_most_rpc_timeout(self, index):
        # blackhole reads the request and never answers.  Only the
        # router's rpc_timeout bounds the stall; the survivor then
        # answers and the client never sees the fault.
        with start_cluster(
            index, workers=2, replicas=2, proxy=True, cache_size=0,
            rpc_timeout=1.0,
        ) as cluster:
            cluster.proxies[0].mode = "blackhole"
            cluster.router.reset_round_robin()
            started = time.monotonic()
            with cluster.client() as client:
                response = client.cardinality(d=2.0)
            elapsed = time.monotonic() - started
            assert dict(
                (label, value) for label, value in response["results"]
            ) == index.cardinality_at(2.0)
            assert elapsed < 5.0
            assert _replica(cluster, 0, 0).state == STATE_DOWN


class TestShardOutage:
    def test_only_owner_killed_is_structured_503_not_hang(self, index):
        # One replica per shard: killing group 0's worker makes nodes
        # [0, 45) unservable.  The router must shed with a 503 that
        # names the range -- promptly, and without poisoning queries
        # that only touch the surviving shard.
        with start_cluster(
            index, workers=2, replicas=1, proxy=True, cache_size=0,
            rpc_timeout=2.0,
        ) as cluster:
            cluster.proxies[0].kill()
            started = time.monotonic()
            with cluster.client() as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.cardinality(d=2.0)
                assert excinfo.value.status == 503
                assert "shard [0, 45) unavailable" in str(excinfo.value)
                assert time.monotonic() - started < 10.0
                # The surviving shard still answers single-node hits.
                assert client.cardinality(node=80, d=2.0)[
                    "value"
                ] == index.node_cardinality_at(80, 2.0)

    def test_sweep_never_returns_a_partial_merge(self, index):
        # A dead shard mid-fan-out must never yield a "sweep" missing
        # 45 nodes: it's the full merge or a 503.
        with start_cluster(
            index, workers=3, replicas=1, proxy=True, cache_size=0,
            rpc_timeout=2.0,
        ) as cluster:
            cluster.proxies[1].kill()
            with cluster.client() as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.closeness()
                assert excinfo.value.status == 503
                with pytest.raises(ServeClientError):
                    client.neighborhood()
                with pytest.raises(ServeClientError):
                    client.top_central(count=5)


class TestRecovery:
    def test_probe_marks_recovered_replica_back_up(self, index):
        with start_cluster(
            index, workers=1, replicas=2, proxy=True, cache_size=0,
            rpc_timeout=1.0,
        ) as cluster:
            cluster.proxies[0].mode = "refuse"
            cluster.router.reset_round_robin()
            with cluster.client() as client:
                client.cardinality(d=2.0)  # trips the mark-down
            assert _replica(cluster, 0, 0).state == STATE_DOWN
            cluster.proxies[0].mode = "pass"
            cluster.router._membership.probe_all()
            assert _replica(cluster, 0, 0).state == STATE_UP

    def test_down_replica_serves_as_last_resort(self, index):
        # Both replicas marked down (e.g. a probe blip): the router
        # must still *try* them rather than shed -- a down mark is a
        # hint, not a verdict.
        with start_cluster(
            index, workers=1, replicas=2, proxy=True, cache_size=0,
        ) as cluster:
            _replica(cluster, 0, 0).mark_down("probe blip")
            _replica(cluster, 0, 1).mark_down("probe blip")
            with cluster.client() as client:
                response = client.cardinality(d=2.0)
            assert dict(
                (label, value) for label, value in response["results"]
            ) == index.cardinality_at(2.0)
            # Answering marked it back up (passive recovery).
            states = {
                _replica(cluster, 0, p).state for p in (0, 1)
            }
            assert STATE_UP in states


def _chain_graph(n):
    return CSRGraph.from_edges(
        [(i, i + 1) for i in range(n - 1)], nodes=range(n)
    )


class TestWriteFaults:
    def test_update_refuses_without_full_membership(self, tmp_path):
        graph = _chain_graph(24)
        index = AdsIndex.build(graph, 4)
        with start_cluster(
            index, workers=2, replicas=1, graph=graph,
            tmp_path=tmp_path, proxy=True, cache_size=0,
            rpc_timeout=2.0,
        ) as cluster:
            cluster.proxies[1].mode = "refuse"
            with cluster.client() as client:
                # A read against the broken shard marks it down...
                with pytest.raises(ServeClientError):
                    client.cardinality(node=20, d=1.0)
                # ...and the write then refuses up front: nothing was
                # applied anywhere, the cluster state is untouched.
                with pytest.raises(ServeClientError) as excinfo:
                    client.update([[0, 23]])
                assert excinfo.value.status == 503
                assert "full membership" in str(excinfo.value)
                assert "[12, 24)" in str(excinfo.value)
                # Heal the shard: the same batch applies cleanly.
                cluster.proxies[1].mode = "pass"
                cluster.router._membership.probe_all()
                result = client.update([[0, 23]])
                assert result["applied_arcs"] == 2

    def test_replica_missing_a_batch_is_quarantined_stale(
        self, tmp_path
    ):
        graph = _chain_graph(24)
        index = AdsIndex.build(graph, 4)
        with start_cluster(
            index, workers=1, replicas=2, graph=graph,
            tmp_path=tmp_path, proxy=True, cache_size=0,
            rpc_timeout=2.0,
        ) as cluster:
            with cluster.client() as client:
                client.update([[0, 23]])
                # Replica 1 dies between the precheck and its apply:
                # its peers commit the batch, it doesn't.
                cluster.proxies[1].mode = "refuse"
                client.update([[0, 12]])
            assert _replica(cluster, 0, 1).state == STATE_STALE
            # Recovery does NOT revive it: its index content diverged.
            cluster.proxies[1].mode = "pass"
            cluster.router._membership.probe_all()
            assert _replica(cluster, 0, 1).state == STATE_STALE
            # Reads keep flowing from the converged replica, and its
            # answers reflect both batches.
            with cluster.client() as client:
                value = client.cardinality(node=0, d=1.0)["value"]
            assert value == cluster.index.node_cardinality_at(0, 1.0)
            snapshot = cluster.router._membership.snapshot(24)
            states = [
                replica["state"]
                for replica in snapshot[0]["replicas"]
            ]
            assert states.count(STATE_STALE) == 1

    def test_read_only_cluster_refuses_writes_with_409(self, index):
        with start_cluster(index, workers=2) as cluster:
            with cluster.client() as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.update([[0, 1]])
                assert excinfo.value.status == 409


class TestDurableWorkers:
    def test_killed_worker_replays_its_wal_to_byte_identity(
        self, tmp_path
    ):
        # The cluster-level durability contract: a worker SIGKILL'd
        # after acknowledging update batches (it never compacted, so
        # its flushed index is still the seed) restarts with its WAL
        # and recovers the exact pre-crash index.
        graph = _chain_graph(24)
        index = AdsIndex.build(graph, 4)
        with start_cluster(
            index, workers=1, replicas=1, graph=graph,
            tmp_path=tmp_path, proxy=True, cache_size=0,
            rpc_timeout=2.0, wal=True,
        ) as cluster:
            with cluster.client() as client:
                client.update([[0, 23]])
                client.update([[0, 12], [5, 40]])
            victim = cluster.workers[0]
            assert victim.wal.pending_records == 2
            digest_before = victim.index.content_digest()
            # Kill: drop the sockets; nothing gets flushed.
            cluster.proxies[0].kill()
            victim.shutdown()

            from cluster_harness import clone_graph

            restarted = AdsServer(
                AdsIndex.load(tmp_path / "cluster-seed.adsidx"),
                graph=clone_graph(graph),
                index_path=victim.index_path,
                wal_dir=tmp_path / "wal-g0r0",
            )
            assert restarted.wal_replayed == 2
            assert restarted.index.content_digest() == digest_before
            restarted.wal.close()


def _make_stale(cluster, batches=((0, 23), (0, 12))):
    """Apply *batches*, dropping group 0 / replica 1 mid-sequence so it
    misses the last one and lands in stale quarantine."""
    with cluster.client() as client:
        for position, batch in enumerate(batches):
            if position == len(batches) - 1:
                cluster.proxies[1].mode = "refuse"
            client.update([list(batch)])
    assert _replica(cluster, 0, 1).state == STATE_STALE
    cluster.proxies[1].mode = "pass"  # the worker is healthy again


class TestResync:
    def test_stale_replica_is_resynced_and_readmitted(self, tmp_path):
        # The self-healing path: a replica that missed a committed
        # batch (terminal quarantine for the prober) is re-seeded from
        # its healthy peer, digest-verified, and only then re-admitted.
        graph = _chain_graph(24)
        index = AdsIndex.build(graph, 4)
        with start_cluster(
            index, workers=1, replicas=2, graph=graph,
            tmp_path=tmp_path, proxy=True, cache_size=0,
            rpc_timeout=2.0,
        ) as cluster:
            _make_stale(cluster)
            outcomes = cluster.router.resync_stale()
            assert len(outcomes) == 1
            assert outcomes[0]["resynced"] is True
            assert outcomes[0]["donor"] == cluster.proxies[0].url
            assert _replica(cluster, 0, 1).state == STATE_UP
            # Content convergence, not just a status flip: the healed
            # replica's index is bit-identical to its donor's...
            assert (
                cluster.workers[1].index.content_digest()
                == cluster.workers[0].index.content_digest()
            )
            # ...its flushed layout on disk matches too...
            flushed = AdsIndex.load(cluster.workers[1].index_path)
            assert (
                flushed.content_digest()
                == cluster.workers[0].index.content_digest()
            )
            # ...and it answers queries with both batches applied.
            with QueryClient(cluster.workers[1].url) as direct:
                value = direct.cardinality(node=0, d=1.0)["value"]
            assert value == cluster.index.node_cardinality_at(0, 1.0)
            # A subsequent write fans out to the healed replica again.
            with cluster.client() as client:
                client.update([[1, 13]])
                stats = client.stats()
            assert (
                cluster.workers[1].index.content_digest()
                == cluster.workers[0].index.content_digest()
            )
            assert stats["cluster"]["rpc"]["resyncs"] == 1

    def test_resync_without_donor_leaves_replica_stale(self, tmp_path):
        graph = _chain_graph(24)
        index = AdsIndex.build(graph, 4)
        with start_cluster(
            index, workers=1, replicas=2, graph=graph,
            tmp_path=tmp_path, proxy=True, cache_size=0,
            rpc_timeout=2.0,
        ) as cluster:
            _make_stale(cluster)
            _replica(cluster, 0, 0).mark_down("outage")
            outcomes = cluster.router.resync_stale()
            assert outcomes[0]["resynced"] is False
            assert "donor" not in outcomes[0]
            # Back to stale -- the next sweep retries; never silently
            # re-admitted without a verified install.
            assert _replica(cluster, 0, 1).state == STATE_STALE

    def test_resync_failure_puts_replica_back_in_quarantine(
        self, tmp_path
    ):
        graph = _chain_graph(24)
        index = AdsIndex.build(graph, 4)
        with start_cluster(
            index, workers=1, replicas=2, graph=graph,
            tmp_path=tmp_path, proxy=True, cache_size=0,
            rpc_timeout=2.0,
        ) as cluster:
            _make_stale(cluster)
            # The install RPC dies mid-flight this time.
            cluster.proxies[1].mode = "refuse"
            outcomes = cluster.router.resync_stale()
            assert outcomes[0]["resynced"] is False
            assert _replica(cluster, 0, 1).state == STATE_STALE
            # Healed for real: the next sweep succeeds.
            cluster.proxies[1].mode = "pass"
            assert cluster.router.resync_stale()[0]["resynced"] is True
            assert _replica(cluster, 0, 1).state == STATE_UP

    def test_background_loop_heals_without_operator(self, tmp_path):
        graph = _chain_graph(24)
        index = AdsIndex.build(graph, 4)
        with start_cluster(
            index, workers=1, replicas=2, graph=graph,
            tmp_path=tmp_path, proxy=True, cache_size=0,
            rpc_timeout=2.0, resync_interval=0.1,
        ) as cluster:
            _make_stale(cluster)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if _replica(cluster, 0, 1).state == STATE_UP:
                    break
                time.sleep(0.05)
            assert _replica(cluster, 0, 1).state == STATE_UP
            assert (
                cluster.workers[1].index.content_digest()
                == cluster.workers[0].index.content_digest()
            )


class TestTopologyValidation:
    def _worker(self, index, node_range=None):
        return AdsServer(index, node_range=node_range).start()

    def test_misranged_worker_is_refused_at_construction(self, index):
        # Workers split at 45, but the router is told the split is at
        # 40: every sweep would silently double-count [40, 45) and the
        # merge would still *look* plausible.  Constructing the router
        # must fail fast instead.
        w0 = self._worker(index, (0, 45))
        w1 = self._worker(index, (45, None))
        try:
            with pytest.raises(ClusterTopologyError) as excinfo:
                RouterServer(
                    index.nodes(),
                    [((0, 40), [w0.url]), ((40, None), [w1.url])],
                )
            message = str(excinfo.value)
            assert "serves node range [0, 45)" in message
            assert "declared as shard [0, 40)" in message
            # Both workers are mis-declared; both problems are listed.
            assert "serves node range [45, 90)" in message
        finally:
            w0.shutdown()
            w1.shutdown()

    def test_full_index_worker_overlapping_shards_is_refused(
        self, index
    ):
        # A worker started without --cluster sweeps every node; behind
        # a multi-group router it would overlap the other shard.
        full = self._worker(index)
        w1 = self._worker(index, (45, None))
        try:
            with pytest.raises(ClusterTopologyError) as excinfo:
                RouterServer(
                    index.nodes(),
                    [((0, 45), [full.url]), ((45, None), [w1.url])],
                )
            assert "not started as a shard worker" in str(excinfo.value)
        finally:
            full.shutdown()
            w1.shutdown()

    def test_worker_serving_a_different_index_is_refused(self, index):
        other = AdsIndex.build(path_graph(30).to_csr(), 4)
        impostor = self._worker(other)
        try:
            with pytest.raises(ClusterTopologyError) as excinfo:
                RouterServer(
                    index.nodes(), [((0, None), [impostor.url])]
                )
            assert "different node set" in str(excinfo.value)
        finally:
            impostor.shutdown()

    def test_full_index_worker_as_single_group_is_fine(self, index):
        # The degenerate one-group cluster: a full-index worker covers
        # exactly the declared range, so validation passes.
        worker = self._worker(index)
        try:
            router = RouterServer(
                index.nodes(), [((0, None), [worker.url])]
            )
            router.close()
        finally:
            worker.shutdown()

    def test_unreachable_worker_is_an_outage_not_a_misconfig(
        self, index
    ):
        # Validation distinguishes "can't reach it" (failover's
        # problem: mark down, construct anyway) from "reached it and
        # it's wrong" (refuse).
        w0 = self._worker(index, (0, 45))
        try:
            router = RouterServer(
                index.nodes(),
                [
                    ((0, 45), [w0.url]),
                    ((45, None), ["http://127.0.0.1:9"]),
                ],
            )
            try:
                replica = router._membership.groups[1].replicas[0]
                assert replica.state == STATE_DOWN
            finally:
                router.close()
        finally:
            w0.shutdown()

    def test_validation_can_be_disabled(self, index):
        w0 = self._worker(index, (0, 45))
        w1 = self._worker(index, (45, None))
        try:
            router = RouterServer(
                index.nodes(),
                [((0, 40), [w0.url]), ((40, None), [w1.url])],
                validate_topology=False,
            )
            router.close()
        finally:
            w0.shutdown()
            w1.shutdown()

    def test_router_stats_surface_each_workers_served_range(
        self, index
    ):
        # The silent-misrange fix: /stats names what every replica
        # *actually* serves, so an operator can audit the tiling.
        with start_cluster(index, workers=2) as cluster:
            with cluster.client() as client:
                stats = client.stats()
            groups = stats["cluster"]["groups"]
            ranges = [
                replica["node_range"]
                for group in groups
                for replica in group["replicas"]
            ]
            # The last worker is open-ended (it also owns nodes later
            # appended by updates), reported as a null stop.
            assert ranges == [[0, 45], [45, None]]
            digests = {
                replica["labels_digest"]
                for group in groups
                for replica in group["replicas"]
            }
            assert len(digests) == 1 and None not in digests
            # One worker's range must not masquerade as the cluster's.
            assert "node_range" not in stats["index"]
