"""Serve-layer write paths: /update and /compact semantics.

The serving contract for a writable daemon: updates apply atomically
behind the writer lock (queries racing an update always see a
consistent index, before or after, never mid-splice), every applied
batch invalidates the whole-graph result cache, and read-only
deployments -- mmap-backed indexes, servers without a graph -- refuse
writes with a clear 409.
"""

import threading
import time

import pytest

from repro.ads import AdsIndex
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.serve import AdsServer, QueryClient, ReadWriteLock, \
    ServeClientError


def _chain_graph(n):
    return CSRGraph.from_edges(
        [(i, i + 1) for i in range(n - 1)], nodes=range(n)
    )


@pytest.fixture(params=["threaded", "async", "cluster"])
def writable_server(tmp_path, request):
    # Write semantics must hold on every deployment flavor: inline on
    # the event loop ("async") and on the chassis's thread executor
    # ("threaded", where readers really race the writer for the lock)
    # the same handle_request takes the same writer lock, and the
    # cluster router's two-phase fan-out must be observationally
    # identical to a single writable server.
    from cluster_harness import SINGLE_SERVER_FLAVORS, start_cluster

    graph = _chain_graph(24)
    index = AdsIndex.build(graph, 4)
    path = tmp_path / "ix.adsidx"
    index.save(path)
    if request.param == "cluster":
        with start_cluster(
            index, workers=2, graph=graph, tmp_path=tmp_path,
            cache_size=64,
        ) as cluster:
            yield cluster
        return
    with SINGLE_SERVER_FLAVORS[request.param](
        index, graph=graph, index_path=path, cache_size=64
    ) as server:
        yield server


class TestUpdateEndpoint:
    def test_update_applies_and_reports(self, writable_server):
        with QueryClient(writable_server.url) as client:
            before = client.cardinality(node=0, d=1.0)["value"]
            result = client.update([[0, 23], [5, 50, 2.0]])
            assert result["applied_arcs"] == 4
            assert result["new_nodes"] == 1
            assert result["nodes"] == 25
            assert client.cardinality(node=0, d=1.0)["value"] == before + 1
            assert client.node(50)["sketch_size"] >= 1

    def test_update_invalidates_whole_graph_cache(self, writable_server):
        with QueryClient(writable_server.url) as client:
            client.neighborhood()
            assert client.neighborhood()["cached"] is True
            stale = client.neighborhood()["series"]
            client.update([[0, 23]])
            fresh = client.neighborhood()
            assert fresh["cached"] is False
            assert fresh["series"] != stale
            stats = client.stats()
            assert stats["updates"]["applied_batches"] == 1
            assert stats["updates"]["writable"] is True

    def test_update_under_concurrent_readers(self, writable_server):
        """Readers hammering the index while batches apply never see an
        inconsistent index (a torn splice would 500 or crash)."""
        stop = threading.Event()
        failures = []

        def read_loop():
            with QueryClient(writable_server.url) as client:
                while not stop.is_set():
                    try:
                        payload = client.cardinality(d=2.0)
                        assert payload["results"]
                        client.closeness(kind="harmonic")
                    except Exception as error:  # noqa: BLE001
                        failures.append(error)
                        return

        readers = [threading.Thread(target=read_loop) for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            with QueryClient(writable_server.url) as writer:
                for i in range(10):
                    writer.update([[i, i + 30]])
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
        assert not failures
        index = writable_server.index
        assert index.num_nodes == 24 + 10
        # The served index still equals a from-scratch rebuild.
        graph = writable_server.graph
        fresh = CSRGraph.from_edges(
            list(graph.edges()), directed=graph.directed,
            nodes=graph.nodes(),
        )
        rebuilt = AdsIndex.build(fresh, 4)
        assert index.cardinality_at() == rebuilt.cardinality_at()

    def test_malformed_update_bodies(self, writable_server):
        with QueryClient(writable_server.url) as client:
            for edges, message in [
                ([], "must not be empty"),
                ([[1, 1]], "self-loop"),
                ([[1]], "each edge"),
                ([[1, 2, -3.0]], "positive"),
                ([[1, 2, "x"]], "number"),
                ([[None, 2]], "invalid node"),
            ]:
                with pytest.raises(ServeClientError) as excinfo:
                    client.update(edges)
                assert excinfo.value.status == 400
                assert message in str(excinfo.value)


class TestCompactEndpoint:
    def test_compact_flushes_to_index_path(self, writable_server):
        with QueryClient(writable_server.url) as client:
            client.update([[0, 23]])
            info = client.compact()
            assert info["flushed_batches"] == 1
        reloaded = AdsIndex.load(writable_server.index_path)
        assert reloaded.num_nodes == writable_server.index.num_nodes
        assert (
            reloaded.cardinality_at()
            == writable_server.index.cardinality_at()
        )

    def test_client_supplied_path_is_rejected(self, writable_server,
                                              tmp_path):
        """A client-chosen destination would be an arbitrary-file-write
        primitive; the server pins compaction to its own index path."""
        target = tmp_path / "evil.txt"
        with QueryClient(writable_server.url) as client:
            with pytest.raises(ServeClientError) as excinfo:
                client._request(
                    "POST", "/compact", payload={"path": str(target)}
                )
            assert excinfo.value.status == 400
            assert "index path" in str(excinfo.value)
        assert not target.exists()

    def test_compact_keeps_graph_file_in_lockstep(self, tmp_path):
        """After update + compact + restart from disk, the reloaded
        graph/index pair must keep matching a rebuild -- a stale edge
        list would silently diverge on the next update."""
        from repro.graph.io import read_edge_list, write_edge_list

        graph = _chain_graph(10)
        index = AdsIndex.build(graph, 4)
        index_path = tmp_path / "ix.adsidx"
        graph_path = tmp_path / "g.txt"
        index.save(index_path)
        write_edge_list(graph, graph_path, all_nodes=True)
        with AdsServer(
            index, graph=graph, index_path=index_path,
            graph_path=graph_path,
        ) as server:
            with QueryClient(server.url) as client:
                client.update([[0, 9]])
                info = client.compact()
                assert info["graph_path"] == str(graph_path)
        # restart: reload both from disk, apply another batch
        graph2 = read_edge_list(graph_path, node_type=int).to_csr()
        index2 = AdsIndex.load(index_path)
        assert graph2.nodes() == index2.nodes()
        assert graph2.has_edge(0, 9)  # the applied batch survived
        index2.apply_edges(graph2, [(3, 8)])
        fresh = CSRGraph.from_edges(
            list(graph2.edges()), nodes=graph2.nodes()
        )
        assert index2.cardinality_at() == \
            AdsIndex.build(fresh, 4).cardinality_at()

    def test_compact_without_index_path_answers_409(self):
        graph = _chain_graph(6)
        index = AdsIndex.build(graph, 2)
        with AdsServer(index, graph=graph) as server:
            with QueryClient(server.url) as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.compact()
                assert excinfo.value.status == 409


class TestReadOnlyRejection:
    def test_mmap_backed_server_answers_409(self, tmp_path):
        graph = _chain_graph(6)
        index = AdsIndex.build(graph, 2)
        path = tmp_path / "ix.adsidx"
        index.save(path)
        mapped = AdsIndex.load(path, mmap=True)
        with AdsServer(mapped, graph=graph, index_path=path) as server:
            with QueryClient(server.url) as client:
                assert client.stats()["updates"]["writable"] is False
                for call in (
                    lambda: client.update([[0, 5]]),
                    client.compact,
                ):
                    with pytest.raises(ServeClientError) as excinfo:
                        call()
                    assert excinfo.value.status == 409
                    assert "read-only" in str(excinfo.value)

    def test_graphless_server_answers_409(self, tmp_path):
        graph = _chain_graph(6)
        index = AdsIndex.build(graph, 2)
        with AdsServer(index) as server:
            with QueryClient(server.url) as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.update([[0, 5]])
                assert excinfo.value.status == 409
                assert "--graph" in str(excinfo.value)

    def test_mismatched_graph_is_rejected_at_construction(self):
        index = AdsIndex.build(_chain_graph(6), 2)
        with pytest.raises(ReproError, match="mismatch"):
            AdsServer(index, graph=_chain_graph(7))


class TestReadWriteLock:
    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        log = []
        entered = threading.Event()
        release = threading.Event()

        def writer():
            with lock.write_locked():
                entered.set()
                release.wait(timeout=5)
                log.append("write-done")

        def reader():
            entered.wait(timeout=5)
            with lock.read_locked():
                log.append("read")

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        writer_thread.start()
        reader_thread.start()
        entered.wait(timeout=5)
        assert log == []  # reader blocked behind the active writer
        release.set()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert log == ["write-done", "read"]

    def test_concurrent_readers_proceed(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    def test_waiting_writer_blocks_new_readers(self):
        # Writer preference: once a writer queues behind a reader, a
        # reader arriving later waits for the writer to run.
        lock = ReadWriteLock()
        log = []
        first_in = threading.Event()
        release_first = threading.Event()

        def first_reader():
            with lock.read_locked():
                log.append("first reader")
                first_in.set()
                release_first.wait(timeout=5)

        def writer():
            with lock.write_locked():
                log.append("writer")

        def late_reader():
            with lock.read_locked():
                log.append("late reader")

        threads = [threading.Thread(target=first_reader)]
        threads[0].start()
        assert first_in.wait(timeout=5)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        deadline = time.monotonic() + 5
        while lock._writers_waiting == 0:
            assert time.monotonic() < deadline, "writer never queued"
            time.sleep(0.001)
        threads.append(threading.Thread(target=late_reader))
        threads[2].start()
        time.sleep(0.05)
        assert log == ["first reader"]  # both still waiting
        release_first.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert log == ["first reader", "writer", "late reader"]

    def test_exception_inside_read_side_releases_it(self):
        lock = ReadWriteLock()
        with pytest.raises(ValueError):
            with lock.read_locked():
                raise ValueError("query failed")
        written = threading.Event()

        def writer():
            with lock.write_locked():
                written.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert written.wait(timeout=5), "the read side leaked"
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_shared_read_side_counts_every_thread(self):
        # read_locked() hands every caller the same object, so it must
        # hold no per-entry state: two threads inside it at once are
        # two readers, and a writer waits for both.
        lock = ReadWriteLock()
        side = lock.read_locked()
        assert lock.read_locked() is side
        inside = threading.Barrier(3, timeout=5)
        leave = [threading.Event(), threading.Event()]
        written = threading.Event()

        def reader(position):
            with side:
                inside.wait()
                leave[position].wait(timeout=5)

        def writer():
            with lock.write_locked():
                written.set()

        readers = [
            threading.Thread(target=reader, args=(i,)) for i in range(2)
        ]
        for thread in readers:
            thread.start()
        inside.wait()
        assert lock._readers == 2
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        leave[0].set()
        readers[0].join(timeout=5)
        assert not written.wait(timeout=0.05)  # one reader still inside
        assert lock._readers == 1
        leave[1].set()
        assert written.wait(timeout=5)
        for thread in readers + [writer_thread]:
            thread.join(timeout=5)
        assert not any(
            thread.is_alive() for thread in readers + [writer_thread]
        )
        assert lock._readers == 0


class TestLabelCoercion:
    def test_json_int_labels_coerce_to_str_labeled_index(self, tmp_path):
        """JSON carries numbers; a str-labeled index (edge list parsed
        without --int-nodes) must not grow phantom int nodes."""
        graph = CSRGraph.from_edges(
            [("0", "1"), ("1", "2"), ("2", "3")], nodes=["0", "1", "2", "3"]
        )
        index = AdsIndex.build(graph, 4)
        with AdsServer(index, graph=graph) as server:
            with QueryClient(server.url) as client:
                result = client.update([[0, 2]])
                assert result["new_nodes"] == 0
                assert result["applied_arcs"] == 2
                assert client.cardinality(node="0", d=1.0)["value"] == 3.0
        assert index.nodes() == ["0", "1", "2", "3"]

    def test_coerced_self_loop_is_a_400(self):
        graph = CSRGraph.from_edges([("0", "1")], nodes=["0", "1"])
        index = AdsIndex.build(graph, 2)
        with AdsServer(index, graph=graph) as server:
            with QueryClient(server.url) as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.update([["0", 0]])
                assert excinfo.value.status == 400
                assert "self-loop" in str(excinfo.value)

    def test_unconvertible_label_on_int_index_is_a_400(self):
        """Accepting 'alice' onto an int-labeled index would poison it
        with a mixed label set no edge-list file can represent."""
        graph = CSRGraph.from_edges([(0, 1)], nodes=[0, 1])
        index = AdsIndex.build(graph, 2)
        with AdsServer(index, graph=graph) as server:
            with QueryClient(server.url) as client:
                with pytest.raises(ServeClientError) as excinfo:
                    client.update([[1, "alice"]])
                assert excinfo.value.status == 400
                assert "mixed label set" in str(excinfo.value)
        assert "alice" not in index and index.num_nodes == 2


class TestAtomicBatchValidation:
    def test_invalid_edge_mid_batch_leaves_graph_untouched(self):
        """A malformed tuple must not leave earlier batch edges half
        applied: the retry would no-op them as duplicates and the index
        would silently diverge from a rebuild."""
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)], nodes=range(4))
        index = AdsIndex.build(graph, 4)
        from repro.errors import GraphError
        with pytest.raises(GraphError):
            index.apply_edges(graph, [(0, 3), (2, 2)])
        assert not graph.has_edge(0, 3)
        result = index.apply_edges(graph, [(0, 3)])
        assert result.applied_arcs == 2
        assert index.cardinality_at(1.0)[0] == 3.0
