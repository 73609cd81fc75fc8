"""Durability: the write-ahead delta log and crash recovery.

The contract under test, end to end: an acknowledged ``POST /update``
survives a crash.  That decomposes into (1) the WAL file format --
append is fsync'd, framing is checksummed, any torn tail a mid-write
crash can leave is detected and cleanly ignored; (2) crash-atomic
index/manifest writes -- a crashed ``save`` never corrupts the
previous layout; (3) server replay -- a restarted worker re-applies
pending batches and answers *byte-identically* to a twin that never
crashed, on both wire codecs, including the torn-compact window where
the index flushed but the graph did not; (4) the real thing -- a
``python -m repro serve --wal-dir`` subprocess SIGKILL'd after
acknowledged updates recovers them on restart.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from repro.ads import AdsIndex, storage
from repro.ads.wal import WalRecord, WriteAheadLog
from repro.errors import EstimatorError, ReproError
from repro.graph import write_edge_list
from repro.graph.csr import CSRGraph
from repro.serve import AdsServer, QueryClient


def _chain_graph(n):
    return CSRGraph.from_edges(
        [(i, i + 1) for i in range(n - 1)], nodes=range(n)
    )


BATCHES = [
    [(0, 9), (2, 7, 2.5)],
    [(1, 8)],
    [(3, 10), (10, 11), (4, 11, 0.5)],
]


class TestWalFormat:
    def test_append_assigns_consecutive_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert [wal.append(batch) for batch in BATCHES] == [1, 2, 3]
        assert wal.last_seq == 3
        assert wal.pending_records == 3

    def test_reopen_replays_everything_appended(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for batch in BATCHES:
            wal.append(batch)
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.pending() == [
            WalRecord(seq, [tuple(edge) for edge in batch])
            for seq, batch in enumerate(BATCHES, start=1)
        ]
        assert reopened.last_seq == 3

    def test_reset_empties_log_and_advances_base(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for batch in BATCHES:
            wal.append(batch)
        wal.reset(wal.last_seq)
        assert wal.pending() == []
        assert (wal.base_seq, wal.last_seq) == (3, 3)
        # The new base survives a reopen, and appends continue from it.
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert (reopened.base_seq, reopened.last_seq) == (3, 3)
        assert reopened.append([(0, 1)]) == 4

    def test_rollback_last_withdraws_only_the_newest(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(BATCHES[0])
        wal.append(BATCHES[1])
        wal.rollback_last()
        assert wal.last_seq == 1
        # Idempotent: only the immediately preceding append rolls back.
        wal.rollback_last()
        assert wal.last_seq == 1
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert [record.seq for record in reopened.pending()] == [1]
        assert reopened.append(BATCHES[1]) == 2

    def test_stats_reports_position(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(BATCHES[0])
        stats = wal.stats()
        assert stats["base_seq"] == 0
        assert stats["last_seq"] == 1
        assert stats["pending_records"] == 1
        assert Path(stats["path"]) == wal.path

    def test_not_a_wal_file_is_refused(self, tmp_path):
        (tmp_path / "updates.wal").write_bytes(b"definitely not a log")
        with pytest.raises(EstimatorError, match="not an ADS WAL"):
            WriteAheadLog(tmp_path)

    def test_torn_header_is_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        raw = wal.path.read_bytes()
        wal.path.write_bytes(raw[: len(raw) - 3])
        with pytest.raises(EstimatorError, match="truncated WAL header"):
            WriteAheadLog(tmp_path)


def _corrupt_truncate(raw, boundary):
    return raw[: boundary + 5]  # mid-frame: header written, payload torn


def _corrupt_checksum(raw, boundary):
    return raw[:-1] + bytes([raw[-1] ^ 0xFF])  # last payload byte flipped


def _corrupt_payload(raw, boundary):
    # A frame whose checksum is valid but whose payload is not a
    # record: framing alone must not be trusted.
    payload = b'{"seq": "nope"}'
    frame = (
        len(payload).to_bytes(4, "little")
        + zlib.crc32(payload).to_bytes(4, "little")
        + payload
    )
    return raw[:boundary] + frame


def _corrupt_sequence(raw, boundary):
    payload = json.dumps({"seq": 99, "edges": [[0, 1]]}).encode()
    frame = (
        len(payload).to_bytes(4, "little")
        + zlib.crc32(payload).to_bytes(4, "little")
        + payload
    )
    return raw[:boundary] + frame


class TestTornTail:
    @pytest.fixture
    def logged(self, tmp_path):
        """Two good records, and the offset where the third would go."""
        wal = WriteAheadLog(tmp_path)
        wal.append(BATCHES[0])
        wal.append(BATCHES[1])
        boundary = wal.path.stat().st_size
        wal.append(BATCHES[2])
        wal.close()
        return wal.path, boundary

    @pytest.mark.parametrize(
        "corrupt",
        [_corrupt_truncate, _corrupt_checksum, _corrupt_payload,
         _corrupt_sequence],
        ids=["truncated-frame", "bad-crc", "bad-payload", "seq-gap"],
    )
    def test_torn_tail_keeps_the_good_prefix(self, logged, corrupt):
        path, boundary = logged
        path.write_bytes(corrupt(path.read_bytes(), boundary))
        reopened = WriteAheadLog(path.parent)
        # Records 1 and 2 survive; the torn third is ignored, never a
        # crash or a garbage record.
        assert [record.seq for record in reopened.pending()] == [1, 2]
        assert reopened.last_seq == 2

    @pytest.mark.parametrize(
        "corrupt",
        [_corrupt_truncate, _corrupt_checksum, _corrupt_payload,
         _corrupt_sequence],
        ids=["truncated-frame", "bad-crc", "bad-payload", "seq-gap"],
    )
    def test_append_after_tear_truncates_and_resyncs(self, logged, corrupt):
        path, boundary = logged
        path.write_bytes(corrupt(path.read_bytes(), boundary))
        reopened = WriteAheadLog(path.parent)
        assert reopened.append([(5, 6)]) == 3
        reopened.close()
        # The torn bytes are gone: a fresh scan sees three clean records.
        final = WriteAheadLog(path.parent)
        assert [record.seq for record in final.pending()] == [1, 2, 3]
        assert final.pending()[-1].edges == [(5, 6)]


class TestAtomicSave:
    def test_failed_save_leaves_previous_layout_intact(
        self, tmp_path, monkeypatch
    ):
        index = AdsIndex.build(_chain_graph(12), 4)
        path = tmp_path / "ix.adsidx"
        index.save(path)
        before = path.read_bytes()

        def explode(index, handle):
            handle.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(storage, "write_single", explode)
        with pytest.raises(OSError, match="disk full"):
            index.save(path)
        # The target is byte-identical and no temp litter remains.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ix.adsidx"]

    def test_sharded_manifest_write_is_atomic(self, tmp_path, monkeypatch):
        index = AdsIndex.build(_chain_graph(12), 4)
        layout = tmp_path / "sharded"
        index.save(layout, shards=3)
        loaded = AdsIndex.load(layout)
        assert loaded.content_digest() == index.content_digest()
        # No temp files survive a successful save either.
        assert not [
            p for p in layout.iterdir() if p.name.startswith(".")
        ]

    def test_to_bytes_from_bytes_round_trip(self):
        index = AdsIndex.build(_chain_graph(12), 4)
        clone = AdsIndex.from_bytes(index.to_bytes())
        assert clone.content_digest() == index.content_digest()
        assert clone.nodes() == index.nodes()


def _answers(url, wire_mode):
    with QueryClient(url, wire_mode=wire_mode) as client:
        nodes = client.stats()["index"]["nodes"]
        return (
            client.cardinality_batch(list(range(nodes)), d=2.0),
            client.neighborhood()["series"],
            client.node(9),
        )


class TestServerRecovery:
    @pytest.fixture
    def seed(self, tmp_path):
        graph = _chain_graph(10)
        index = AdsIndex.build(graph, 4)
        path = tmp_path / "ix.adsidx"
        index.save(path)
        graph_path = tmp_path / "graph.txt"
        write_edge_list(graph, graph_path, all_nodes=True)
        return path, graph_path, graph

    def _server(self, seed, tmp_path, **kwargs):
        path, graph_path, graph = seed
        return AdsServer(
            AdsIndex.load(path),
            graph=CSRGraph.from_edges(
                list(graph.edges()), directed=graph.directed,
                nodes=graph.nodes(),
            ),
            index_path=path, graph_path=graph_path,
            wal_dir=tmp_path / "wal", **kwargs,
        )

    def test_wal_dir_requires_eager_index_and_graph(self, seed, tmp_path):
        path, graph_path, graph = seed
        with pytest.raises(ReproError, match="--wal-dir needs the index"):
            AdsServer(AdsIndex.load(path), wal_dir=tmp_path / "wal")
        with pytest.raises(ReproError, match="eagerly loaded"):
            AdsServer(
                AdsIndex.load(path, mmap=True), graph=graph,
                wal_dir=tmp_path / "wal",
            )

    def test_crashed_server_replays_to_byte_identity(self, seed, tmp_path):
        # The "crashed" server: takes acknowledged updates, never
        # compacts, and is abandoned without any shutdown courtesy.
        crashed = self._server(seed, tmp_path)
        crashed.start()
        with QueryClient(crashed.url) as client:
            for batch in BATCHES:
                client.update([list(edge) for edge in batch])
        crashed.shutdown()

        # Its twin never crashed: same seed, same batches, in memory.
        path, graph_path, graph = seed
        twin = AdsIndex.load(path)
        twin_graph = CSRGraph.from_edges(
            list(graph.edges()), directed=graph.directed,
            nodes=graph.nodes(),
        )
        for batch in BATCHES:
            twin.apply_edges(twin_graph, batch)

        recovered = self._server(seed, tmp_path)
        assert recovered.wal_replayed == len(BATCHES)
        assert recovered.index.content_digest() == twin.content_digest()

        # Byte-identity at the wire: both codecs answer exactly as a
        # server over the twin index does.
        twin_server = AdsServer(twin, graph=twin_graph)
        with recovered, twin_server:
            for wire_mode in ("json", "binary"):
                assert _answers(recovered.url, wire_mode) == _answers(
                    twin_server.url, wire_mode
                )

    def test_compact_truncates_the_log(self, seed, tmp_path):
        server = self._server(seed, tmp_path)
        with server:
            with QueryClient(server.url) as client:
                client.update([[0, 9]])
                assert server.wal.pending_records == 1
                info = client.compact()
                assert info["wal"]["pending_records"] == 0
        # Nothing to replay after a clean compact.
        fresh = self._server(seed, tmp_path)
        assert fresh.wal_replayed == 0
        fresh.wal.close()

    def test_refused_batch_is_rolled_back_not_replayed(
        self, seed, tmp_path
    ):
        server = self._server(seed, tmp_path)
        with server:
            with QueryClient(server.url) as client:
                client.update([[0, 9]])
                with pytest.raises(Exception):
                    # Mixed label types are refused by coercion inside
                    # apply_edges -- after the WAL append.
                    client.update([[0, 1.5]])
        recovered = self._server(seed, tmp_path)
        assert recovered.wal_replayed == 1
        recovered.wal.close()

    def test_torn_compact_graph_behind_index_is_reconciled(
        self, seed, tmp_path
    ):
        # Simulate compact crashing between its index flush and its
        # graph flush: apply batches (one adds node 10 -> 11 edges via
        # BATCHES[2]... chain graph has 10 nodes so use a new label),
        # flush ONLY the index, keep the stale graph file and the WAL.
        path, graph_path, graph = seed
        server = self._server(seed, tmp_path)
        server.start()
        with QueryClient(server.url) as client:
            client.update([[0, 9], [3, 42]])  # 42 is a brand-new node
        server.index.save(path)  # compact step 1 only: index flushed
        server.shutdown()

        recovered = self._server(seed, tmp_path)
        # The stale graph was caught up edge-by-edge and the pair
        # realigned; queries see the new node.
        assert recovered.wal_replayed == 1
        assert recovered.graph.nodes() == recovered.index.nodes()
        assert 42 in recovered.index.nodes()
        recovered.wal.close()

    def test_stats_surface_the_wal(self, seed, tmp_path):
        server = self._server(seed, tmp_path)
        with server:
            with QueryClient(server.url) as client:
                client.update([[0, 9]])
                stats = client.stats()
        wal = stats["updates"]["wal"]
        assert wal["enabled"] is True
        assert wal["pending_records"] == 1
        assert wal["replayed_on_start"] == 0
        assert stats["index"]["labels_digest"]


def _free_port():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


_URL_RE = re.compile(r"on (http://127\.0\.0\.1:\d+) with")


def _spawn_serve(tmp_path, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--index", str(tmp_path / "ix.adsidx"),
            "--graph", str(tmp_path / "graph.txt"),
            "--no-mmap", "--port", "0",
            "--wal-dir", str(tmp_path / "wal"), *extra,
        ],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    banner = process.stderr.readline()
    match = _URL_RE.search(banner)
    if match is None:
        process.kill()
        raise AssertionError(f"no serve banner: {banner!r}")
    url = match.group(1)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            with QueryClient(url, timeout=1.0) as client:
                client.healthz()
            return process, url, banner
        except Exception:
            time.sleep(0.05)
    process.kill()
    raise AssertionError("serve subprocess never became healthy")


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
)
class TestSubprocessCrash:
    def test_sigkilled_worker_recovers_acknowledged_updates(
        self, tmp_path
    ):
        graph = _chain_graph(10)
        index = AdsIndex.build(graph, 4)
        index.save(tmp_path / "ix.adsidx")
        write_edge_list(graph, tmp_path / "graph.txt", all_nodes=True)

        # The twin applies the same batches without ever crashing.
        twin = AdsIndex.build(_chain_graph(10), 4)
        twin_graph = _chain_graph(10)
        for batch in BATCHES:
            twin.apply_edges(twin_graph, batch)

        process, url, _ = _spawn_serve(tmp_path)
        try:
            with QueryClient(url) as client:
                for batch in BATCHES:
                    result = client.update(
                        [list(edge) for edge in batch]
                    )
                    assert result["applied_arcs"] >= 1
                before = _answers(url, "json")
        finally:
            # SIGKILL: no atexit, no flush, no shutdown hook runs.
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        process.stderr.close()

        process, url, banner = _spawn_serve(tmp_path)
        try:
            assert f"replayed {len(BATCHES)} batches" in banner
            after = _answers(url, "json")
            assert after == before
            assert after == _serve_twin_answers(twin, twin_graph)
            with QueryClient(url) as client:
                stats = client.stats()
            assert (
                stats["updates"]["wal"]["replayed_on_start"]
                == len(BATCHES)
            )
        finally:
            process.kill()
            process.wait(timeout=10)
            process.stderr.close()


def _serve_twin_answers(twin, twin_graph):
    server = AdsServer(twin, graph=twin_graph)
    with server:
        return _answers(server.url, "json")
