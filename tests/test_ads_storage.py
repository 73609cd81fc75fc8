"""The storage module's writers (``repro.ads.storage``).

* a save walks the index's segments and streams their buffers with an
  incremental CRC: re-saving a sharded map -- flat, or re-sharded
  across its shard boundaries -- writes the bytes the eager index
  writes and copies no column;
* a sharded save over a wider layout drops the shard files its new
  manifest no longer names, after that manifest has landed and never
  before.
"""

import tracemalloc

import pytest

from repro.ads import AdsIndex, storage
from repro.ads.storage import MANIFEST_NAME
from repro.errors import EstimatorError
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily

FLAVORS = ("bottomk", "kmins", "kpartition")


def _files(path):
    """``{name: bytes}`` of a layout directory (or of one file)."""
    if path.is_dir():
        return {f.name: f.read_bytes() for f in sorted(path.iterdir())}
    return {path.name: path.read_bytes()}


@pytest.mark.parametrize("flavor", FLAVORS)
def test_resave_from_a_sharded_map_streams_the_eager_bytes(flavor, tmp_path):
    index = AdsIndex.build(
        barabasi_albert_graph(1500, 3, seed=2), 8, family=HashFamily(3),
        flavor=flavor, backend="python",
    )
    index.save(tmp_path / "source", shards=8)
    (built,) = index._segments.segments
    column_bytes = sum(
        len(column) * column.itemsize
        for column in built[1:6] if column is not None
    )
    (tmp_path / "eager").mkdir()
    (tmp_path / "mapped").mkdir()
    for name, shards in (("flat.adsidx", None), ("three", 3), ("eleven", 11)):
        index.save(tmp_path / "eager" / name, shards=shards)
        mapped = AdsIndex.load(
            tmp_path / "source", mmap=True, backend="python"
        )
        assert mapped.mapped_shards == 0
        tracemalloc.start()
        try:
            mapped.save(tmp_path / "mapped" / name, shards=shards)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _files(tmp_path / "mapped" / name) == \
            _files(tmp_path / "eager" / name)
        # Zero-copy pieces of the mapped files plus one offsets column
        # and the JSON header; gathering the columns first took > 1x.
        assert peak < 0.25 * column_bytes, (name, peak, column_bytes)


class TestOrphanShardFiles:
    @pytest.fixture
    def graph(self):
        return barabasi_albert_graph(40, 2, seed=3).to_csr()

    @pytest.fixture
    def index(self, graph):
        return AdsIndex.build(graph, 3, family=HashFamily(5))

    def _shard_names(self, layout):
        return sorted(f.name for f in layout.glob("shard-*"))

    def test_narrower_save_drops_the_files_it_no_longer_names(
        self, index, tmp_path
    ):
        layout = tmp_path / "layout"
        index.save(layout, shards=8)
        assert len(self._shard_names(layout)) == 8
        (layout / "notes.txt").write_text("not ours")
        index.save(layout, shards=3)
        assert self._shard_names(layout) == [
            f"shard-{i:05d}.adsshd" for i in range(3)
        ]
        assert (layout / "notes.txt").exists()
        index.save(tmp_path / "fresh", shards=3)
        ours = _files(layout)
        del ours["notes.txt"]
        assert ours == _files(tmp_path / "fresh")
        assert AdsIndex.load(layout).content_digest() == \
            index.content_digest()

    def test_compact_full_rewrite_drops_orphans(self, index, graph, tmp_path):
        layout = tmp_path / "layout"
        index.save(layout, shards=8)
        # What a save(shards=12) that crashed before its manifest left.
        orphan = layout / "shard-00011.adsshd"
        orphan.write_bytes((layout / "shard-00007.adsshd").read_bytes())
        # Patching shard by shard rewrites what the manifest names and
        # nothing else ...
        index.apply_edges(graph, [(0, 39)])
        assert not index.compact(layout)["full_rewrite"]
        assert orphan.exists()
        # ... and the rewrite a grown node set forces cleans up.
        index.apply_edges(graph, [(0, 40)])
        info = index.compact(layout)
        assert info["full_rewrite"] and info["total_shards"] == 8
        assert self._shard_names(layout) == [
            f"shard-{i:05d}.adsshd" for i in range(8)
        ]
        assert AdsIndex.load(layout).content_digest() == \
            index.content_digest()

    def test_refused_save_leaves_the_old_layout_byte_identical(
        self, index, tmp_path
    ):
        layout = tmp_path / "layout"
        index.save(layout, shards=8)
        before = _files(layout)
        mapped = AdsIndex.load(layout, mmap=True)
        with pytest.raises(EstimatorError, match="memory-mapped"):
            mapped.save(layout, shards=3)
        assert _files(layout) == before

    def test_nothing_is_unlinked_before_the_manifest_lands(
        self, index, tmp_path, monkeypatch
    ):
        layout = tmp_path / "layout"
        index.save(layout, shards=8)
        before = _files(layout)

        def crash(path, manifest):
            raise OSError("power cut")

        monkeypatch.setattr(storage, "_write_manifest", crash)
        with pytest.raises(OSError, match="power cut"):
            index.save(layout, shards=3)
        after = _files(layout)
        # The old manifest and every file the new one would not name
        # are untouched; no file is gone.
        assert sorted(after) == sorted(before)
        for name in [MANIFEST_NAME] + self._shard_names(layout)[3:]:
            assert after[name] == before[name]
