"""The version-2 index format: three entry columns, per-node tables.

* layout and size: what an entry costs on disk, what every writer
  emits, where the header checksums sit;
* compatibility: a version-1 file (written by the frozen writer in
  ``index_format``) loads to the same index a fresh build gives, is
  refused when its stored ranks disagree with its seed, and is only
  ever re-saved as version 2;
* hostile node ids on mapped loads, which skip the load-time id scan;
* the per-node tables are not derived on the load, point, batch or
  sweep path of a mapped index;
* whole-file fuzzing (ROADMAP: "structured error or correct answer,
  never a wrong answer or a hang").
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import index_format
from repro.ads import AdsIndex, kernels
from repro.ads import index as index_module
from repro.ads.storage import (
    ENTRY_COLUMNS,
    MANIFEST_NAME,
    expected_bytes,
    shard_ranges,
)
from repro.errors import EstimatorError
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily
from repro.serve import AdsServer
from repro.serve.wire import encode_response

FLAVORS = ("bottomk", "kmins", "kpartition")
BACKENDS = kernels.available_backends()[1:]  # drop "auto"
GRAPH = barabasi_albert_graph(60, 2, seed=4)
SEED = 77


def _build(flavor="bottomk", k=3):
    return AdsIndex.build(GRAPH, k, family=HashFamily(SEED), flavor=flavor)


def _layout_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return path.stat().st_size


class TestLayout:
    def test_bytes_per_entry_budget(self, tmp_path):
        # The feasibility limit on massive graphs is bytes per entry:
        # 20 B of columns plus offsets, labels and manifest.
        index = AdsIndex.build(barabasi_albert_graph(2000, 3, seed=1), 8)
        index.save(tmp_path / "flat.adsidx")
        index.save(tmp_path / "sharded", shards=8)
        for name in ("flat.adsidx", "sharded"):
            per_entry = _layout_bytes(tmp_path / name) / index.num_entries
            assert per_entry <= 21.0, (name, per_entry)

    def test_entry_columns(self):
        bottomk = ENTRY_COLUMNS["bottomk"]
        assert [name for name, _ in bottomk] == ["dist", "hip", "node"]
        assert expected_bytes([code for _, code in bottomk], [1] * 3) == 20
        for flavor in ("kmins", "kpartition"):
            assert ENTRY_COLUMNS[flavor] == bottomk + (("aux", "I"),)
        for flavor in FLAVORS:
            stats = _build(flavor).format_stats()
            assert stats["format_version"] == 2
            assert stats["entry_bytes"] == (20 if flavor == "bottomk" else 24)
            assert stats["entry_bytes"] < stats["bytes_per_entry"] < 40

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_header_is_checksummed_and_columns_are_aligned(
        self, flavor, tmp_path
    ):
        index = _build(flavor)
        index.save(tmp_path / "flat.adsidx")
        index.save(tmp_path / "sharded", shards=3)
        for path in [tmp_path / "flat.adsidx",
                     *sorted((tmp_path / "sharded").glob("shard-*"))]:
            data = path.read_bytes()
            start = index_format.data_start(data)
            header = json.loads(data[24:start])
            assert start % 8 == 0
            assert len(header["crc32"]) == 1 + len(ENTRY_COLUMNS[flavor])
            assert "rank" not in header and "tiebreak" not in header

    def test_every_writer_emits_version_2(self, tmp_path):
        graph = GRAPH.to_csr()
        index = AdsIndex.build(graph, 3, family=HashFamily(SEED))
        index.save(tmp_path / "flat.adsidx")
        index.save(tmp_path / "sharded", shards=3)
        index.apply_edges(graph, [(0, 59), (3, 41)])
        index.write_shard(tmp_path / "sharded", 0)
        index.compact(tmp_path / "sharded")
        index.compact(tmp_path / "compacted.adsidx")
        assert index.to_bytes()[:8] == b"ADSIDX02"
        for name in ("flat.adsidx", "compacted.adsidx"):
            assert (tmp_path / name).read_bytes()[:8] == b"ADSIDX02"
        for shard in (tmp_path / "sharded").glob("shard-*"):
            assert shard.read_bytes()[:8] == b"ADSSHD02"
        manifest = json.loads((tmp_path / "sharded" / MANIFEST_NAME).read_text())
        assert manifest["version"] == 2


READS = [
    ("GET", "/cardinality?d=2", None),
    ("GET", "/cardinality?node=7&d=2", None),
    ("POST", "/cardinality", {"nodes": [0, 5, 59], "d": 3}),
    ("GET", "/closeness?kind=classic", None),
    ("GET", "/closeness?kind=harmonic&node=9", None),
    ("GET", "/neighborhood", None),
    ("GET", "/neighborhood?node=4", None),
    ("GET", "/nf-curve", None),
    ("GET", "/top-central?count=5", None),
    ("POST", "/similarity", {"metric": "jaccard", "pairs": [[0, 5], [3, 3]],
                             "d": 2}),
    ("POST", "/similarity", {"metric": "closeness", "pairs": [[0, 5]]}),
    ("POST", "/distance", {"pairs": [[0, 59], [7, 8]]}),
    ("GET", "/similar/7?count=5&d=2", None),
    ("GET", "/node/12", None),
]


def _answers(index):
    """Every read endpoint's response bytes, in process."""
    server = AdsServer(index, port=0)
    try:
        out = []
        for method, target, payload in READS:
            body = None if payload is None else json.dumps(payload).encode()
            status, answer = server.handle_request(
                method, target, body,
                content_type="application/json" if body else None,
            )
            answer.pop("cached", None)
            out.append((status, encode_response(answer, None)))
        return out
    finally:
        server.close()


class TestVersion1Files:
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_loads_to_the_index_a_fresh_build_gives(self, flavor, tmp_path):
        fresh = _build(flavor)
        index_format.write_v1_single(fresh, tmp_path / "old.adsidx")
        index_format.write_v1_sharded(fresh, tmp_path / "old-sharded", 3)
        assert (tmp_path / "old.adsidx").read_bytes()[:8] == b"ADSIDX01"
        for name in ("old.adsidx", "old-sharded"):
            loaded = AdsIndex.load(tmp_path / name)
            assert loaded.content_digest() == fresh.content_digest()
            assert index_format.columns(loaded) == index_format.columns(fresh)
            node = fresh.nodes()[5]
            assert loaded[node].entries == fresh[node].entries

    def test_every_endpoint_answers_as_a_fresh_build(self, tmp_path):
        fresh = _build()
        index_format.write_v1_single(fresh, tmp_path / "old.adsidx")
        index_format.write_v1_sharded(fresh, tmp_path / "old-sharded", 3)
        expected = _answers(fresh)
        assert all(status == 200 for status, _ in expected)
        for name in ("old.adsidx", "old-sharded"):
            assert _answers(AdsIndex.load(tmp_path / name)) == expected

    def test_resave_emits_version_2(self, tmp_path):
        fresh = _build()
        index_format.write_v1_single(fresh, tmp_path / "old.adsidx")
        index_format.write_v1_sharded(fresh, tmp_path / "old-sharded", 3)
        AdsIndex.load(tmp_path / "old.adsidx").save(tmp_path / "new.adsidx")
        data = (tmp_path / "new.adsidx").read_bytes()
        assert data[:8] == b"ADSIDX02"
        assert len(data) < 0.5 * (tmp_path / "old.adsidx").stat().st_size
        assert AdsIndex.from_bytes(data).content_digest() == \
            fresh.content_digest()
        # A version-1 layout is never patched shard by shard: compact
        # rewrites it whole, write_shard refuses.
        old = AdsIndex.load(tmp_path / "old-sharded")
        with pytest.raises(EstimatorError, match="version"):
            old.write_shard(tmp_path / "old-sharded", 0)
        info = old.compact(tmp_path / "old-sharded")
        assert info["full_rewrite"] and info["total_shards"] == 3
        for shard in (tmp_path / "old-sharded").glob("shard-*"):
            assert shard.read_bytes()[:8] == b"ADSSHD02"
        assert AdsIndex.load(tmp_path / "old-sharded").content_digest() == \
            fresh.content_digest()

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_ranks_that_disagree_with_the_seed_are_refused(
        self, flavor, tmp_path
    ):
        # The file claims another seed than the one its rank and
        # tiebreak columns were drawn from: converting it would
        # silently re-rank every entry.
        index_format.write_v1_single(
            _build(flavor), tmp_path / "lying.adsidx", seed=SEED + 1
        )
        with pytest.raises(EstimatorError, match="seed"):
            AdsIndex.load(tmp_path / "lying.adsidx")

    def test_negative_node_id_is_refused(self, tmp_path):
        import struct

        fresh = _build()
        path = tmp_path / "old.adsidx"
        index_format.write_v1_single(fresh, path)
        data = bytearray(path.read_bytes())
        node_start = 16 + int.from_bytes(data[8:16], "little") + 8 * (
            fresh.num_nodes + 1
        )
        struct.pack_into("<q", data, node_start, -1)
        path.write_bytes(bytes(data))
        with pytest.raises(EstimatorError, match="node ids"):
            AdsIndex.load(path)

    def test_mmap_request_is_served_eagerly(self, tmp_path):
        fresh = _build()
        index_format.write_v1_single(fresh, tmp_path / "old.adsidx")
        index_format.write_v1_sharded(fresh, tmp_path / "old-sharded", 3)
        for name in ("old.adsidx", "old-sharded"):
            loaded = AdsIndex.load(tmp_path / name, mmap=True)
            assert not loaded.mmap_backed
            assert loaded.cardinality_at(2.0) == fresh.cardinality_at(2.0)
            assert loaded.content_digest() == fresh.content_digest()


def _mapped_with_bad_id(tmp_path, layout, node_id):
    """A mapped load whose node *bad* slice holds *node_id* in its
    second entry (header and column checksums untouched: mapped loads
    do not read them); returns ``(path, bad)``.  ``second-shard`` puts
    it in shard 1 of 3, where a segment's local slot and the global
    entry slot differ."""
    index = _build()
    if layout == "single":
        path = tmp_path / "flat.adsidx"
        index.save(path)
        index_format.poke_node_id(
            path, "bottomk", index.num_nodes, index.num_entries,
            index_format.entry_slot(index, 5) + 1, node_id,
        )
        return path, 5
    path = tmp_path / "sharded"
    shards, shard, bad = (1, 0, 5) if layout == "sharded" else (3, 1, 25)
    index.save(path, shards=shards)
    start, stop = shard_ranges(index.num_nodes, shards)[shard]
    offsets = index_format.entry_columns(index)[0]
    base = offsets[start]
    index_format.poke_node_id(
        path / f"shard-{shard:05d}.adsshd", "bottomk", stop - start,
        offsets[stop] - base, offsets[bad] + 1 - base, node_id,
    )
    return path, bad


class TestHostileNodeIdsOnMappedLoads:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("node_id", [60, 10_000, -1, -60])
    @pytest.mark.parametrize("layout", ["single", "sharded", "second-shard"])
    def test_every_id_lookup_refuses(self, tmp_path, layout, node_id, backend):
        path, bad = _mapped_with_bad_id(tmp_path, layout, node_id)
        mapped = AdsIndex.load(path, mmap=True, backend=backend)
        assert mapped.mmap_backed
        lookups = [
            lambda: mapped.pairs_neighborhood_jaccard([(bad, bad + 1)]),
            lambda: mapped.pairs_union_size_estimate([(bad + 1, bad)]),
            lambda: mapped.pairs_closeness_similarity([(bad, bad + 1)]),
            lambda: mapped.most_similar(bad, count=3),
            lambda: mapped[bad],
            lambda: mapped.node_closeness_centrality(bad, beta=lambda v: 1.0),
        ]
        # The error names the global entry slot on every layout.
        slot = index_format.entry_slot(mapped, bad) + 1
        for lookup in lookups:
            with pytest.raises(EstimatorError, match=f"slot {slot} "):
                lookup()
        # Slices that do not hold the bad id keep answering, and nothing
        # that reads only distances and weights ever looked.
        assert mapped.pairs_neighborhood_jaccard([(bad + 1, bad + 2)])
        assert mapped.node_cardinality_at(bad, 2.0) > 0.0
        # The eager load scans (and checksums) the column up front.
        with pytest.raises(EstimatorError):
            AdsIndex.load(path)


class TestTablesStayLazy:
    @pytest.mark.parametrize("layout", ["single", "sharded"])
    def test_cardinality_and_closeness_never_derive_them(
        self, tmp_path, monkeypatch, layout
    ):
        index = _build()
        path = tmp_path / layout
        index.save(path, shards=3 if layout == "sharded" else None)

        def explode(*args, **kwargs):
            raise AssertionError("per-node tables derived")

        monkeypatch.setattr(index_module, "node_hash_tables", explode)
        mapped = AdsIndex.load(path, mmap=True)
        node = index.nodes()[9]
        assert mapped.node_cardinality_at(node, 2.0) == \
            index.node_cardinality_at(node, 2.0)
        assert mapped.nodes_cardinality_at([0, node], 2.0) == \
            index.nodes_cardinality_at([0, node], 2.0)
        assert mapped.cardinality_at(2.0) == index.cardinality_at(2.0)
        assert mapped.closeness_centrality(classic=True) == \
            index.closeness_centrality(classic=True)
        assert mapped.neighborhood_function() == \
            index.neighborhood_function()
        assert mapped._tables_cache is None
        # ... and the readers of ranks do come through the builder.
        with pytest.raises(AssertionError, match="tables derived"):
            mapped.pairs_neighborhood_jaccard([(0, 1)])


# ----------------------------------------------------------------------
# Whole-file fuzzing
# ----------------------------------------------------------------------
_FUZZ_INDEX = _build()
_FUZZ_DIGEST = _FUZZ_INDEX.content_digest()
_FUZZ_SINGLE = _FUZZ_INDEX.to_bytes()


def _mutated(data: bytes, position: int, bit: int, truncate: bool) -> bytes:
    position %= len(data)
    if truncate:
        return data[:position]
    flipped = bytearray(data)
    flipped[position] ^= 1 << bit
    return bytes(flipped)


def _structured_error_or_same_index(load) -> None:
    """Any exception but EstimatorError propagates and fails the test."""
    try:
        index = load()
    except EstimatorError:
        return
    assert index.content_digest() == _FUZZ_DIGEST


_mutation = dict(
    position=st.integers(min_value=0, max_value=1 << 30),
    bit=st.integers(min_value=0, max_value=7),
    truncate=st.booleans(),
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    """The 3-shard layout the sharded fuzz test copies and damages."""
    layout = tmp_path_factory.mktemp("pristine") / "layout"
    _FUZZ_INDEX.save(layout, shards=3)
    return layout


class TestWholeFileFuzz:
    @settings(max_examples=400, deadline=None)
    @given(**_mutation)
    def test_single_file(self, position, bit, truncate):
        data = _mutated(_FUZZ_SINGLE, position, bit, truncate)
        _structured_error_or_same_index(lambda: AdsIndex.from_bytes(data))

    @settings(max_examples=150, deadline=None)
    @given(**_mutation)
    def test_single_file_on_disk(self, position, bit, truncate):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "fuzzed.adsidx"
            path.write_bytes(_mutated(_FUZZ_SINGLE, position, bit, truncate))
            _structured_error_or_same_index(lambda: AdsIndex.load(path))

    @settings(max_examples=300, deadline=None)
    @given(target=st.sampled_from(["shard-00001.adsshd", MANIFEST_NAME]),
           **_mutation)
    def test_sharded_layout(self, pristine, target, position, bit, truncate):
        with tempfile.TemporaryDirectory() as scratch:
            layout = Path(scratch) / "layout"
            shutil.copytree(pristine, layout)
            victim = layout / target
            victim.write_bytes(
                _mutated(victim.read_bytes(), position, bit, truncate)
            )
            _structured_error_or_same_index(lambda: AdsIndex.load(layout))
