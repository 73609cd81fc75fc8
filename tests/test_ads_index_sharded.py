"""AdsIndex persistence edge cases: sharded layouts and odd inputs.

Covers the satellite checklist: empty index, single node, mixed int/str
labels, the sharded directory layout (round-trips, incremental
``write_shard`` rebuilds, loading via directory or manifest path), and
rejection of corrupted manifests and mismatched shard files.
"""

import json
import math

import pytest

import index_format
from repro.ads import AdsIndex
from repro.ads import storage
from repro.ads.storage import MANIFEST_NAME, shard_ranges
from repro.errors import EstimatorError, ParameterError
from repro.graph import Graph, barabasi_albert_graph
from repro.rand.hashing import HashFamily

FAMILY = HashFamily(424_242)


columns = index_format.columns


@pytest.fixture
def index():
    return AdsIndex.build(barabasi_albert_graph(40, 2, seed=6), 3,
                          family=FAMILY)


@pytest.fixture
def layout(index, tmp_path):
    directory = tmp_path / "sharded.adsidx"
    index.save(directory, shards=3)
    return directory


class TestSingleFileEdgeCases:
    def test_empty_index_roundtrip(self, tmp_path):
        index = AdsIndex.build(Graph(), 2, family=FAMILY)
        assert index.num_nodes == 0 and index.num_entries == 0
        path = tmp_path / "empty.adsidx"
        index.save(path)
        loaded = AdsIndex.load(path)
        assert loaded.nodes() == [] and loaded.cardinality_at(1.0) == {}

    def test_single_node_roundtrip(self, tmp_path):
        graph = Graph()
        graph.add_node(7)
        index = AdsIndex.build(graph, 2, family=FAMILY)
        path = tmp_path / "one.adsidx"
        index.save(path)
        loaded = AdsIndex.load(path)
        assert loaded.nodes() == [7]
        assert loaded.node_cardinality_at(7, math.inf) == 1.0

    def test_mixed_int_and_str_labels_roundtrip(self, tmp_path):
        graph = Graph()
        graph.add_edge(1, "a")
        graph.add_edge("a", 2)
        graph.add_edge(2, "b")
        index = AdsIndex.build(graph, 2, family=FAMILY)
        path = tmp_path / "mixed.adsidx"
        index.save(path)
        loaded = AdsIndex.load(path)
        assert loaded.nodes() == index.nodes()  # types preserved, 1 != "1"
        assert columns(loaded) == columns(index)


class TestShardedLayout:
    def test_roundtrip_from_directory_and_manifest(self, index, layout):
        for target in (layout, layout / MANIFEST_NAME):
            loaded = AdsIndex.load(target)
            assert loaded.nodes() == index.nodes()
            assert columns(loaded) == columns(index)
            assert loaded.cardinality_at(2.0) == index.cardinality_at(2.0)

    def test_layout_contents(self, index, layout):
        manifest = json.loads((layout / MANIFEST_NAME).read_text())
        assert manifest["n"] == index.num_nodes
        assert manifest["entries"] == index.num_entries
        assert [s["file"] for s in manifest["shards"]] == [
            f"shard-{i:05d}.adsshd" for i in range(3)
        ]
        assert sum(s["entries"] for s in manifest["shards"]) == (
            index.num_entries
        )
        for shard in manifest["shards"]:
            assert (layout / shard["file"]).is_file()

    def test_empty_and_single_node_sharded(self, tmp_path):
        for name, graph in (("empty", Graph()), ("one", Graph())):
            if name == "one":
                graph.add_node("solo")
            index = AdsIndex.build(graph, 2, family=FAMILY)
            directory = tmp_path / name
            index.save(directory, shards=4)  # more shards than nodes
            loaded = AdsIndex.load(directory)
            assert loaded.nodes() == index.nodes()
            assert columns(loaded) == columns(index)

    def test_write_shard_refreshes_one_file(self, index, layout):
        manifest_before = (layout / MANIFEST_NAME).read_text()
        shard_file = layout / "shard-00001.adsshd"
        shard_file.write_bytes(b"garbage overwriting the shard")
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)
        index.write_shard(layout, 1)  # incremental per-shard rebuild
        assert columns(AdsIndex.load(layout)) == columns(index)
        assert (layout / MANIFEST_NAME).read_text() == manifest_before

    def test_write_shard_rejects_mismatched_index(self, layout):
        other = AdsIndex.build(
            barabasi_albert_graph(40, 2, seed=6), 3, family=HashFamily(1)
        )
        with pytest.raises(EstimatorError):
            other.write_shard(layout, 0)
        different_graph = AdsIndex.build(
            barabasi_albert_graph(30, 2, seed=6), 3, family=FAMILY
        )
        with pytest.raises(EstimatorError):
            different_graph.write_shard(layout, 0)

    def test_write_shard_rejects_bad_shard_index(self, index, layout):
        with pytest.raises(ParameterError):
            index.write_shard(layout, 3)
        with pytest.raises(ParameterError):
            index.write_shard(layout, -1)

    def test_shard_ranges_tile_exactly(self):
        for n in (0, 1, 7, 40):
            for shards in (1, 3, 8):
                ranges = shard_ranges(n, shards)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                assert all(
                    ranges[i][1] == ranges[i + 1][0]
                    for i in range(len(ranges) - 1)
                )
                sizes = [stop - start for start, stop in ranges]
                assert max(sizes) - min(sizes) <= 1


class TestCorruptedLayoutRejection:
    def _mangle(self, layout, mutate):
        manifest_path = layout / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        mutate(manifest)
        manifest_path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, layout):
        (layout / MANIFEST_NAME).unlink()
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_unparseable_manifest(self, layout):
        (layout / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_wrong_format_tag(self, layout):
        self._mangle(layout, lambda m: m.update(format="something-else"))
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_missing_field(self, layout):
        self._mangle(layout, lambda m: m.pop("labels_digest"))
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_non_integer_entry_counts(self, index, layout):
        self._mangle(
            layout,
            lambda m: m["shards"][0].update(entries=str(m["shards"][0]
                                                       ["entries"])),
        )
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)
        with pytest.raises(EstimatorError):
            index.write_shard(layout, 1)  # same guard on the write path

    def test_non_contiguous_ranges(self, layout):
        def shift(manifest):
            manifest["shards"][1]["start"] += 1

        self._mangle(layout, shift)
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_coverage_short_of_n(self, layout):
        self._mangle(layout, lambda m: m.update(n=m["n"] + 5))
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_path_traversal_in_shard_file(self, layout):
        def traverse(manifest):
            manifest["shards"][0]["file"] = "../outside.adsshd"

        self._mangle(layout, traverse)
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_missing_shard_file(self, layout):
        (layout / "shard-00002.adsshd").unlink()
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_truncated_shard_file(self, layout):
        path = layout / "shard-00000.adsshd"
        path.write_bytes(path.read_bytes()[:-24])
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_foreign_shard_file_rejected(self, index, layout, tmp_path):
        """A shard from a different build (different seed => different
        digest) must not be silently spliced in."""
        other = AdsIndex.build(
            barabasi_albert_graph(40, 2, seed=6), 3, family=HashFamily(9)
        )
        other_dir = tmp_path / "other"
        other.save(other_dir, shards=3)
        (layout / "shard-00001.adsshd").write_bytes(
            (other_dir / "shard-00001.adsshd").read_bytes()
        )
        with pytest.raises(EstimatorError):
            AdsIndex.load(layout)

    def test_single_file_is_not_a_manifest(self, index, tmp_path):
        path = tmp_path / "flat.adsidx"
        index.save(path)
        with pytest.raises(EstimatorError):
            storage._load_sharded(AdsIndex, path, False, "auto", None)
