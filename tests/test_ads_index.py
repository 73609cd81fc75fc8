"""AdsIndex: flat-array storage, batch queries, persistence.

Every batch estimate must agree with the per-node ``BaseADS`` value (the
index holds the same entries and the same HIP weights, so the floats are
bit-identical), and a save/load roundtrip must preserve every query.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import index_format
from repro.ads import AdsIndex, BuildStats, build_ads_set
from repro.centrality import all_closeness_centralities, top_k_central_nodes
from repro.centrality.neighborhood import graph_neighborhood_function
from repro.errors import EstimatorError, ParameterError
from repro.estimators.statistics import harmonic_kernel
from repro.graph import (
    barabasi_albert_graph,
    gnp_random_graph,
    random_geometric_graph,
)
from repro.rand.hashing import HashFamily

FLAVORS = ("bottomk", "kmins", "kpartition")


@pytest.fixture(params=FLAVORS)
def flavor(request):
    return request.param


@pytest.fixture
def graph():
    return barabasi_albert_graph(70, 2, seed=11)


@pytest.fixture
def index(graph, family, flavor):
    return AdsIndex.build(graph, 4, family=family, flavor=flavor)


@pytest.fixture
def ads_set(graph, family, flavor):
    return build_ads_set(graph, 4, family=family, flavor=flavor, backend="legacy")


class TestBatchQueries:
    def test_cardinality_matches_per_node(self, index, ads_set):
        for d in (1.0, 3.0, math.inf):
            batch = index.cardinality_at(d)
            for node, ads in ads_set.items():
                assert batch[node] == ads.cardinality_at(d)

    def test_single_node_cardinality(self, index, ads_set):
        for node in list(ads_set)[:10]:
            assert index.node_cardinality_at(node, 2.0) == ads_set[
                node
            ].cardinality_at(2.0)

    def test_reachable_counts(self, index, ads_set):
        counts = index.reachable_counts()
        for node, ads in ads_set.items():
            assert counts[node] == ads.reachable_count()

    def test_neighborhood_function_matches_graph_level(self, index, ads_set):
        assert index.neighborhood_function() == graph_neighborhood_function(
            ads_set
        )

    def test_node_neighborhood_function(self, index, ads_set):
        for node in list(ads_set)[:10]:
            assert (
                index.node_neighborhood_function(node)
                == ads_set[node].neighborhood_function()
            )

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"classic": True}, {"alpha": harmonic_kernel()}],
        ids=["distsum", "classic", "harmonic"],
    )
    def test_closeness_matches_per_node(self, index, ads_set, kwargs):
        assert index.closeness_centrality(**kwargs) == all_closeness_centralities(
            ads_set, **kwargs
        )

    def test_node_closeness_matches_batch(self, index, ads_set):
        batch = index.closeness_centrality(classic=True)
        for node in list(ads_set)[:10]:
            assert index.node_closeness_centrality(node, classic=True) == batch[node]
        harmonic = index.closeness_centrality(alpha=harmonic_kernel())
        node = list(ads_set)[0]
        assert (
            index.node_closeness_centrality(node, alpha=harmonic_kernel())
            == harmonic[node]
        )

    def test_top_central_matches_helper(self, index, ads_set):
        expected = top_k_central_nodes(
            all_closeness_centralities(ads_set, classic=True), 7
        )
        assert index.top_central(7, classic=True) == expected

    def test_classic_rejects_kernels(self, index):
        with pytest.raises(EstimatorError):
            index.closeness_centrality(classic=True, alpha=harmonic_kernel())

    def test_unknown_node_raises(self, index):
        with pytest.raises(EstimatorError):
            index.node_cardinality_at("not-a-node")


class TestMaterialisation:
    def test_lazy_ads_identical_to_legacy(self, index, ads_set):
        for node in list(ads_set)[:10]:
            legacy, lazy = ads_set[node], index[node]
            assert type(legacy) is type(lazy)
            assert [
                (e.node, e.distance, e.rank, e.tiebreak, e.bucket, e.permutation)
                for e in legacy.entries
            ] == [
                (e.node, e.distance, e.rank, e.tiebreak, e.bucket, e.permutation)
                for e in lazy.entries
            ]
            assert legacy.hip_weights() == lazy.hip_weights()

    def test_materialisation_is_cached(self, index):
        node = index.nodes()[0]
        assert index[node] is index[node]

    def test_to_ads_set_covers_every_node(self, index, graph):
        materialised = index.to_ads_set()
        assert set(materialised) == set(graph.nodes())

    def test_get_returns_none_for_unknown(self, index):
        assert index.get("missing") is None


class TestPersistence:
    def test_roundtrip_preserves_queries(self, index, tmp_path):
        path = tmp_path / "sketches.adsidx"
        index.save(path)
        loaded = AdsIndex.load(path)
        assert loaded.flavor == index.flavor
        assert loaded.k == index.k
        assert loaded.nodes() == index.nodes()
        assert loaded.cardinality_at(2.0) == index.cardinality_at(2.0)
        assert loaded.neighborhood_function() == index.neighborhood_function()
        assert loaded.closeness_centrality(classic=True) == index.closeness_centrality(
            classic=True
        )
        node = index.nodes()[3]
        assert [
            (e.node, e.distance, e.rank, e.tiebreak)
            for e in loaded[node].entries
        ] == [
            (e.node, e.distance, e.rank, e.tiebreak)
            for e in index[node].entries
        ]

    def test_rejects_non_index_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not an index")
        with pytest.raises(EstimatorError):
            AdsIndex.load(path)

    def test_rejects_corrupt_headers_and_columns(self, index, tmp_path):
        import zlib

        path = tmp_path / "good.adsidx"
        index.save(path)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        start = index_format.data_start(data)
        assert start == 24 + header_len and start % 8 == 0
        bogus = dict(json.loads(data[24:start]), flavor="bogus")
        bogus_bytes = json.dumps(bogus).encode()

        def reframed(header_bytes, crc=None):
            crc = zlib.crc32(header_bytes) if crc is None else crc
            return (
                data[:8] + len(header_bytes).to_bytes(8, "little")
                + crc.to_bytes(8, "little") + header_bytes + data[start:]
            )

        cases = {
            "huge_header_len": data[:8] + (1 << 40).to_bytes(8, "little")
            + data[16:],
            "garbage_header": reframed(b"\xff" * 32),
            "truncated": data[: len(data) // 2],
            # a well-formed header that lies, checksummed and all
            "bogus_flavor": reframed(bogus_bytes),
            "header_checksum": reframed(data[24:start], crc=12345),
            "column_bit_flip": data[:-1] + bytes([data[-1] ^ 0x10]),
        }
        for name, payload in cases.items():
            bad = tmp_path / f"{name}.adsidx"
            bad.write_bytes(payload)
            with pytest.raises(EstimatorError):
                AdsIndex.load(bad)
            with pytest.raises(EstimatorError):
                AdsIndex.from_bytes(payload)

    @pytest.mark.parametrize("node_id", [-1, 10_000])
    def test_rejects_out_of_range_node_ids(
        self, index, tmp_path, node_id
    ):
        # Checksums made to match, so the id scan itself must refuse.
        path = tmp_path / "flip.adsidx"
        index.save(path)
        index_format.poke_node_id(
            path, index.flavor, index.num_nodes, index.num_entries, 3,
            node_id, fix_checksums=True,
        )
        with pytest.raises(EstimatorError, match="node ids"):
            AdsIndex.load(path)

    def test_node_count_limit_is_refused_loudly(
        self, index, tmp_path, monkeypatch
    ):
        # Node ids take four bytes on disk and in memory.
        from repro.ads import index as index_module

        monkeypatch.setattr(index_module, "MAX_NODES", index.num_nodes)
        with pytest.raises(EstimatorError, match="four bytes"):
            index.save(tmp_path / "too-many.adsidx")
        with pytest.raises(EstimatorError, match="four bytes"):
            index.save(tmp_path / "too-many", shards=2)
        with pytest.raises(EstimatorError, match="four bytes"):
            AdsIndex.build(
                barabasi_albert_graph(index.num_nodes, 2, seed=1), 2
            )

    def test_rejects_unserialisable_labels(self, family, tmp_path):
        from repro.graph import Graph

        graph = Graph()
        graph.add_edge(("tuple", "label"), ("other", "label"))
        index = AdsIndex.build(graph, 2, family=family)
        with pytest.raises(EstimatorError):
            index.save(tmp_path / "bad.adsidx")


class TestBuild:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        k=st.integers(min_value=1, max_value=5),
        flavor=st.sampled_from(FLAVORS),
    )
    def test_random_graphs_batch_equals_per_node(self, seed, k, flavor):
        graph = gnp_random_graph(35, 0.1, seed=seed, directed=seed % 2 == 0)
        family = HashFamily(seed)
        index = AdsIndex.build(graph, k, family=family, flavor=flavor)
        reference = build_ads_set(
            graph, k, family=family, flavor=flavor, backend="legacy"
        )
        batch = index.cardinality_at(2.0)
        for node, ads in reference.items():
            assert batch[node] == ads.cardinality_at(2.0)

    def test_weighted_graph(self, family):
        graph = random_geometric_graph(30, 0.3, seed=12)
        index = AdsIndex.build(graph, 3, family=family)
        reference = build_ads_set(graph, 3, family=family, backend="legacy")
        assert index.cardinality_at(0.2) == {
            node: ads.cardinality_at(0.2) for node, ads in reference.items()
        }

    def test_backward_direction(self, family):
        graph = gnp_random_graph(30, 0.1, seed=13, directed=True)
        index = AdsIndex.build(graph, 3, family=family, direction="backward")
        reference = build_ads_set(
            graph, 3, family=family, direction="backward", backend="legacy"
        )
        counts = index.reachable_counts()
        for node, ads in reference.items():
            assert counts[node] == ads.reachable_count()

    def test_stats_and_metadata(self, graph, family):
        stats = BuildStats()
        index = AdsIndex.build(graph, 4, family=family, stats=stats)
        assert stats.insertions == index.num_entries
        assert index.num_nodes == graph.num_nodes
        assert len(index) == graph.num_nodes
        assert graph.nodes()[0] in index
        assert "AdsIndex" in repr(index)

    def test_parameter_validation(self, graph, family):
        with pytest.raises(ParameterError):
            AdsIndex.build(graph, 4, family=family, flavor="nope")
        with pytest.raises(ParameterError):
            AdsIndex.build(graph, 4, family=family, direction="sideways")
        with pytest.raises(ParameterError):
            AdsIndex.build(graph, 4, family=family, method="local_updates")
