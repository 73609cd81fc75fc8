"""mmap-vs-eager load equivalence for ``AdsIndex``.

``AdsIndex.load(path, mmap=True)`` must be an invisible substitution:
every query returns bit-identical floats under both load modes, for the
single-file and the sharded on-disk layouts, in every flavor.  The lazy
side is behavioural: a sharded mmap load must not touch a shard file
until a query lands in its node range.
"""

import math
import os

import pytest

import index_format
from repro.ads import AdsIndex
from repro.errors import EstimatorError
from repro.estimators.statistics import harmonic_kernel
from repro.graph import gnp_random_graph
from repro.rand.hashing import HashFamily

FLAVORS = ("bottomk", "kmins", "kpartition")


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(90, 0.06, seed=9, directed=True).to_csr()


def _build(graph, flavor):
    return AdsIndex.build(graph, 6, family=HashFamily(17), flavor=flavor)


def _saved(index, tmp_path, layout):
    if layout == "single":
        path = tmp_path / "index.adsidx"
        index.save(path)
    else:
        path = tmp_path / "layout"
        index.save(path, shards=4)
    return path


def _assert_queries_identical(mmapped, eager):
    beta = lambda u: 1.0 if u % 2 == 0 else 0.0  # noqa: E731
    for d in (0.0, 1.0, 2.0, math.inf):
        assert mmapped.cardinality_at(d) == eager.cardinality_at(d)
    assert mmapped.reachable_counts() == eager.reachable_counts()
    assert (
        mmapped.neighborhood_function() == eager.neighborhood_function()
    )
    assert mmapped.closeness_centrality() == eager.closeness_centrality()
    assert mmapped.closeness_centrality(
        classic=True
    ) == eager.closeness_centrality(classic=True)
    assert mmapped.closeness_centrality(
        alpha=harmonic_kernel()
    ) == eager.closeness_centrality(alpha=harmonic_kernel())
    assert mmapped.closeness_centrality(
        beta=beta
    ) == eager.closeness_centrality(beta=beta)
    assert mmapped.top_central(7) == eager.top_central(7)
    assert mmapped.top_central(
        7, largest=False
    ) == eager.top_central(7, largest=False)
    for label in (0, 13, 89):
        assert mmapped.node_cardinality_at(
            label, 2.0
        ) == eager.node_cardinality_at(label, 2.0)
        assert mmapped.node_neighborhood_function(
            label
        ) == eager.node_neighborhood_function(label)
        assert mmapped.node_closeness_centrality(
            label, classic=True
        ) == eager.node_closeness_centrality(label, classic=True)
        assert mmapped[label].entries == eager[label].entries


class TestEquivalence:
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("layout", ("single", "sharded"))
    def test_every_query_bit_identical(
        self, graph, tmp_path, flavor, layout
    ):
        index = _build(graph, flavor)
        path = _saved(index, tmp_path, layout)
        eager = AdsIndex.load(path)
        mmapped = AdsIndex.load(path, mmap=True)
        assert mmapped.mmap_backed and not eager.mmap_backed
        assert mmapped.nodes() == eager.nodes()
        assert mmapped.num_entries == eager.num_entries
        _assert_queries_identical(mmapped, eager)

    @pytest.mark.parametrize("layout", ("single", "sharded"))
    def test_columns_byte_identical(self, graph, tmp_path, layout):
        index = _build(graph, "bottomk")
        path = _saved(index, tmp_path, layout)
        mmapped = AdsIndex.load(path, mmap=True)
        assert index_format.entry_columns(
            mmapped
        ) == index_format.entry_columns(index)
        (built,) = index._segments.segments
        for part in mmapped._segments.segments:
            # Every mapped column is the file's bytes, viewed in place.
            assert part.aux is None and built.aux is None
            for name in ("node", "dist", "hip"):
                column = getattr(part, name)
                assert type(column) is memoryview
                assert column.tobytes() == memoryview(
                    getattr(built, name)
                )[part.base:part.base + len(column)].tobytes()

    def test_resave_from_mmap_load_roundtrips(self, graph, tmp_path):
        """Saving a lazily loaded index (including re-sharding, which
        slices columns across shard boundaries) reproduces the data."""
        index = _build(graph, "bottomk")
        layout = _saved(index, tmp_path, "sharded")
        mmapped = AdsIndex.load(layout, mmap=True)
        for target, shards in (("again.adsidx", None), ("relayout", 2)):
            destination = tmp_path / target
            mmapped.save(destination, shards=shards)
            reloaded = AdsIndex.load(destination)
            assert reloaded.cardinality_at(2.0) == index.cardinality_at(2.0)
            assert reloaded.num_entries == index.num_entries


class TestLaziness:
    def test_sharded_load_maps_nothing(self, graph, tmp_path):
        index = _build(graph, "bottomk")
        layout = _saved(index, tmp_path, "sharded")
        mmapped = AdsIndex.load(layout, mmap=True)
        assert mmapped.mapped_shards == 0

    def test_single_node_query_maps_one_shard(self, graph, tmp_path):
        index = _build(graph, "bottomk")
        layout = _saved(index, tmp_path, "sharded")
        mmapped = AdsIndex.load(layout, mmap=True)
        mmapped.node_cardinality_at(0, 2.0)
        assert mmapped.mapped_shards == 1

    def test_whole_graph_query_maps_all_shards(self, graph, tmp_path):
        index = _build(graph, "bottomk")
        layout = _saved(index, tmp_path, "sharded")
        mmapped = AdsIndex.load(layout, mmap=True)
        mmapped.neighborhood_function()
        assert mmapped.mapped_shards == 4

    def test_cum_hip_computed_once_under_concurrency(
        self, graph, tmp_path
    ):
        import threading

        index = _build(graph, "bottomk")
        path = _saved(index, tmp_path, "single")
        mmapped = AdsIndex.load(path, mmap=True)
        calls = []
        original = mmapped._compute_cum_hip

        def counting():
            calls.append(1)
            return original()

        mmapped._compute_cum_hip = counting
        barrier = threading.Barrier(4)
        expected = index.cardinality_at(2.0)
        results = []

        def worker():
            barrier.wait()
            results.append(mmapped.cardinality_at(2.0))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results == [expected] * 4
        assert len(calls) == 1  # the O(entries) pass ran exactly once

    def test_cum_hip_deferred_until_batch_query(self, graph, tmp_path):
        index = _build(graph, "bottomk")
        path = _saved(index, tmp_path, "single")
        mmapped = AdsIndex.load(path, mmap=True)
        assert mmapped._cum_cache is None
        mmapped.node_cardinality_at(3, 2.0)  # local sum, still deferred
        assert mmapped._cum_cache is None
        mmapped.cardinality_at(2.0)
        assert mmapped._cum_cache is not None


class TestFailureModes:
    def test_truncated_single_file(self, graph, tmp_path):
        index = _build(graph, "bottomk")
        path = _saved(index, tmp_path, "single")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(EstimatorError, match="truncated"):
            AdsIndex.load(path, mmap=True)

    def test_truncated_shard_file(self, graph, tmp_path):
        index = _build(graph, "bottomk")
        layout = _saved(index, tmp_path, "sharded")
        shard = sorted(layout.glob("shard-*.adsshd"))[1]
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) - 64])
        with pytest.raises(EstimatorError, match="truncated"):
            AdsIndex.load(layout, mmap=True)

    def test_shard_vanishing_after_load_is_an_estimator_error(
        self, graph, tmp_path
    ):
        index = _build(graph, "bottomk")
        layout = _saved(index, tmp_path, "sharded")
        mmapped = AdsIndex.load(layout, mmap=True)
        for shard in layout.glob("shard-*.adsshd"):
            os.unlink(shard)
        with pytest.raises(EstimatorError, match="vanished"):
            mmapped.neighborhood_function()

    def test_overwriting_the_mapped_single_file_is_refused(
        self, graph, tmp_path
    ):
        # Truncating a file whose bytes are mmap-ed would SIGBUS the
        # interpreter on the next column read; the guard must turn that
        # into an EstimatorError before any byte is written.
        index = _build(graph, "bottomk")
        path = _saved(index, tmp_path, "single")
        mmapped = AdsIndex.load(path, mmap=True)
        with pytest.raises(EstimatorError, match="memory-mapped"):
            mmapped.save(path)
        assert AdsIndex.load(path).num_entries == index.num_entries

    def test_write_shard_into_the_mapped_layout_is_refused(
        self, graph, tmp_path
    ):
        index = _build(graph, "bottomk")
        layout = _saved(index, tmp_path, "sharded")
        mmapped = AdsIndex.load(layout, mmap=True)
        mmapped.node_cardinality_at(0, 2.0)  # shard 0 is live-mapped
        with pytest.raises(EstimatorError, match="memory-mapped"):
            mmapped.write_shard(layout, 0)
        with pytest.raises(EstimatorError, match="memory-mapped"):
            mmapped.save(layout, shards=4)
        # an eagerly loaded copy may refresh the layout as before
        AdsIndex.load(layout).write_shard(layout, 0)

    def test_eager_load_unaffected_by_default(self, graph, tmp_path):
        index = _build(graph, "bottomk")
        path = _saved(index, tmp_path, "single")
        loaded = AdsIndex.load(path)
        assert loaded._cum_cache is not None  # eager mode validated fully
