"""Incremental ADS maintenance (repro.ads.dynamic + AdsIndex.apply_edges).

The acceptance bar is *bit-exactness*: for random graphs and random
insertion streams, applying edges incrementally and then querying must
equal rebuilding the index from the updated graph -- columns included,
for both single-file and sharded persisted layouts.  Alongside the
property tests live the CSRGraph edge-buffer semantics and the dynamic
bookkeeping (delta log, compaction, read-only rejection).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import index_format

from repro.ads import AdsIndex
from repro.errors import EstimatorError, GraphError, ParameterError
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

FLAVORS = ["bottomk", "kmins", "kpartition"]


def _random_case(seed, weighted=None, directed=None):
    """A random base graph plus a random insertion stream."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    if directed is None:
        directed = rng.random() < 0.5
    if weighted is None:
        weighted = rng.random() < 0.5

    def weight():
        return round(rng.uniform(0.5, 3.0), 2) if weighted else 1.0

    base = []
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            base.append((u, v, weight()))
    hi = n + (2 if rng.random() < 0.4 else 0)  # sometimes new nodes
    batches = []
    for _ in range(rng.randint(1, 3)):
        batch = []
        for _ in range(rng.randint(1, 5)):
            u, v = rng.randrange(hi), rng.randrange(hi)
            if u != v:
                batch.append((u, v, weight()))
        batches.append(batch)
    return n, directed, base, batches


_columns = index_format.columns


def _rebuilt(graph, k, family, flavor):
    """From-scratch index on the updated graph, id order pinned."""
    fresh = CSRGraph.from_edges(
        list(graph.edges()), directed=graph.directed, nodes=graph.nodes()
    )
    return AdsIndex.build(fresh, k, family=family, flavor=flavor)


class TestBitExactness:
    """apply_edges == rebuild, column for column."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_apply_matches_rebuild(self, flavor, seed, k):
        n, directed, base, batches = _random_case(seed)
        graph = CSRGraph.from_edges(base, directed=directed, nodes=range(n))
        family = HashFamily(seed)
        index = AdsIndex.build(graph, k, family=family, flavor=flavor)
        for batch in batches:
            index.apply_edges(graph, batch)
        rebuilt = _rebuilt(graph, k, family, flavor)
        assert _columns(index) == _columns(rebuilt)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_queries_match_rebuild(self, flavor):
        n, directed, base, batches = _random_case(7, weighted=False)
        graph = CSRGraph.from_edges(base, directed=directed, nodes=range(n))
        family = HashFamily(99)
        index = AdsIndex.build(graph, 3, family=family, flavor=flavor)
        for batch in batches:
            index.apply_edges(graph, batch)
        rebuilt = _rebuilt(graph, 3, family, flavor)
        assert index.cardinality_at(2.0) == rebuilt.cardinality_at(2.0)
        assert index.neighborhood_function() == \
            rebuilt.neighborhood_function()
        assert index.closeness_centrality(classic=True) == \
            rebuilt.closeness_centrality(classic=True)

    def test_new_nodes_are_queryable(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], nodes=range(3))
        index = AdsIndex.build(graph, 4)
        result = index.apply_edges(graph, [(2, "new-a"), ("new-a", "new-b")])
        assert result.new_nodes == 2
        assert "new-a" in index and "new-b" in index
        assert index.node_cardinality_at("new-b", 1.0) == 2.0
        assert index["new-a"].cardinality_at(1.0) == 3.0

    def test_weight_decrease_repropagates(self):
        graph = CSRGraph.from_edges(
            [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 20.0)], directed=True,
            nodes=range(3),
        )
        family = HashFamily(3)
        index = AdsIndex.build(graph, 4, family=family)
        index.apply_edges(graph, [(0, 2, 1.0)])
        rebuilt = _rebuilt(graph, 4, family, "bottomk")
        assert _columns(index) == _columns(rebuilt)
        assert index.node_cardinality_at(0, 1.0) == 2.0


class TestPersistedLayouts:
    """Incremental apply + compact == rebuild, on disk, both layouts."""

    @pytest.mark.parametrize("shards", [None, 1, 3])
    def test_compact_roundtrip(self, tmp_path, shards):
        n, directed, base, batches = _random_case(11)
        graph = CSRGraph.from_edges(base, directed=directed, nodes=range(n))
        family = HashFamily(4)
        index = AdsIndex.build(graph, 3, family=family)
        destination = tmp_path / ("layout" if shards else "single.adsidx")
        index.save(destination, shards=shards)
        for batch in batches:
            index.apply_edges(graph, batch)
        info = index.compact(destination)
        assert info["flushed_batches"] == len(batches)
        assert index.delta_log == [] and index._dirty_ids == set()
        reloaded = AdsIndex.load(destination)
        assert _columns(reloaded) == _columns(
            _rebuilt(graph, 3, family, "bottomk")
        )

    def test_compact_rewrites_only_dirty_shards(self, tmp_path):
        graph = CSRGraph.from_edges(
            [(i, i + 1) for i in range(39)], nodes=range(40)
        )
        index = AdsIndex.build(graph, 2)
        layout = tmp_path / "layout"
        index.save(layout, shards=8)
        stamps = {
            p.name: p.stat().st_mtime_ns for p in layout.glob("*.adsshd")
        }
        # An edge between two far-apart leaves only touches sketches in
        # their neighbourhood, not all 8 shards.
        index.apply_edges(graph, [(0, 2)])
        info = index.compact(layout)
        assert not info["full_rewrite"]
        assert 0 < len(info["rewritten_shards"]) < 8
        rewritten = {
            f"shard-{i:05d}.adsshd" for i in info["rewritten_shards"]
        }
        for name, stamp in stamps.items():
            changed = (layout / name).stat().st_mtime_ns != stamp
            assert changed == (name in rewritten)
        assert _columns(AdsIndex.load(layout)) == _columns(index)

    def test_compact_with_new_nodes_falls_back_to_full_rewrite(
        self, tmp_path
    ):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], nodes=range(3))
        index = AdsIndex.build(graph, 2)
        layout = tmp_path / "layout"
        index.save(layout, shards=2)
        index.apply_edges(graph, [(2, 3)])
        info = index.compact(layout)
        assert info["full_rewrite"] and info["total_shards"] == 2
        assert AdsIndex.load(layout).nodes() == index.nodes()

    def test_compact_fresh_paths(self, tmp_path):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], nodes=range(3))
        index = AdsIndex.build(graph, 2)
        index.apply_edges(graph, [(0, 2)])
        single = tmp_path / "fresh.adsidx"
        assert index.compact(single)["layout"] == "single"
        sharded = tmp_path / "fresh-layout"
        assert index.compact(sharded, shards=2)["layout"] == "sharded"
        assert _columns(AdsIndex.load(single)) == _columns(
            AdsIndex.load(sharded)
        )


class TestGuards:
    def test_mmap_backed_index_rejects_updates(self, tmp_path):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], nodes=range(3))
        index = AdsIndex.build(graph, 2)
        path = tmp_path / "ix.adsidx"
        index.save(path)
        mapped = AdsIndex.load(path, mmap=True)
        with pytest.raises(EstimatorError, match="read-only"):
            mapped.apply_edges(graph, [(0, 2)])
        with pytest.raises(EstimatorError, match="read-only"):
            mapped.compact(tmp_path / "other.adsidx")

    def test_graph_label_mismatch_is_rejected(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], nodes=range(3))
        index = AdsIndex.build(graph, 2)
        other = CSRGraph.from_edges([(5, 6)])
        with pytest.raises(EstimatorError, match="mismatch"):
            index.apply_edges(other, [(5, 7)])

    def test_legacy_graph_is_rejected(self):
        graph = CSRGraph.from_edges([(0, 1)])
        index = AdsIndex.build(graph, 2)
        with pytest.raises(ParameterError, match="CSRGraph"):
            index.apply_edges(graph.to_graph(), [(0, 2)])

    def test_noop_batch(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], nodes=range(3))
        index = AdsIndex.build(graph, 2)
        before = _columns(index)
        result = index.apply_edges(graph, [(0, 1), (1, 2, 7.0)])
        assert result.applied_arcs == 0 and result.dirty_nodes == 0
        assert _columns(index) == before
        assert len(index.delta_log) == 1  # no-ops are still logged

    def test_delta_log_accumulates(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)], nodes=range(4))
        index = AdsIndex.build(graph, 2)
        index.apply_edges(graph, [(0, 2)])
        index.apply_edges(graph, [(0, 3)])
        assert [entry["batch"] for entry in index.delta_log] == [1, 2]
        assert all(entry["applied_arcs"] == 2 for entry in index.delta_log)


class TestCSREdgeBuffer:
    def test_overlay_queries_match_consolidated(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], nodes=range(3))
        arcs = graph.add_edges(
            [(2, 3), (0, 2, 0.5)], auto_consolidate=False
        )
        assert graph.pending_edges == 2
        assert {(u, v) for u, v, _ in arcs} == {
            (2, 3), (3, 2), (0, 2), (2, 0)
        }
        overlay = {
            "out0": graph.out_neighbors(0),
            "in2": graph.in_neighbors(2),
            "edges": sorted(graph.edges()),
            "m": graph.num_edges,
            "w": graph.is_weighted(),
            "deg": graph.out_degree(2),
            "has": graph.has_edge(3, 2),
            "weight": graph.edge_weight(0, 2),
        }
        graph.consolidate()
        assert graph.pending_edges == 0
        consolidated = {
            "out0": graph.out_neighbors(0),
            "in2": graph.in_neighbors(2),
            "edges": sorted(graph.edges()),
            "m": graph.num_edges,
            "w": graph.is_weighted(),
            "deg": graph.out_degree(2),
            "has": graph.has_edge(3, 2),
            "weight": graph.edge_weight(0, 2),
        }
        assert overlay == consolidated

    def test_array_accessors_consolidate(self):
        graph = CSRGraph.from_edges([(0, 1)], nodes=range(2))
        graph.add_edges([(1, 2)], auto_consolidate=False)
        indptr, indices, _ = graph.forward_arrays()
        assert graph.pending_edges == 0
        assert len(indptr) == 4 and len(indices) == 4

    def test_transpose_view_sees_buffered_arcs(self):
        graph = CSRGraph.from_edges([(0, 1)], directed=True, nodes=range(2))
        view = graph.transpose()
        graph.add_edges([(1, 2)], auto_consolidate=False)
        assert view.num_edges == 2
        assert view.out_neighbors(2) == [(1, 1.0)]  # reversed orientation
        graph.consolidate()
        assert view.out_neighbors(2) == [(1, 1.0)]
        assert view.pending_edges == 0

    def test_auto_consolidation_threshold(self):
        graph = CSRGraph.from_edges([(0, 1)], nodes=range(2))
        batch = [(i, i + 1) for i in range(1, 70)]
        graph.add_edges(batch)  # > max(64, m // 8) pending: re-CSRs
        assert graph.pending_edges == 0
        assert graph.num_edges == 70

    def test_add_edges_validation(self):
        graph = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError, match="self-loop"):
            graph.add_edges([(2, 2)])
        with pytest.raises(GraphError, match="positive"):
            graph.add_edges([(0, 3, -1.0)])
        with pytest.raises(GraphError, match="2 or 3 fields"):
            graph.add_edges([(0,)])

    def test_duplicate_and_heavier_arrivals_are_noops(self):
        graph = CSRGraph.from_edges([(0, 1, 2.0)], directed=True)
        assert graph.add_edges([(0, 1, 2.0), (0, 1, 9.0)]) == []
        assert graph.num_edges == 1
        arcs = graph.add_edges([(0, 1, 0.5)], auto_consolidate=False)
        assert arcs == [(0, 1, 0.5)]
        assert graph.num_edges == 1
        assert graph.edge_weight(0, 1) == 0.5
