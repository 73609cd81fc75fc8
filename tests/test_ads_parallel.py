"""Sharded parallel builds are bit-identical to serial builds.

The contract of :mod:`repro.ads.parallel` is exact equivalence, not
approximate agreement: shard runs retain a superset of the true sketch
entries (fewer competitors = weaker pruning, exact distances either
way), and the replay merge re-runs the rank-ordered competition on that
superset, reproducing every serial accept/reject decision.  The tests
here assert equality of the *raw columns* (entries, scan order, HIP
weights, prefix sums) across random directed/undirected and
weighted/unweighted graphs for workers in {1, 2, 4}, plus the derived
query results and the legacy ``build_ads_set`` surface.

``workers=1, shards=s`` runs the identical shard/replay pipeline
in-process, which is what the hypothesis sweep drives (no process
startup per example); the multi-process paths are exercised by the
explicit worker matrix.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import index_format

from repro.ads import AdsIndex, BuildStats, build_ads_set
from repro.ads.csr_cores import build_flat_entries
from repro.ads.parallel import build_flat_entries_sharded, plan_shards
from repro.errors import ParameterError
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    gnp_random_graph,
    random_geometric_graph,
)
from repro.rand.hashing import HashFamily

FLAVORS = ("bottomk", "kmins", "kpartition")
FAMILY = HashFamily(20_260_728)


def _directed_weighted_graph(n, seed):
    rng = random.Random(seed)
    graph = Graph(directed=True)
    for i in range(n):
        graph.add_node(i)
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, round(0.5 + rng.random(), 3))
    return graph


GRAPHS = {
    "undirected-unweighted": barabasi_albert_graph(60, 2, seed=3),
    "directed-unweighted": gnp_random_graph(55, 0.07, seed=5, directed=True),
    "undirected-weighted": random_geometric_graph(45, 0.3, seed=7),
    "directed-weighted": _directed_weighted_graph(45, seed=11),
}


columns = index_format.columns


class TestBitIdenticalIndex:
    @pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bottomk_all_graph_shapes(self, graph_kind, workers):
        graph = GRAPHS[graph_kind]
        serial = AdsIndex.build(graph, 4, family=FAMILY)
        parallel = AdsIndex.build(
            graph, 4, family=FAMILY, workers=workers,
            shards=4 if workers == 1 else None,
        )
        assert columns(parallel) == columns(serial)

    @pytest.mark.parametrize("flavor", ["kmins", "kpartition"])
    @pytest.mark.parametrize(
        "graph_kind", ["directed-unweighted", "undirected-weighted"]
    )
    @pytest.mark.parametrize("workers", [1, 4])
    def test_other_flavors(self, flavor, graph_kind, workers):
        graph = GRAPHS[graph_kind]
        serial = AdsIndex.build(graph, 3, family=FAMILY, flavor=flavor)
        parallel = AdsIndex.build(
            graph, 3, family=FAMILY, flavor=flavor, workers=workers,
            shards=3 if workers == 1 else None,
        )
        assert columns(parallel) == columns(serial)

    def test_dp_method(self):
        graph = GRAPHS["undirected-unweighted"]
        serial = AdsIndex.build(graph, 3, family=FAMILY, method="dp")
        parallel = AdsIndex.build(
            graph, 3, family=FAMILY, method="dp", workers=2
        )
        assert columns(parallel) == columns(serial)

    def test_queries_agree(self):
        graph = GRAPHS["directed-unweighted"]
        serial = AdsIndex.build(graph, 4, family=FAMILY)
        parallel = AdsIndex.build(graph, 4, family=FAMILY, workers=2)
        assert parallel.cardinality_at(2.0) == serial.cardinality_at(2.0)
        assert (
            parallel.neighborhood_function() == serial.neighborhood_function()
        )
        assert parallel.closeness_centrality(
            classic=True
        ) == serial.closeness_centrality(classic=True)

    def test_more_shards_than_nodes(self):
        graph = barabasi_albert_graph(8, 2, seed=1)
        serial = AdsIndex.build(graph, 2, family=FAMILY)
        parallel = AdsIndex.build(graph, 2, family=FAMILY, workers=2,
                                  shards=50)
        assert columns(parallel) == columns(serial)


class TestShardedFlatEntries:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=4000),
        k=st.integers(min_value=1, max_value=5),
        shards=st.integers(min_value=2, max_value=5),
        flavor=st.sampled_from(FLAVORS),
    )
    def test_random_graphs_inline_pipeline(self, seed, k, shards, flavor):
        graph = gnp_random_graph(
            30, 0.12, seed=seed, directed=seed % 2 == 0
        ).to_csr()
        family = HashFamily(seed)
        serial = build_flat_entries(
            graph, k, family, flavor, "pruned_dijkstra", BuildStats()
        )
        sharded = build_flat_entries_sharded(
            graph, k, family, flavor, "pruned_dijkstra", BuildStats(),
            workers=1, shards=shards,
        )
        assert sharded == serial

    def test_stats_count_shard_work(self):
        graph = GRAPHS["undirected-unweighted"].to_csr()
        serial_stats, shard_stats = BuildStats(), BuildStats()
        serial = build_flat_entries(
            graph, 4, FAMILY, "bottomk", "pruned_dijkstra", serial_stats
        )
        sharded = build_flat_entries_sharded(
            graph, 4, FAMILY, "bottomk", "pruned_dijkstra", shard_stats,
            workers=1, shards=4,
        )
        assert sharded == serial
        # Shard runs prune less, so they do at least the serial work and
        # retain at least the final entry count.
        assert shard_stats.insertions >= serial_stats.insertions
        assert shard_stats.relaxations >= serial_stats.relaxations
        assert sum(len(r) for r in serial) == serial_stats.insertions

    def test_empty_graph(self):
        graph = Graph()
        assert build_flat_entries_sharded(
            graph.to_csr(), 2, FAMILY, "bottomk", "pruned_dijkstra",
            BuildStats(), workers=2,
        ) == []


class TestPlanShards:
    def test_round_robin_over_rank_order(self):
        ranks = [0.9, 0.1, 0.5, 0.3, 0.7]
        shards = plan_shards(range(5), ranks, 2)
        # rank order is 1, 3, 2, 4, 0; dealt alternately.
        assert shards == [[1, 2, 0], [3, 4]]

    def test_partition_is_exact(self):
        ranks = [FAMILY.rank(i, 0) for i in range(40)]
        shards = plan_shards(range(40), ranks, 7)
        flat = sorted(c for shard in shards for c in shard)
        assert flat == list(range(40))

    def test_empty_shards_dropped(self):
        assert plan_shards([3, 1], [0.0, 0.1, 0.2, 0.3], 5) == [[1], [3]]

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            plan_shards([0], [0.5], 0)


class TestBuildAdsSetParallel:
    def test_bit_identical_entries(self):
        graph = GRAPHS["undirected-weighted"]
        serial = build_ads_set(graph, 3, family=FAMILY)
        parallel = build_ads_set(graph, 3, family=FAMILY, workers=2)
        assert set(serial) == set(parallel)
        for node, ads in serial.items():
            assert [
                (e.node, e.distance, e.rank, e.tiebreak, e.bucket,
                 e.permutation)
                for e in ads.entries
            ] == [
                (e.node, e.distance, e.rank, e.tiebreak, e.bucket,
                 e.permutation)
                for e in parallel[node].entries
            ]
            assert ads.hip_weights() == parallel[node].hip_weights()

    def test_inline_shards_without_extra_workers(self):
        graph = GRAPHS["directed-unweighted"]
        serial = build_ads_set(graph, 3, family=FAMILY, flavor="kmins")
        sharded = build_ads_set(
            graph, 3, family=FAMILY, flavor="kmins", shards=3
        )
        node = graph.nodes()[0]
        assert [
            (e.node, e.distance) for e in serial[node].entries
        ] == [(e.node, e.distance) for e in sharded[node].entries]

    def test_rejects_non_csr_requests(self):
        graph = GRAPHS["undirected-unweighted"]
        with pytest.raises(ParameterError):
            build_ads_set(graph, 3, family=FAMILY, workers=2,
                          backend="legacy")
        with pytest.raises(ParameterError):
            build_ads_set(graph, 3, family=FAMILY, workers=2,
                          method="local_updates")
        with pytest.raises(ParameterError):
            build_ads_set(
                graph, 3, family=FAMILY, workers=2,
                node_weights=lambda v: 1.0,
            )

    def test_rejects_bad_counts(self):
        graph = GRAPHS["undirected-unweighted"]
        with pytest.raises(ParameterError):
            build_ads_set(graph, 3, family=FAMILY, workers=0)
        with pytest.raises(ParameterError):
            build_ads_set(graph, 3, family=FAMILY, shards=0)
        with pytest.raises(ParameterError):
            AdsIndex.build(graph, 3, family=FAMILY, workers=-1)
        with pytest.raises(ParameterError):
            AdsIndex.build(graph, 3, family=FAMILY, shards=0)
