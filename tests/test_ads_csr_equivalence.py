"""CSR-vs-legacy backend equivalence: the load-bearing refactor contract.

The CSR builder cores must produce sketches *identical* to the legacy
adjacency-dict cores -- same entries (node, distance, rank, tiebreak,
bucket/permutation), hence the same HIP weights and the same estimates --
for every graph kind, flavor, and exact method.  Property tests sweep
random directed/undirected, weighted/unweighted graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import index_format
from repro.ads import AdsIndex, BuildStats, build_ads_set
from repro.errors import ParameterError
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    gnp_random_graph,
    random_geometric_graph,
)
from repro.rand.hashing import HashFamily

FLAVORS = ("bottomk", "kmins", "kpartition")
# Small weight alphabets: whole numbers tie many path lengths exactly;
# tenths give equal real lengths whose float sums differ (0.1 + 0.2 !=
# 0.3), so a node is reached at several nearly equal distances.
TIE_WEIGHTS = {"whole": (1, 2, 3), "tenths": (0.1, 0.2, 0.3)}


def _tie_weighted_graph(seed, weights, directed, n=32, p=0.12):
    rng = random.Random(seed)
    base = gnp_random_graph(n, p, seed=seed, directed=directed)
    graph = Graph(directed=directed)
    for u in base.nodes():
        graph.add_node(u)
    for u, v, _ in base.edges():
        graph.add_edge(u, v, rng.choice(weights))
    return graph


def _directed_weighted_graph(seed, n=35, p=0.1):
    """A directed graph with deterministic pseudo-random edge weights."""
    import random

    rng = random.Random(seed)
    base = gnp_random_graph(n, p, seed=seed, directed=True)
    from repro.graph import Graph

    graph = Graph(directed=True)
    for u in base.nodes():
        graph.add_node(u)
    for u, v, _ in base.edges():
        graph.add_edge(u, v, rng.uniform(0.1, 5.0))
    return graph


def entry_tuples(ads):
    return [
        (e.node, e.distance, e.rank, e.tiebreak, e.bucket, e.permutation)
        for e in ads.entries
    ]


def assert_identical_sets(legacy_set, csr_set):
    assert set(legacy_set) == set(csr_set)
    for node in legacy_set:
        legacy, csr = legacy_set[node], csr_set[node]
        assert type(legacy) is type(csr)
        assert entry_tuples(legacy) == entry_tuples(csr)
        assert legacy.hip_weights() == csr.hip_weights()


class TestBackendEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
        flavor=st.sampled_from(FLAVORS),
        directed=st.booleans(),
    )
    def test_unweighted_random_graphs(self, seed, k, flavor, directed):
        graph = gnp_random_graph(45, 0.08, seed=seed, directed=directed)
        family = HashFamily(seed + 1)
        for method in ("pruned_dijkstra", "dp"):
            legacy = build_ads_set(
                graph, k, family=family, flavor=flavor, method=method,
                backend="legacy",
            )
            csr = build_ads_set(
                graph, k, family=family, flavor=flavor, method=method,
                backend="csr",
            )
            assert_identical_sets(legacy, csr)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
        flavor=st.sampled_from(FLAVORS),
    )
    def test_weighted_random_graphs(self, seed, k, flavor):
        graph = random_geometric_graph(40, 0.25, seed=seed)
        family = HashFamily(seed + 1)
        legacy = build_ads_set(
            graph, k, family=family, flavor=flavor,
            method="pruned_dijkstra", backend="legacy",
        )
        csr = build_ads_set(
            graph, k, family=family, flavor=flavor,
            method="pruned_dijkstra", backend="csr",
        )
        assert_identical_sets(legacy, csr)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
        flavor=st.sampled_from(FLAVORS),
    )
    def test_directed_weighted_random_graphs(self, seed, k, flavor):
        """Exercises the counting-sort transpose weight column, which
        only runs for directed weighted graphs."""
        graph = _directed_weighted_graph(seed)
        family = HashFamily(seed + 1)
        legacy = build_ads_set(
            graph, k, family=family, flavor=flavor,
            method="pruned_dijkstra", backend="legacy",
        )
        csr = build_ads_set(
            graph, k, family=family, flavor=flavor,
            method="pruned_dijkstra", backend="csr",
        )
        assert_identical_sets(legacy, csr)

    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
        flavor=st.sampled_from(FLAVORS),
        directed=st.booleans(),
        alphabet=st.sampled_from(sorted(TIE_WEIGHTS)),
    )
    def test_tie_heavy_weighted_graphs(
        self, seed, k, flavor, directed, alphabet
    ):
        """The CSR heap scan prunes when it pushes, the legacy one when
        it pops.  Equal and nearly equal path lengths run both halves of
        the push test (a distance no shorter than one already queued;
        an equal-distance key settled by the tiebreak), and the entries,
        HIP weights and work counters must still agree.

        The in-process sharded build must equal the serial index column
        for column where path sums are exact (whole weights).  With
        tenths it need not: a shard run accepts more nodes, so it can
        reach a node along another path of the same real length whose
        float sum is smaller, and record that distance (see
        ARCHITECTURE.md, "Sharded parallel builds")."""
        graph = _tie_weighted_graph(seed, TIE_WEIGHTS[alphabet], directed)
        family = HashFamily(seed + 1)
        stats = {"legacy": BuildStats(), "csr": BuildStats()}
        legacy, csr = (
            build_ads_set(
                graph, k, family=family, flavor=flavor,
                method="pruned_dijkstra", backend=backend,
                stats=stats[backend],
            )
            for backend in ("legacy", "csr")
        )
        assert_identical_sets(legacy, csr)
        assert (stats["csr"].relaxations, stats["csr"].insertions) == (
            stats["legacy"].relaxations, stats["legacy"].insertions
        )
        if alphabet == "whole":
            serial = AdsIndex.build(graph, k, family=family, flavor=flavor)
            sharded = AdsIndex.build(
                graph, k, family=family, flavor=flavor, workers=1, shards=3
            )
            assert index_format.columns(sharded) == \
                index_format.columns(serial)

    def test_backward_direction(self, family):
        graph = gnp_random_graph(40, 0.08, seed=9, directed=True)
        legacy = build_ads_set(
            graph, 4, family=family, direction="backward", backend="legacy"
        )
        csr = build_ads_set(
            graph, 4, family=family, direction="backward", backend="csr"
        )
        assert_identical_sets(legacy, csr)

    def test_estimates_agree_end_to_end(self, family):
        graph = barabasi_albert_graph(60, 2, seed=3)
        legacy = build_ads_set(graph, 5, family=family, backend="legacy")
        csr = build_ads_set(graph, 5, family=family, backend="csr")
        for node in graph.nodes()[:15]:
            assert legacy[node].cardinality_at(2.0) == csr[node].cardinality_at(2.0)
            assert legacy[node].centrality() == csr[node].centrality()
            assert (
                legacy[node].neighborhood_function()
                == csr[node].neighborhood_function()
            )


class TestDispatch:
    def test_csr_input_selects_csr_automatically(self, family):
        graph = barabasi_albert_graph(40, 2, seed=4)
        via_csr_input = build_ads_set(graph.to_csr(), 4, family=family)
        via_legacy = build_ads_set(graph, 4, family=family, backend="legacy")
        assert_identical_sets(via_legacy, via_csr_input)

    def test_csr_input_falls_back_for_local_updates(self, family):
        graph = barabasi_albert_graph(30, 2, seed=5)
        fallback = build_ads_set(
            graph.to_csr(), 4, family=family, method="local_updates"
        )
        reference = build_ads_set(
            graph, 4, family=family, method="local_updates", backend="legacy"
        )
        assert_identical_sets(reference, fallback)

    def test_csr_input_falls_back_for_epsilon(self, family):
        graph = random_geometric_graph(25, 0.3, seed=6)
        stats = BuildStats()
        approx = build_ads_set(
            graph.to_csr(), 4, family=family, epsilon=0.5, stats=stats
        )
        assert len(approx) == graph.num_nodes
        assert stats.insertions > 0

    def test_explicit_csr_backend_rejects_local_updates(self, family):
        graph = barabasi_albert_graph(20, 2, seed=7)
        with pytest.raises(ParameterError):
            build_ads_set(
                graph, 4, family=family, method="local_updates", backend="csr"
            )

    def test_explicit_csr_backend_rejects_node_weights(self, family):
        graph = barabasi_albert_graph(20, 2, seed=8)
        with pytest.raises(ParameterError):
            build_ads_set(
                graph, 4, family=family, node_weights=lambda _v: 1.0,
                backend="csr",
            )

    def test_unknown_backend_rejected(self, family):
        graph = barabasi_albert_graph(20, 2, seed=9)
        with pytest.raises(ParameterError):
            build_ads_set(graph, 4, family=family, backend="numpy")

    def test_stats_populated_on_csr_path(self, family):
        graph = barabasi_albert_graph(40, 2, seed=10)
        stats = BuildStats()
        build_ads_set(graph, 4, family=family, backend="csr", stats=stats)
        assert stats.insertions > graph.num_nodes
        assert stats.relaxations > 0
