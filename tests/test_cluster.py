"""Cluster router correctness: exact merges, routing, topology.

The load-bearing claim of the cluster tier is **bit-identity**: a
query against a sharded cluster returns the same answer -- the same
IEEE-754 doubles, the same row order, the same serialized bytes -- as
the same query against one server over the whole index.  Property
tests drive the merge functions over random shard splits (the merge
must be exact for *every* tiling, not just the balanced one the CLI
produces), and a raw-socket test pins the end-to-end bytes on both
wire encodings.  Every ADS flavor is covered: merge exactness must
not depend on which sketch family produced the estimates.
"""

import http.client
import json

import pytest
from hypothesis import given, settings, strategies as st

from cluster_harness import start_cluster
from repro.ads import AdsIndex
from repro.centrality.closeness import top_k_central_nodes
from repro.errors import ReproError
from repro.graph import barabasi_albert_graph
from repro.graph.csr import CSRGraph
from repro.serve import AdsServer, QueryClient, RouterServer
from repro.serve.cluster import LabelDirectory, merge_top_central
from repro.serve.schemas import centrality_kwargs
from repro.serve.server import ServerBase


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(60, 3, seed=7).to_csr()


@pytest.fixture(
    scope="module", params=["bottomk", "kmins", "kpartition"]
)
def flavored_index(graph, request):
    return AdsIndex.build(graph, 8, flavor=request.param)


def _split_points(n, cuts):
    """Cut positions -> contiguous ``(start, stop)`` ranges over n."""
    bounds = sorted(set(cut % (n - 1) + 1 for cut in cuts)) if cuts \
        else []
    edges = [0] + bounds + [n]
    return list(zip(edges, edges[1:]))


class TestTopCentralMergeProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 10_000), max_size=5),
        count=st.integers(1, 70),
        largest=st.booleans(),
        kind=st.sampled_from(["classic", "harmonic", "distsum"]),
    )
    def test_merge_equals_single_index(
        self, flavored_index, cuts, count, largest, kind
    ):
        # Simulate each shard's /top-central: rank its own range with
        # the worker's exact code path, then merge.  The result must
        # equal the single-index ranking *including order* -- the
        # documented tie-break (value, then label repr) survives the
        # k-way merge for every random tiling.
        index = flavored_index
        kwargs = centrality_kwargs({"kind": kind})
        labels = index.nodes()
        group_rows = []
        for start, stop in _split_points(index.num_nodes, cuts):
            values = {
                label: index.node_closeness_centrality(label, **kwargs)
                for label in labels[start:stop]
            }
            group_rows.append([
                [label, value]
                for label, value in top_k_central_nodes(
                    values, count, largest=largest
                )
            ])
        merged = merge_top_central(group_rows, count, largest=largest)
        expected = [
            [label, value]
            for label, value in index.top_central(
                count, largest=largest, **kwargs
            )
        ]
        assert merged == expected

    def test_ties_keep_documented_order(self):
        # Pure-function check with manufactured ties: equal values
        # order by label repr, ascending for largest=True.
        rows = [[["b", 1.0], ["a", 1.0]], [["c", 1.0], ["d", 0.5]]]
        assert merge_top_central(rows, 3) == [
            ["a", 1.0], ["b", 1.0], ["c", 1.0]
        ]
        assert merge_top_central(rows, 3, largest=False) == [
            ["d", 0.5], ["a", 1.0], ["b", 1.0]
        ]


class TestNeighborhoodChainProperty:
    @settings(max_examples=30, deadline=None)
    @given(cuts=st.lists(st.integers(0, 10_000), max_size=5))
    def test_chained_accumulation_equals_single_sweep(
        self, flavored_index, cuts
    ):
        # The router's /nf-chain protocol: fold each range's jumps on
        # top of the previous ranges' sums, in shard order, then
        # prefix-sum once.  Must replay the single-index float-op
        # sequence exactly for every split.
        index = flavored_index
        jumps = {}
        for start, stop in _split_points(index.num_nodes, cuts):
            index.accumulate_neighborhood_jumps(jumps, start, stop)
        series, running = [], 0.0
        for d in sorted(jumps):
            running += jumps[d]
            series.append((d, running))
        assert series == index.neighborhood_function()


class TestEndToEndByteIdentity:
    def _raw(self, server, path, accept):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        conn.request("GET", path, headers={"Accept": accept})
        response = conn.getresponse()
        payload = (response.status, response.read())
        conn.close()
        return payload

    def test_cluster_bytes_equal_single_server_bytes(
        self, flavored_index
    ):
        # The strongest form of the identity: not "equal floats" but
        # the same bytes on the wire, JSON and binary, for all four
        # query endpoints (first hits, so cache flags agree too).
        index = flavored_index
        with AdsServer(index, cache_size=4) as single:
            with start_cluster(
                index, workers=3, cache_size=4
            ) as cluster:
                for path in (
                    "/cardinality",
                    "/closeness?kind=harmonic",
                    "/neighborhood",
                    "/top-central?count=15",
                    "/node/7",
                ):
                    for accept in (
                        "application/json",
                        "application/x-repro-wire",
                    ):
                        assert self._raw(single, path, accept) == \
                            self._raw(cluster, path, accept), path


class TestSingleNodeRouting:
    def test_every_node_routes_to_its_owner(self, flavored_index):
        # Per-node answers must come from the owning shard regardless
        # of where the label falls; probing every node crosses all
        # three boundaries.
        index = flavored_index
        with start_cluster(index, workers=3, cache_size=0) as cluster:
            with cluster.client() as client:
                for label in index.nodes():
                    assert client.cardinality(node=label, d=2.0)[
                        "value"
                    ] == index.node_cardinality_at(label, 2.0)


class TestOneHandlerSet:
    """Single server and router answer with the same handler code;
    only the fetch behind a handler differs."""

    @pytest.mark.parametrize("name", [
        "_cardinality", "_closeness", "_neighborhood", "_nf_curve",
        "_top_central", "_similarity", "_distance", "_similar",
        "_node_summary",
    ])
    def test_read_handlers_are_inherited_not_overridden(self, name):
        shared = getattr(ServerBase, name)
        assert getattr(AdsServer, name) is shared
        assert getattr(RouterServer, name) is shared


class TestScatter:
    def test_values_return_in_request_order(self, graph):
        # The one scatter helper through both its callers: a node batch
        # (owned label by label) and a pair batch (owned by first
        # node), with duplicates, pairs straddling groups, and a group
        # that receives nothing at all.
        index = AdsIndex.build(graph, 8)
        n = index.num_nodes
        low, mid, high = 1, n // 2, n - 2  # one node per shard group
        with start_cluster(index, workers=3, cache_size=0) as cluster:
            router = cluster.router
            owners = [router._owner_group(x) for x in (low, mid, high)]
            assert len(set(owners)) == 3
            asked = []
            fan_out = router._fan_out

            def spy(requests):
                asked.append([request[0] for request in requests])
                return fan_out(requests)

            router._fan_out = spy

            labels = [high, low, high, low + 1, high, low]
            assert router._fetch_batch_cardinality(labels, 2.0) == \
                index.nodes_cardinality_at(labels, 2.0)
            # First-seen group order, and the middle group untouched.
            assert asked.pop() == [owners[2], owners[0]]

            pairs = [(high, low), (low, high), (high, mid), (low, low),
                     (high, low)]
            fields = {"metric": "jaccard", "d": 2.0}
            assert router._fetch_pair_values(
                "/similarity", pairs, fields
            ) == index.pairs_neighborhood_jaccard(pairs, 2.0)
            assert asked.pop() == [owners[2], owners[0]]
            assert router._fetch_pair_values("/distance", pairs, {}) == \
                index.pairs_distance_estimate(pairs)


    def test_unreachable_distance_is_null_through_the_router(self):
        # Workers answer null for an unreachable pair; the router hands
        # the shared handler inf, as a local index would, and the
        # handler writes the null -- same payload either way.
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (3, 4), (4, 5)], directed=False
        )
        index = AdsIndex.build(graph, 4)
        body = json.dumps({"pairs": [[0, 4], [0, 2], [5, 1]]}).encode()
        single = AdsServer(index)
        try:
            expected = single.handle_request("POST", "/distance", body)
        finally:
            single.close()
        assert [row[2] is None for row in expected[1]["results"]] == \
            [True, False, True]
        with start_cluster(index, workers=2) as cluster:
            assert cluster.router.handle_request(
                "POST", "/distance", body
            ) == expected


class TestLabelDirectory:
    def test_contains_and_ids(self):
        directory = LabelDirectory(["a", "b", "c"])
        assert "b" in directory and "z" not in directory
        assert directory.id_of("c") == 2
        assert len(directory) == 3

    def test_append_interns_once(self):
        directory = LabelDirectory([0, 1])
        assert directory.append(2) is True
        assert directory.append(2) is False
        assert directory.id_of(2) == 2

    def test_label_type_uniformity(self):
        assert LabelDirectory([1, 2]).label_type() is int
        assert LabelDirectory(["a", "b"]).label_type() is str
        assert LabelDirectory([1, "a"]).label_type() is None
        # bools are not int labels
        assert LabelDirectory([True, 2]).label_type() is None

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ReproError):
            LabelDirectory([0, 1, 0])


class TestTopologyValidation:
    def test_non_contiguous_groups_rejected(self):
        with pytest.raises(ReproError, match="contiguous"):
            RouterServer(
                list(range(10)),
                [((0, 4), ["http://x:1"]), ((5, None), ["http://x:2"])],
            )

    def test_gap_at_zero_rejected(self):
        with pytest.raises(ReproError, match="starts at 1"):
            RouterServer(list(range(10)), [((1, None), ["http://x:1"])])

    def test_last_group_must_cover_the_tail(self):
        with pytest.raises(ReproError, match="must end at 10"):
            RouterServer(
                list(range(10)),
                [((0, 5), ["http://x:1"]), ((5, 8), ["http://x:2"])],
            )

    def test_closed_last_group_normalises_to_open(self, flavored_index):
        index = flavored_index
        n = index.num_nodes
        with AdsServer(index, node_range=(0, None)) as worker:
            router = RouterServer(
                index.nodes(), [((0, n), [worker.url])]
            )
            try:
                last = router._membership.groups[-1]
                assert last.stop is None  # owns future appended nodes
            finally:
                router.close()

    def test_stats_reports_topology(self, flavored_index):
        index = flavored_index
        with start_cluster(
            index, workers=2, replicas=2, cache_size=0
        ) as cluster:
            with cluster.client() as client:
                stats = client.stats()
            topology = stats["cluster"]
            assert [g["range"] for g in topology["groups"]] == [
                "[0, 30)", f"[30, {index.num_nodes})"
            ]
            assert all(
                len(g["replicas"]) == 2 for g in topology["groups"]
            )
            assert topology["rpc"]["wire"] == "binary"
            assert stats["index"]["nodes"] == index.num_nodes
            assert "node_range" not in stats["index"]
