"""The similarity / distance-oracle service tier.

Three layers are held to account here:

* **Kernels vs reference** -- hypothesis drives the batch kernel
  results (``pairs_neighborhood_jaccard``, ``pairs_union_size_estimate``,
  ``pairs_closeness_similarity``, ``pairs_distance_estimate``) against
  the per-object reference estimators in
  :mod:`repro.centrality.similarity` and the sketch definitions in
  :mod:`repro.ads.base`, on every installed backend.  Equality is
  exact (``==`` on floats), not approximate: both sides must execute
  the same float-op sequence.
* **Service parity** -- every new endpoint answers identically (same
  payloads) through a single server in both dispatch modes and the
  sharded cluster router; the raw response *bytes* are
  ``handle_request``'s payload encoded and match between single
  server and cluster on both wire codecs, refusals included.
* **Flavor gating** -- similarity needs bottom-k sketches; the other
  flavors refuse with a clean 409 on every deployment, and the legacy
  ``most_similar_nodes`` wrapper agrees with the batch layer.
"""

import http.client
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cluster_harness import SINGLE_SERVER_FLAVORS, start_cluster
from repro.ads import AdsIndex
from repro.ads.kernels import numpy_available
from repro.centrality.similarity import (
    closeness_similarity,
    most_similar_nodes,
    neighborhood_jaccard,
)
from repro.errors import EstimatorError
from repro.estimators.basic import bottom_k_cardinality
from repro.graph import barabasi_albert_graph
from repro.rand.hashing import HashFamily
from repro.serve import AdsServer, QueryClient, wire

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

N, K = 90, 8


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(N, 3, seed=11).to_csr()


@pytest.fixture(scope="module", params=BACKENDS)
def index(graph, request):
    return AdsIndex.build(
        graph, K, family=HashFamily(4), backend=request.param
    )


@pytest.fixture(scope="module")
def ads_set(index):
    return index.to_ads_set()


# ----------------------------------------------------------------------
# Kernel vs reference estimators (per-backend, exact equality)
# ----------------------------------------------------------------------
class TestKernelsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(
        u=st.integers(0, N - 1),
        v=st.integers(0, N - 1),
        d=st.one_of(
            st.just(math.inf), st.floats(0.0, 6.0, allow_nan=False)
        ),
    )
    def test_jaccard_matches_reference(self, index, ads_set, u, v, d):
        (value,) = index.pairs_neighborhood_jaccard([(u, v)], d)
        assert value == neighborhood_jaccard(ads_set[u], ads_set[v], d)

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.integers(0, N - 1),
        v=st.integers(0, N - 1),
        d=st.one_of(
            st.just(math.inf), st.floats(0.0, 6.0, allow_nan=False)
        ),
    )
    def test_union_size_matches_sketch_definition(
        self, index, ads_set, u, v, d
    ):
        # The union bottom-k built from the two reference MinHash
        # sketches, fed through the basic bottom-k estimator -- the
        # paper's union-cardinality recipe, object by object.
        (value,) = index.pairs_union_size_estimate([(u, v)], d)
        merged = {}
        for rank, node in ads_set[u].minhash_at(d) + ads_set[v].minhash_at(d):
            merged[node] = rank
        union = sorted(
            (rank, node) for node, rank in merged.items()
        )[:K]
        tau = union[-1][0] if len(union) == K else index.rank_sup
        assert value == bottom_k_cardinality(
            len(union), tau, K, sup=index.rank_sup
        )

    @settings(max_examples=30, deadline=None)
    @given(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def test_closeness_similarity_matches_reference(
        self, index, ads_set, u, v
    ):
        (value,) = index.pairs_closeness_similarity([(u, v)])
        assert value == closeness_similarity(ads_set[u], ads_set[v])

    @settings(max_examples=30, deadline=None)
    @given(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def test_distance_is_min_over_common_entries(
        self, index, ads_set, u, v
    ):
        (value,) = index.pairs_distance_estimate([(u, v)])
        du = {e.node: e.distance for e in ads_set[u].entries}
        best = math.inf
        for e in ads_set[v].entries:
            if e.node in du:
                best = min(best, du[e.node] + e.distance)
        assert value == best
        # A 2-hop-cover bound: the pair's own entries make it exact
        # for d(u, u), and every estimate dominates 0.
        assert value >= 0.0
        (self_distance,) = index.pairs_distance_estimate([(u, u)])
        assert self_distance == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        query=st.integers(0, N - 1),
        count=st.integers(1, 12),
        d=st.one_of(
            st.just(math.inf), st.floats(1.0, 4.0, allow_nan=False)
        ),
    )
    def test_legacy_wrapper_agrees_with_batch_layer(
        self, index, ads_set, query, count, d
    ):
        # most_similar_nodes over the index delegates to the batch
        # kernels; over a plain ADS dict it runs the legacy object
        # scan.  Same ranking, same floats, same tie-break.
        assert most_similar_nodes(index, query, d, count=count) == \
            most_similar_nodes(ads_set, query, d, count=count)

    def test_non_bottomk_index_refuses(self, graph):
        kmins = AdsIndex.build(graph, K, flavor="kmins")
        with pytest.raises(EstimatorError, match="bottom-k"):
            kmins.pairs_neighborhood_jaccard([(0, 1)], 1.0)
        with pytest.raises(EstimatorError, match="bottom-k"):
            kmins.most_similar(0)


# ----------------------------------------------------------------------
# Service parity across the three deployment flavors
# ----------------------------------------------------------------------
@pytest.fixture(
    scope="module", params=["threaded", "async", "cluster"]
)
def server(index, request):
    if request.param == "cluster":
        with start_cluster(index, workers=2, cache_size=16) as cluster:
            yield cluster
        return
    # "async": AdsServer as shipped (inline on the event loop);
    # "threaded": the same server on the chassis's thread executor.
    server_class = SINGLE_SERVER_FLAVORS[request.param]
    with server_class(index, port=0, cache_size=16) as running:
        yield running


@pytest.fixture()
def client(server):
    with QueryClient(server.url) as running:
        yield running


PAIRS = [[0, 5], [3, 3], [10, 89], [89, 2]]


class TestEndpoints:
    def test_similarity_jaccard_matches_index(self, client, index):
        response = client.similarity_batch(PAIRS, d=2.0)
        assert response["metric"] == "jaccard"
        assert response["d"] == 2.0
        expected = index.pairs_neighborhood_jaccard(
            [tuple(p) for p in PAIRS], 2.0
        )
        assert response["results"] == [
            [u, v, value] for (u, v), value in zip(PAIRS, expected)
        ]

    def test_similarity_default_d_is_infinite(self, client, index):
        response = client.similarity_batch(PAIRS)
        assert response["d"] is None  # JSON null encodes inf
        expected = index.pairs_neighborhood_jaccard(
            [tuple(p) for p in PAIRS], math.inf
        )
        assert [row[2] for row in response["results"]] == expected

    def test_similarity_closeness_metric(self, client, index):
        response = client.similarity_batch(PAIRS, metric="closeness")
        assert response["metric"] == "closeness"
        assert "d" not in response
        expected = index.pairs_closeness_similarity(
            [tuple(p) for p in PAIRS]
        )
        assert [row[2] for row in response["results"]] == expected

    def test_distance_matches_index(self, client, index):
        response = client.distance_batch(PAIRS)
        expected = index.pairs_distance_estimate(
            [tuple(p) for p in PAIRS]
        )
        assert response["results"] == [
            [u, v, value if math.isfinite(value) else None]
            for (u, v), value in zip(PAIRS, expected)
        ]

    def test_similar_matches_index(self, client, index):
        response = client.similar(5, count=7, d=2.0)
        assert response["node"] == 5
        assert response["results"] == [
            [node, value]
            for node, value in index.most_similar(5, count=7, d=2.0)
        ]

    def test_nf_curve_matches_index_series(self, client, index):
        response = client.nf_curve()
        series = index.neighborhood_function()
        total = series[-1][1]
        assert response["total_pairs"] == total
        assert response["points"] == [
            [d, running, running / total] for d, running in series
        ]

    def test_unknown_pair_node_is_404(self, client):
        with pytest.raises(Exception) as info:
            client.distance_batch([[0, 4242]])
        assert info.value.status == 404

    def test_malformed_pairs_are_400(self, client):
        for payload in ([], [[0]], [[0, 1, 2]], "nope"):
            with pytest.raises(Exception) as info:
                client.similarity_batch(payload)
            assert info.value.status == 400

    def test_bogus_metric_is_400(self, client):
        with pytest.raises(Exception) as info:
            client.similarity_batch(PAIRS, metric="cosine")
        assert info.value.status == 400

    def test_d_with_closeness_is_400(self, client):
        with pytest.raises(Exception) as info:
            client.similarity_batch(PAIRS, metric="closeness", d=1.0)
        assert info.value.status == 400


# ----------------------------------------------------------------------
# Raw bytes: socket == handle_request == cluster router, both codecs
# ----------------------------------------------------------------------
def _raw(server, method, path, body=None, accept="application/json"):
    conn = http.client.HTTPConnection(
        server.host, server.port, timeout=10
    )
    headers = {"Accept": accept}
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    payload = (response.status, response.read())
    conn.close()
    return payload


REQUESTS = (
    ("POST", "/similarity", {"pairs": PAIRS}),
    ("POST", "/similarity", {"pairs": PAIRS, "d": 2.0}),
    ("POST", "/similarity", {"pairs": PAIRS, "metric": "closeness"}),
    ("POST", "/distance", {"pairs": PAIRS}),
    ("GET", "/similar/5?count=7&d=2.0", None),
    ("GET", "/nf-curve", None),
    # Refusal parity: unregistered path, malformed pairs, bad metric,
    # d on the wrong metric -- same status, same bytes, everywhere.
    ("GET", "/similarities", None),
    ("POST", "/similarity", {"pairs": []}),
    ("POST", "/similarity", {"pairs": PAIRS, "metric": "cosine"}),
    ("POST", "/similarity",
     {"pairs": PAIRS, "metric": "closeness", "d": 1.0}),
    ("POST", "/distance", {"pairs": [[0, 4242]]}),
)


class TestByteIdentity:
    def test_all_transports_answer_identical_bytes(self, index):
        # The socket carries exactly what handle_request returns (the
        # call in-process callers make), and the cluster router's
        # merged answer is those same bytes.  cache_size=0: one
        # request is asked three times and "cached" must not drift.
        with AdsServer(index, cache_size=0) as single, \
                start_cluster(index, workers=3, cache_size=0) as cluster:
            for method, path, body in REQUESTS:
                data = (
                    json.dumps(body).encode("utf-8")
                    if body is not None else None
                )
                for accept in (
                    "application/json", "application/x-repro-wire"
                ):
                    status, payload = single.handle_request(
                        method, path, data,
                        content_type="application/json",
                    )
                    reference = (
                        status, wire.encode_response(payload, accept)[0]
                    )
                    assert _raw(
                        single, method, path, body, accept
                    ) == reference, (method, path, accept)
                    assert _raw(
                        cluster, method, path, body, accept
                    ) == reference, (method, path, accept)


class TestFlavorGating:
    @pytest.fixture(
        scope="class", params=["kmins", "kpartition"]
    )
    def wrong_flavor_servers(self, graph, request):
        index = AdsIndex.build(graph, K, flavor=request.param)
        with AdsServer(index, cache_size=4) as single, \
                start_cluster(index, workers=2, cache_size=4) as cluster:
            yield single, cluster

    def test_similarity_refuses_409_everywhere(
        self, wrong_flavor_servers
    ):
        for server in wrong_flavor_servers:
            for method, path, body in (
                ("POST", "/similarity", {"pairs": PAIRS}),
                ("POST", "/distance", {"pairs": PAIRS}),
                ("GET", "/similar/5", None),
            ):
                status, raw = _raw(server, method, path, body)
                assert status == 409, (path, raw)
                assert b"bottom-k" in raw

    def test_409_bytes_match_across_transports(
        self, wrong_flavor_servers
    ):
        single, cluster = wrong_flavor_servers
        for method, path, body in (
            ("POST", "/similarity", {"pairs": PAIRS}),
            ("GET", "/similar/5", None),
        ):
            assert _raw(single, method, path, body) == \
                _raw(cluster, method, path, body)
