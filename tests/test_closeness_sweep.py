"""The closeness-similarity merge sweep vs the per-object reference.

``AdsIndex.pairs_closeness_similarity`` walks two distance-sorted
slices once (``repro.ads.kernels.pure.closeness_sweep``); the oracle is
:func:`repro.centrality.similarity.closeness_similarity`, which
re-extracts both MinHash sketches per grid distance.  Equality is exact
(``==`` on floats) for every graph shape the sweep branches on:

* weighted -- all-distinct distances, one entry per grid step;
* unit -- tied-distance groups folded in together;
* directed and disconnected -- slices of very different lengths,
  isolated nodes whose only entry is themselves;

on both backends, every load mode, and again after ``apply_edges``.
Index columns always satisfy the ADS inclusion invariant, so a second
property test feeds the sweep hand-made slices that do not.
"""

import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.ads import AdsIndex
from repro.ads.kernels import numpy_available, pure
from repro.centrality.similarity import closeness_similarity
from repro.errors import EstimatorError
from repro.graph import path_graph
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
SHAPES = ["weighted", "unit", "directed", "disconnected"]


def _random_case(seed, shape):
    """A random graph of the given shape plus two insertion batches."""
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    directed = shape == "directed"

    def weight():
        # Irrational-looking weights: path sums almost never collide.
        return 0.5 + rng.random() if shape == "weighted" else 1.0

    def edge(lo, hi):
        u, v = rng.randrange(lo, hi), rng.randrange(lo, hi)
        return (u, v, weight()) if u != v else None

    if shape == "disconnected":
        # Two components and node n-1 left isolated.
        half = max(2, (n - 1) // 2)
        spans = [(0, half), (half, max(half + 1, n - 1))]
    else:
        spans = [(0, n)]
    base = [
        edge(lo, hi) for lo, hi in spans for _ in range(2 * (hi - lo))
    ]
    batches = [
        [edge(lo, hi) for lo, hi in spans for _ in range(3)]
        for _ in range(2)
    ]
    graph = CSRGraph.from_edges(
        [e for e in base if e], directed=directed, nodes=range(n)
    )
    return graph, [[e for e in batch if e] for batch in batches]


def _all_pairs(index):
    labels = list(index.nodes())
    return [(u, v) for u in labels for v in labels]


def _reference(index, pairs):
    ads_set = index.to_ads_set()
    return [closeness_similarity(ads_set[u], ads_set[v]) for u, v in pairs]


def _assert_every_load_mode(index, backend, directory, pairs):
    """The eager index and its mmap-single and mmap-sharded reloads all
    answer *pairs* exactly like the per-object reference."""
    directory.mkdir()
    flat, sharded = directory / "flat.adsidx", directory / "sharded"
    index.save(flat)
    index.save(sharded, shards=3)
    expected = _reference(index, pairs)
    for mode, loaded in (
        ("eager", index),
        ("mmap-single", AdsIndex.load(flat, mmap=True, backend=backend)),
        ("mmap-sharded", AdsIndex.load(sharded, mmap=True, backend=backend)),
    ):
        assert loaded.pairs_closeness_similarity(pairs) == expected, mode


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", [1, 2, 8])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sweep_equals_reference(backend, shape, k, seed):
    graph, batches = _random_case(seed, shape)
    index = AdsIndex.build(
        graph, k, family=HashFamily(seed), backend=backend
    )
    pairs = _all_pairs(index)
    with tempfile.TemporaryDirectory() as scratch:
        _assert_every_load_mode(index, backend, Path(scratch) / "built", pairs)
        for batch in batches:
            index.apply_edges(graph, batch)
        _assert_every_load_mode(
            index, backend, Path(scratch) / "updated", pairs
        )


def _per_threshold(slice_a, slice_b, k):
    """The loop the sweep replaced, kept as the oracle for slices no
    index would hold: both sketches re-extracted at every grid step."""
    (dist_a, keys_a), (dist_b, keys_b) = slice_a, slice_b
    keys = keys_a + keys_b
    # A rank is a function of the node: the ops take the per-node
    # table beside the views and gather through the node column.
    rank_of = {node: rank for rank, node in keys}
    ranks = [rank_of.get(node, 1.0) for node in range(max(rank_of, default=-1) + 1)]
    distances = dist_a + dist_b
    views = pure.Columns.flat(
        [0, len(keys_a), len(keys)],
        distances,
        [1.0] * len(distances),  # HIP weights: not read by MinHash extraction
        node=[node for _, node in keys],
    )
    grid = sorted(set(dist_a) | set(dist_b))
    total = 0.0
    for threshold in grid:
        total += pure.union_jaccard(
            pure.minhash_for_slice(views, ranks, 0, threshold, k),
            pure.minhash_for_slice(views, ranks, 1, threshold, k),
            k,
        )
    return total / len(grid) if grid else 0.0


_raw_slice = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]), st.integers(0, 15)),
    max_size=12,
    unique_by=lambda entry: entry[1],
)


@settings(max_examples=300, deadline=None)
@given(raw_a=_raw_slice, raw_b=_raw_slice, k=st.integers(1, 4))
def test_sweep_does_not_assume_the_inclusion_invariant(raw_a, raw_b, k):
    # Arbitrary distance-sorted slices: entries that never make their
    # prefix's bottom-k, ties in any order, empty sides.  A node's rank
    # is a function of the node, as the hash family guarantees.
    def as_slice(raw):
        raw = sorted(raw, key=lambda entry: entry[0])
        return (
            [distance for distance, _ in raw],
            [(random.Random(node).random(), node) for _, node in raw],
        )

    slice_a, slice_b = as_slice(raw_a), as_slice(raw_b)
    assert pure.closeness_sweep(slice_a, slice_b, k) == _per_threshold(
        slice_a, slice_b, k
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestPinnedAnswers:
    def test_node_with_itself_is_one(self, backend):
        graph, _ = _random_case(5, "weighted")
        index = AdsIndex.build(graph, 2, family=HashFamily(5), backend=backend)
        pairs = [(u, u) for u in index.nodes()]
        assert index.pairs_closeness_similarity(pairs) == [1.0] * len(pairs)

    def test_isolated_against_isolated(self, backend):
        # Each sketch holds only its own node, both at distance 0: one
        # grid step, a two-key union, nothing shared.
        graph = CSRGraph.from_edges([(0, 1)], nodes=range(4))
        index = AdsIndex.build(graph, 8, family=HashFamily(1), backend=backend)
        assert index.pairs_closeness_similarity([(2, 3), (3, 3)]) == [0.0, 1.0]
        assert _reference(index, [(2, 3)]) == [0.0]

    def test_duplicate_pairs_in_one_batch(self, backend):
        # Slices are extracted once per distinct node and reused; the
        # sweep must not consume or mutate them.
        graph, _ = _random_case(11, "unit")
        index = AdsIndex.build(graph, 2, family=HashFamily(11), backend=backend)
        batch = [(0, 1), (1, 0), (0, 1), (1, 1), (0, 1)]
        values = index.pairs_closeness_similarity(batch)
        assert values == _reference(index, batch)
        assert values[0] == values[2] == values[4]
        assert values == index.pairs_closeness_similarity(batch)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_never_reaches_per_threshold_extraction(backend, monkeypatch):
    """The quadratic path (one MinHash extraction per grid distance)
    must not come back, not even as a fallback."""

    def refuse(*args, **kwargs):
        raise AssertionError("closeness similarity re-extracted a sketch")

    # One implementation, reached from both backends' indexes.
    monkeypatch.setattr(pure, "minhash_for_slice", refuse)
    index = AdsIndex.build(
        path_graph(6).to_csr(), 2, family=HashFamily(3), backend=backend
    )
    values = index.pairs_closeness_similarity(_all_pairs(index))
    assert all(0.0 <= value <= 1.0 for value in values)
    with pytest.raises(AssertionError):
        index.pairs_neighborhood_jaccard([(0, 1)])  # the patch is live


class TestPairApiRefusals:
    """Bad input to the pair APIs is an ``EstimatorError``, never a raw
    unpacking error or a silently reinterpreted threshold."""

    @pytest.fixture(scope="class")
    def index(self):
        return AdsIndex.build(path_graph(4).to_csr(), 4)

    @pytest.mark.parametrize(
        "pairs, position",
        [([(0, 1, 2)], 0), ([(0, 1), (0,)], 1), ([(0, 1), (1, 2), 5], 2)],
    )
    @pytest.mark.parametrize(
        "method",
        [
            "pairs_distance_estimate",
            "pairs_neighborhood_jaccard",
            "pairs_union_size_estimate",
            "pairs_closeness_similarity",
        ],
    )
    def test_malformed_pair_names_its_position(
        self, index, method, pairs, position
    ):
        with pytest.raises(EstimatorError, match=rf"pairs\[{position}\]"):
            getattr(index, method)(pairs)

    def test_nan_threshold_is_refused(self, index):
        with pytest.raises(EstimatorError, match="NaN"):
            index.pairs_neighborhood_jaccard([(0, 1)], d=math.nan)
        with pytest.raises(EstimatorError, match="NaN"):
            index.pairs_union_size_estimate([(0, 1)], d=math.nan)
        with pytest.raises(EstimatorError, match="NaN"):
            index.most_similar(0, count=2, d=math.nan)
        # inf stays the documented "full reachable set" default.
        assert index.pairs_neighborhood_jaccard([(0, 1)], d=math.inf) == [1.0]
