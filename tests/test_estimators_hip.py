"""Tests for HIP adjusted weights (Section 5)."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EstimatorError
from repro.estimators.hip import (
    bottom_k_adjusted_weights,
    hip_cardinality,
    hip_statistic,
    k_mins_adjusted_weights,
    k_partition_adjusted_weights,
)


class TestBottomKWeights:
    def test_first_k_have_weight_one(self):
        rng = random.Random(1)
        ranks = [rng.random() for _ in range(50)]
        weights = bottom_k_adjusted_weights(ranks, 8)
        assert weights[:8] == [1.0] * 8

    def test_weights_nondecreasing_along_scan(self):
        # inclusion gets harder with distance, so 1/tau grows
        rng = random.Random(2)
        ranks = [rng.random() for _ in range(500)]
        weights = bottom_k_adjusted_weights(ranks, 5)
        assert all(
            weights[i + 1] >= weights[i] - 1e-12
            for i in range(len(weights) - 1)
        )

    def test_matches_manual_threshold(self):
        ranks = [0.9, 0.5, 0.2, 0.7, 0.1]
        weights = bottom_k_adjusted_weights(ranks, 2)
        # entry 2 (rank 0.2): 2nd smallest of {0.9, 0.5} = 0.9
        assert weights[2] == pytest.approx(1 / 0.9)
        # entry 3 (rank 0.7): 2nd smallest of {0.9,0.5,0.2} = 0.5
        assert weights[3] == pytest.approx(1 / 0.5)
        # entry 4: 2nd smallest of {0.9,0.5,0.2,0.7} = 0.5
        assert weights[4] == pytest.approx(1 / 0.5)

    def test_custom_inclusion_probability(self):
        ranks = [0.5, 0.3, 0.2]
        weights = bottom_k_adjusted_weights(
            ranks, 1, inclusion_probability=lambda tau, i: tau / 2
        )
        assert weights[1] == pytest.approx(2 / 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        ranks=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            ),
            max_size=40,
        ),
        k=st.integers(min_value=1, max_value=45),
    )
    def test_uniform_default_equals_explicit_inclusion(self, ranks, k):
        """The default (uniform-rank) call, the same call through an
        explicit ``tau -> tau`` inclusion probability, and a from-scratch
        k-th-smallest reference agree on any rank list -- including ones
        no ADS scan produces (a rank at or above the current k-th
        smallest), k above the list length, and zero ranks, which must
        raise the same error on every path."""

        def outcome(**kwargs):
            try:
                return bottom_k_adjusted_weights(ranks, k, **kwargs)
            except EstimatorError as error:
                return str(error)

        reference = []
        for index in range(len(ranks)):
            tau = 1.0 if index < k else sorted(ranks[:index])[k - 1]
            if not 0.0 < tau <= 1.0:
                reference = (
                    f"HIP probability must be in (0,1], got {tau} at "
                    f"entry {index}"
                )
                break
            reference.append(1.0 if index < k else 1.0 / tau)
        assert outcome() == outcome(
            inclusion_probability=lambda tau, i: tau
        ) == reference

    def test_invalid_probability_rejected(self):
        with pytest.raises(EstimatorError):
            bottom_k_adjusted_weights(
                [0.5, 0.3], 1, inclusion_probability=lambda tau, i: 0.0
            )

    def test_unbiased_stream_estimate(self):
        """Sum of adjusted weights of sketch-entering elements must be
        unbiased for the stream length (the HIP cardinality estimator)."""
        n, k, runs = 800, 6, 500
        values = []
        for seed in range(runs):
            rng = random.Random(seed)
            ranks_all = [rng.random() for _ in range(n)]
            # ADS of the stream = prefix bottom-k membership events
            import heapq

            heap, entry_ranks = [], []
            for r in ranks_all:
                if len(heap) < k:
                    heapq.heappush(heap, -r)
                    entry_ranks.append(r)
                elif r < -heap[0]:
                    heapq.heapreplace(heap, -r)
                    entry_ranks.append(r)
            values.append(sum(bottom_k_adjusted_weights(entry_ranks, k)))
        assert statistics.mean(values) == pytest.approx(n, rel=0.05)

    def test_cv_within_theorem_bound(self):
        n, k, runs = 2000, 16, 300
        values = []
        for seed in range(runs):
            rng = random.Random(10_000 + seed)
            import heapq

            heap, entry_ranks = [], []
            for _ in range(n):
                r = rng.random()
                if len(heap) < k:
                    heapq.heappush(heap, -r)
                    entry_ranks.append(r)
                elif r < -heap[0]:
                    heapq.heapreplace(heap, -r)
                    entry_ranks.append(r)
            values.append(sum(bottom_k_adjusted_weights(entry_ranks, k)))
        cv = statistics.pstdev(values) / statistics.mean(values)
        assert cv < 1.3 / math.sqrt(2 * (k - 1))  # Theorem 5.1 + slack


class TestKMinsWeights:
    def test_source_weight_one(self):
        weights = k_mins_adjusted_weights([[0.5, 0.3]], 2)
        assert weights == [1.0]

    def test_formula(self):
        vectors = [[0.5, 0.8], [0.2, 0.9]]
        weights = k_mins_adjusted_weights(vectors, 2)
        tau = 1 - (1 - 0.5) * (1 - 0.8)
        assert weights[1] == pytest.approx(1 / tau)

    def test_vector_length_checked(self):
        with pytest.raises(EstimatorError):
            k_mins_adjusted_weights([[0.5]], 2)


class TestKPartitionWeights:
    def test_source_weight_one(self):
        assert k_partition_adjusted_weights([(0, 0.4)], 4) == [1.0]

    def test_formula(self):
        entries = [(0, 0.4), (1, 0.6), (0, 0.1)]
        weights = k_partition_adjusted_weights(entries, 2)
        # second entry: minima = [0.4, 1] -> tau = 0.7
        assert weights[1] == pytest.approx(1 / 0.7)
        # third entry: minima = [0.4, 0.6] -> tau = 0.5
        assert weights[2] == pytest.approx(1 / 0.5)

    def test_bucket_range_checked(self):
        with pytest.raises(EstimatorError):
            k_partition_adjusted_weights([(5, 0.1)], 4)


class TestAggregators:
    def test_hip_cardinality_distance_filter(self):
        weights = [1.0, 1.0, 2.0]
        distances = [0.0, 1.0, 5.0]
        assert hip_cardinality(weights, distances, 1.0) == 2.0
        assert hip_cardinality(weights, distances) == 4.0

    def test_hip_statistic(self):
        weights = [1.0, 2.0]
        distances = [0.0, 3.0]
        nodes = ["a", "b"]
        value = hip_statistic(
            weights, distances, nodes, lambda node, d: d * 10
        )
        assert value == pytest.approx(60.0)

    def test_length_mismatch(self):
        with pytest.raises(EstimatorError):
            hip_cardinality([1.0], [1.0, 2.0])
        with pytest.raises(EstimatorError):
            hip_statistic([1.0], [1.0], ["a", "b"], lambda n, d: 1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=10),
)
def test_bottomk_weights_properties(ranks, k):
    weights = bottom_k_adjusted_weights(ranks, k)
    assert len(weights) == len(ranks)
    assert all(w >= 1.0 - 1e-12 for w in weights)  # probabilities <= 1
    assert weights[: min(k, len(ranks))] == [1.0] * min(k, len(ranks))
