"""Tests for Q_g / C_{alpha,beta} estimation and the naive baseline."""


import pytest

from repro.errors import EstimatorError
from repro.estimators.naive import naive_q_statistic
from repro.estimators.statistics import (
    closeness_centrality_estimate,
    exponential_decay_kernel,
    harmonic_kernel,
    inverse_polynomial_kernel,
    neighborhood_kernel,
    q_statistic_estimate,
    reachability_kernel,
)


class TestKernels:
    def test_neighborhood(self):
        alpha = neighborhood_kernel(3.0)
        assert alpha(0.0) == 1.0
        assert alpha(3.0) == 1.0
        assert alpha(3.1) == 0.0

    def test_reachability(self):
        alpha = reachability_kernel()
        assert alpha(10.0) == 1.0

    def test_exponential(self):
        alpha = exponential_decay_kernel()
        assert alpha(0.0) == 1.0
        assert alpha(1.0) == 0.5
        assert alpha(3.0) == 0.125
        scaled = exponential_decay_kernel(half_life=2.0)
        assert scaled(2.0) == 0.5

    def test_exponential_domain(self):
        with pytest.raises(EstimatorError):
            exponential_decay_kernel(0.0)

    def test_harmonic(self):
        alpha = harmonic_kernel()
        assert alpha(4.0) == 0.25
        assert alpha(0.0) == 0.0

    def test_inverse_polynomial(self):
        alpha = inverse_polynomial_kernel(2.0)
        assert alpha(2.0) == 0.25
        with pytest.raises(EstimatorError):
            inverse_polynomial_kernel(0.0)


class TestQStatistic:
    def test_exact_when_weights_exact(self):
        nodes = ["s", "a", "b"]
        distances = [0.0, 1.0, 2.0]
        weights = [1.0, 1.0, 1.0]  # "perfect" sketch: everything sampled
        value = q_statistic_estimate(
            nodes, distances, weights, lambda n, d: d
        )
        assert value == 3.0

    def test_source_exclusion(self):
        nodes = ["s", "a"]
        distances = [0.0, 2.0]
        weights = [1.0, 1.5]
        with_source = q_statistic_estimate(
            nodes, distances, weights, lambda n, d: 1.0
        )
        without = q_statistic_estimate(
            nodes, distances, weights, lambda n, d: 1.0, include_source=False
        )
        assert with_source == 2.5
        assert without == 1.5

    def test_negative_g_rejected(self):
        with pytest.raises(EstimatorError):
            q_statistic_estimate(["a"], [1.0], [1.0], lambda n, d: -1.0)

    def test_nan_g_rejected(self):
        # ``nan < 0`` is false: the guard has to be ``not value >= 0``.
        with pytest.raises(EstimatorError, match="nonnegative .got nan"):
            q_statistic_estimate(
                ["a"], [1.0], [1.0], lambda n, d: float("nan")
            )
        assert q_statistic_estimate(
            ["a"], [1.0], [2.0], lambda n, d: float("inf")
        ) == float("inf")

    def test_length_mismatch(self):
        with pytest.raises(EstimatorError):
            q_statistic_estimate(["a"], [1.0, 2.0], [1.0], lambda n, d: 1.0)


class TestClosenessEstimate:
    def test_default_is_sum_of_distances(self):
        value = closeness_centrality_estimate(
            ["s", "a", "b"], [0.0, 1.0, 3.0], [1.0, 1.0, 2.0]
        )
        assert value == 1.0 + 6.0

    def test_alpha_beta(self):
        value = closeness_centrality_estimate(
            ["s", "a", "b"],
            [0.0, 1.0, 2.0],
            [1.0, 1.0, 1.0],
            alpha=lambda d: 2.0 ** (-d),
            beta=lambda n: 2.0 if n == "b" else 1.0,
        )
        assert value == pytest.approx(0.5 + 2 * 0.25)


class TestNaiveBaseline:
    def test_small_set_exact(self):
        entries = [(0.1, "s", 0.0), (0.4, "a", 1.0)]
        value = naive_q_statistic(entries, 5, lambda n, d: d)
        assert value == 1.0  # fewer than k entries: exact sum

    def test_sample_mean_extrapolation(self):
        # 3 samples of g-values 1,1,1 with tau -> n_hat * 1
        entries = [(0.1, "a", 1.0), (0.2, "b", 2.0), (0.3, "c", 3.0),
                   (0.9, "d", 4.0)]
        value = naive_q_statistic(entries, 3, lambda n, d: 1.0)
        n_hat = (3 - 1) / 0.3
        assert value == pytest.approx(n_hat)

    def test_empty(self):
        assert naive_q_statistic([], 4, lambda n, d: d) == 0.0

    def test_negative_g_rejected(self):
        with pytest.raises(EstimatorError):
            naive_q_statistic([(0.1, "a", 1.0)], 1, lambda n, d: -2.0)

    def test_nan_g_rejected(self):
        with pytest.raises(EstimatorError, match="nonnegative .got nan"):
            naive_q_statistic(
                [(0.1, "a", 1.0)], 1, lambda n, d: float("nan")
            )
