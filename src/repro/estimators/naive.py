"""The naive reachable-set MinHash baseline for Q_g (introduction, §5.1).

The paper's point of comparison for general statistics: take the bottom-k
MinHash sketch of *all* reachable nodes (a uniform k-sample), average
g(j, d_ij) over the k samples and multiply by a cardinality estimate of
the reachable set.  Because the sample ignores distance, statistics
concentrated on close nodes suffer up to an (n/k)-fold variance penalty
versus HIP -- the gap the benchmark `bench_table_qg` measures.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Sequence, Tuple

from repro._util import require
from repro.errors import EstimatorError
from repro.estimators.basic import bottom_k_cardinality


def naive_q_statistic(
    entries: Sequence[Tuple[float, Hashable, float]],
    k: int,
    g: Callable[[Hashable, float], float],
    include_source: bool = True,
) -> float:
    """Estimate Q_g from the k globally-smallest-rank ADS entries.

    Parameters
    ----------
    entries:
        ``(rank, node, distance)`` triples -- normally every entry of a
        bottom-k ADS; the k smallest ranks among them form exactly the
        bottom-k MinHash sketch of the reachable set.
    k:
        Sketch size.
    g:
        The statistic's kernel g(node, distance) >= 0.

    Returns ``n_hat * mean(g over the k sampled nodes)`` where ``n_hat``
    is the basic bottom-k estimate of the number of reachable nodes.
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    if not entries:
        return 0.0
    sample = sorted(entries)[:k]
    tau = sample[-1][0] if len(sample) >= k else 1.0
    n_hat = bottom_k_cardinality(len(sample), tau, k)
    values: List[float] = []
    for rank, node, dist in sample:
        if not include_source and dist == 0.0:
            continue
        value = float(g(node, dist))
        if not value >= 0.0:  # negative or NaN
            raise EstimatorError(f"g must be nonnegative (got {value})")
        values.append(value)
    if not values:
        return 0.0
    # When the sketch is exact (fewer than k reachable nodes) return the
    # exact sum instead of the sample-mean extrapolation.
    if len(sample) < k:
        return sum(values)
    return n_hat * sum(values) / len(sample)
