"""Historic Inverse Probability (HIP) adjusted weights (Section 5).

For each node j in ADS(i), the HIP probability tau_ij is j's inclusion
probability conditioned on the ranks of all nodes closer to i; the adjusted
weight a_ij = 1/tau_ij is an unbiased presence estimate, and sums of
``a_ij * g(j, d_ij)`` unbiasedly estimate any distance-based statistic Q_g
(Equation 5).

The three flavor-specific weight functions below operate on plain entry
sequences *sorted by the scan order* (increasing distance, ties broken by
the ADS's tiebreak), so they serve both the graph ADS classes and the
stream simulators:

* bottom-k (Lemma 5.1):  tau = kth smallest rank among *scanned* entries;
* k-mins (Equation 7):   tau = 1 - prod_h (1 - min_h);
* k-partition (Eq. 8):   tau = (1/k) sum_h min over scanned in bucket h.

Bottom-k gives the first k scanned nodes weight exactly 1 (tau is the
k-th smallest scanned rank, 1 while fewer than k are scanned); k-mins and
k-partition condition on per-permutation / per-bucket minima, so only the
first scanned node is certain.  All three produce weights non-decreasing
in distance (inclusion gets harder further out).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro._util import require
from repro.errors import EstimatorError


def bottom_k_adjusted_weights(
    ranks: Sequence[float],
    k: int,
    inclusion_probability: Optional[Callable[[float, int], float]] = None,
) -> List[float]:
    """HIP adjusted weights for a bottom-k ADS entry sequence.

    Parameters
    ----------
    ranks:
        Rank of each ADS entry, in scan order (increasing distance from
        the source; the source itself is entry 0 with some rank).
    k:
        The ADS parameter.
    inclusion_probability:
        Maps (threshold tau, entry index) -> P[rank < tau] for that entry.
        Defaults to uniform ranks where the probability is tau itself.
        Exponential / weighted ranks (Section 9) pass
        ``lambda tau, i: -expm1(-beta_i * tau)``.

    Returns one weight per entry, in the same order.
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    # Max-heap (negated) of the k smallest ranks scanned so far.  The
    # first k entries have fewer than k closer nodes (inclusion certain,
    # weight 1) and seed it in one heapify.
    smallest = [-rank for rank in ranks[:k]]
    heapq.heapify(smallest)
    weights = [1.0] * len(smallest)
    for index in range(len(smallest), len(ranks)):
        tau = -smallest[0]
        p = tau if inclusion_probability is None else (
            inclusion_probability(tau, index)
        )
        if not 0.0 < p <= 1.0:
            raise EstimatorError(
                f"HIP probability must be in (0,1], got {p} at entry {index}"
            )
        weights.append(1.0 / p)
        # The scanned entry now belongs to the "closer" set of later ones.
        rank = ranks[index]
        if rank < tau:
            heapq.heapreplace(smallest, -rank)
    return weights


def k_mins_adjusted_weights(
    rank_vectors: Sequence[Sequence[float]], k: int
) -> List[float]:
    """HIP adjusted weights for a k-mins ADS entry sequence (Equation 7).

    ``rank_vectors[i]`` holds entry i's rank under each of the k
    permutations; entries must again be in scan order.  tau_i is
    ``1 - prod_h (1 - m_h)`` with m_h the running minimum of permutation h
    over *previously scanned* entries (1 when none).
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    minima = [1.0] * k
    weights: List[float] = []
    for vector in rank_vectors:
        if len(vector) != k:
            raise EstimatorError(
                f"rank vector length {len(vector)} does not match k={k}"
            )
        p_none = 1.0
        for m in minima:
            p_none *= 1.0 - m
        tau = 1.0 - p_none
        if tau <= 0.0:
            raise EstimatorError("k-mins HIP probability vanished")
        weights.append(1.0 / tau)
        for h in range(k):
            if vector[h] < minima[h]:
                minima[h] = vector[h]
    return weights


def k_partition_adjusted_weights(
    entries: Sequence[Tuple[int, float]], k: int
) -> List[float]:
    """HIP adjusted weights for a k-partition ADS sequence (Equation 8).

    ``entries[i] = (bucket, rank)`` in scan order.  tau_i is the average
    over buckets of the running per-bucket minimum rank among previously
    scanned entries (1 for untouched buckets).
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    minima = [1.0] * k
    weights: List[float] = []
    for bucket, rank in entries:
        if not 0 <= bucket < k:
            raise EstimatorError(f"bucket {bucket} outside [0, {k})")
        tau = sum(minima) / k
        if tau <= 0.0:
            raise EstimatorError("k-partition HIP probability vanished")
        weights.append(1.0 / tau)
        if rank < minima[bucket]:
            minima[bucket] = rank
    return weights


def hip_cardinality(
    weights: Sequence[float],
    distances: Sequence[float],
    d: float = math.inf,
) -> float:
    """Neighborhood cardinality estimate: sum of adjusted weights of ADS
    entries within query distance d (Section 5)."""
    if len(weights) != len(distances):
        raise EstimatorError("weights/distances length mismatch")
    return sum(w for w, dist in zip(weights, distances) if dist <= d)


def hip_statistic(
    weights: Sequence[float],
    distances: Sequence[float],
    nodes: Sequence[Hashable],
    g: Callable[[Hashable, float], float],
) -> float:
    """Q_g estimate  sum_j a_ij g(j, d_ij)  over ADS entries (Equation 5)."""
    if not len(weights) == len(distances) == len(nodes):
        raise EstimatorError("weights/distances/nodes length mismatch")
    return sum(
        w * float(g(node, dist))
        for w, dist, node in zip(weights, distances, nodes)
    )
