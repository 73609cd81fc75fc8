"""The NumPy estimator kernel: vectorised, bit-compatible with pure.

Importing this module requires NumPy; the dispatcher
(:func:`repro.ads.kernels.resolve`) treats the ImportError as "backend
unavailable" and falls back to :mod:`repro.ads.kernels.pure`.

It holds the whole-graph sweeps and the k-mins weight recurrence;
per-node reads and the similarity ops are scalar work on one short
slice and exist once, in :mod:`repro.ads.kernels.pure`.

Zero-copy views
---------------
``prepare_views`` takes the index's segments
(:class:`repro.ads.kernels.pure.Columns`, the storage every reader
sees) and wraps the sweep columns in ``np.frombuffer`` views:

* a lone segment -- the owned arrays of an eager index, the mapped
  views of a single-file load -- is viewed in place, no bytes move;
* several segments (a sharded map, one per nonempty shard file) are
  *assembled* once into one owned ndarray per column, offsets shifted
  by each segment's entry base (batch sweeps touch every shard anyway,
  so the one-time concatenation is the price of serving them at array
  speed; per-node reads go through the segments and never pay it).

The :class:`Views` object also lazily caches two derived artifacts the
hot paths reuse across calls: the per-distance sort of the entry
columns (neighborhood series) and the unique-distance table
(alpha-kernel closeness evaluates the Python ``alpha`` once per
distinct distance instead of once per entry).  ``AdsIndex`` drops the
whole object whenever a dynamic update splices the columns.

Exactness
---------
Floating-point addition is not associative, and the rest of the system
asserts bit-equality between batch queries, per-node estimators, and
both persisted layouts -- so these kernels never use pairwise
reductions (``np.sum`` / ``np.add.reduceat``).  Every aggregation runs
as a *sequential* scan in the pure kernel's order:

* per-slice sums and prefix columns go through a padded-row
  ``np.cumsum(axis=1)`` (each row is an independent left-to-right
  scan);
* skewed groups (the neighborhood series' per-distance masses) use a
  bounded position-wise scan plus a seeded ``np.cumsum`` tail;
* the k-mins HIP-weight recurrence vectorises over entries but keeps
  the per-permutation combination order of the pure estimator
  (``np.minimum.accumulate`` is exact, and the k-term product loop
  runs in the same order).

Bottom-k HIP weights are a running k-th-smallest order statistic -- an
inherently sequential recurrence -- and k-partition slices are too
short for per-bucket array passes to pay, so this kernel delegates
both to the shared scalar core unchanged.
"""

from __future__ import annotations

from array import array
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimatorError

NAME = "numpy"

# Padded segmented scans materialise (rows x maxlen) scratch blocks;
# chunk rows so scratch stays bounded (~64 MiB of float64) however
# large the index is.
_CHUNK_CELLS = 8_000_000

# Position-wise group scans degrade when one group is huge; beyond
# this many leading elements a group finishes with one seeded cumsum.
_GROUP_SCAN_CAP = 64


def _joined(arrays: List[np.ndarray]) -> np.ndarray:
    """A lone view as it is (zero-copy), several assembled into one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class Views:
    """Prepared ndarray views over one index's columns (see module docs)."""

    __slots__ = (
        "offsets", "dist", "hip", "starts", "ends", "lengths", "n",
        "_dist_sorted", "_unique_dist", "_padded_plan",
    )

    def __init__(self, columns):
        parts = columns.segments
        offsets = [np.frombuffer(parts[0].offsets, dtype=np.int64)]
        for part in parts[1:]:
            # Later segments restart at 0: shift to global entry slots.
            own = np.frombuffer(part.offsets, dtype=np.int64)
            offsets.append(own[1:] + part.base)
        self.offsets = _joined(offsets)
        self.dist = _joined([np.frombuffer(part.dist) for part in parts])
        self.hip = _joined([np.frombuffer(part.hip) for part in parts])
        self.starts = self.offsets[:-1]
        self.ends = self.offsets[1:]
        self.lengths = self.ends - self.starts
        self.n = len(self.lengths)
        self._dist_sorted = None
        self._unique_dist = None
        self._padded_plan = None

    def padded_plan(self):
        """The padded-gather geometry shared by every segmented scan
        over the per-node slices, cached when the whole index fits one
        scan chunk (it is O(n * longest slice) memory, so huge indexes
        fall back to rebuilding it chunk by chunk).

        ``(indices, rows, last_slot, valid, targets)``: the clamped
        (n x maxlen) gather matrix, a row iota, each row's last valid
        cell, the in-slice cell mask, and the flat entry slots those
        cells scatter back to.
        """
        plan = self._padded_plan
        if plan is None:
            width = int(self.lengths.max()) if self.n else 0
            if self.n * width > _CHUNK_CELLS:
                return None
            indices = self.starts[:, None] + np.arange(width)[None, :]
            np.minimum(indices, max(len(self.dist) - 1, 0), out=indices)
            valid = np.arange(width)[None, :] < self.lengths[:, None]
            plan = (
                indices,
                np.arange(self.n),
                np.maximum(self.lengths - 1, 0),
                valid,
                indices[valid],
            )
            self._padded_plan = plan
        return plan

    def dist_sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted positive distances, their HIP weights)``, stably
        sorted so equal distances keep entry order; cached."""
        cached = self._dist_sorted
        if cached is None:
            mask = self.dist > 0.0
            positive_dist = self.dist[mask]
            order = np.argsort(positive_dist, kind="stable")
            cached = (positive_dist[order], self.hip[mask][order])
            self._dist_sorted = cached
        return cached

    def unique_dist(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(unique distances, inverse index per entry)``; cached so
        repeated alpha-kernel sweeps pay the sort once."""
        cached = self._unique_dist
        if cached is None:
            unique, inverse = np.unique(self.dist, return_inverse=True)
            cached = (unique, inverse.astype(np.int64, copy=False))
            self._unique_dist = cached
        return cached


def prepare_views(columns) -> Views:
    return Views(columns)


# ----------------------------------------------------------------------
# Exact segmented scans
# ----------------------------------------------------------------------
def _slice_scan(
    values: np.ndarray,
    views: Views,
    prefix_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact left-to-right per-slice sums (and optional prefix column).

    Rows are padded to the longest slice, gathered, and scanned with
    ``np.cumsum(axis=1)`` -- a sequential scan per row, so every
    slice's partial sums equal the pure loop's bit for bit.  Cells past
    a slice's end are clamped gathers whose values are never read back.
    The gather geometry comes from the views' cached plan when the
    index fits one scan chunk, and is rebuilt chunk by chunk otherwise
    (bounded scratch memory however large the index).  Returns the
    per-slice totals; when *prefix_out* is given the per-slot running
    sums are scattered into it as well.
    """
    starts, lengths, n = views.starts, views.lengths, views.n
    totals = np.zeros(n, dtype=np.float64)
    if n == 0 or not len(values):
        return totals
    plan = views.padded_plan()
    if plan is not None:
        indices, rows, last_slot, valid, targets = plan
        padded = values[indices]
        np.cumsum(padded, axis=1, out=padded)
        totals = np.where(lengths > 0, padded[rows, last_slot], 0.0)
        if prefix_out is not None:
            prefix_out[targets] = padded[valid]
        return totals
    rows_per_chunk = max(1, _CHUNK_CELLS // max(1, int(lengths.max())))
    last = len(values) - 1
    for row0 in range(0, n, rows_per_chunk):
        row1 = min(row0 + rows_per_chunk, n)
        chunk_lengths = lengths[row0:row1]
        width = int(chunk_lengths.max()) if row1 > row0 else 0
        if width == 0:
            continue
        indices = starts[row0:row1, None] + np.arange(width)[None, :]
        np.minimum(indices, last, out=indices)
        padded = values[indices]
        np.cumsum(padded, axis=1, out=padded)
        rows = np.arange(row1 - row0)
        totals[row0:row1] = np.where(
            chunk_lengths > 0,
            padded[rows, np.maximum(chunk_lengths - 1, 0)],
            0.0,
        )
        if prefix_out is not None:
            valid = np.arange(width)[None, :] < chunk_lengths[:, None]
            prefix_out[indices[valid]] = padded[valid]
    return totals


def _group_sums(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Exact left-to-right sums of contiguous groups of wildly varying
    sizes (the per-distance masses of the neighborhood series).

    Groups are scanned position-wise (one vectorised gather per
    position, longest groups first so the active set is a shrinking
    prefix); after ``_GROUP_SCAN_CAP`` positions the few oversized
    groups each finish with a ``np.cumsum`` seeded by their partial sum
    -- still one sequential chain per group, so the result is exact.
    """
    n = len(starts)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    order = np.argsort(-lengths, kind="stable")
    sorted_starts = starts[order]
    sorted_lengths = lengths[order]
    ascending_neg = -sorted_lengths  # for searchsorted active counts
    partial = np.zeros(n, dtype=np.float64)
    cap = min(int(sorted_lengths[0]), _GROUP_SCAN_CAP)
    for position in range(cap):
        active = np.searchsorted(ascending_neg, -position, side="left")
        taken = sorted_starts[:active] + position
        partial[:active] += values[taken]
    oversized = int(np.searchsorted(ascending_neg, -_GROUP_SCAN_CAP, "left"))
    for i in range(oversized):
        lo = int(sorted_starts[i]) + _GROUP_SCAN_CAP
        hi = int(sorted_starts[i]) + int(sorted_lengths[i])
        seeded = np.empty(hi - lo + 1, dtype=np.float64)
        seeded[0] = partial[i]
        seeded[1:] = values[lo:hi]
        partial[i] = np.cumsum(seeded)[-1]
    sums = np.empty(n, dtype=np.float64)
    sums[order] = partial
    return sums


# ----------------------------------------------------------------------
# Batch queries
# ----------------------------------------------------------------------
def compute_cum_hip(views: Views) -> array:
    """Per-node HIP prefix sums, bit-identical to the pure kernel's."""
    cumulative = array("d", bytes(8 * len(views.hip)))
    if len(views.hip):
        _slice_scan(views.hip, views, prefix_out=np.frombuffer(cumulative))
    return cumulative


def batch_cardinality(views: Views, cum, d: float) -> List[float]:
    """n_d(v) for every node id: one *vectorised* binary search over
    all slices at once (the distance column is sorted within each
    slice), then a prefix-sum gather -- the same cum-hip floats the
    pure kernel reads."""
    if not len(views.dist):
        return [0.0] * views.n
    low = views.starts.copy()
    high = views.ends.copy()
    last = len(views.dist) - 1
    while True:
        unfinished = low < high
        if not unfinished.any():
            break
        mid = (low + high) >> 1
        go_right = unfinished & (
            views.dist[np.minimum(mid, last)] <= d
        )
        low = np.where(go_right, mid + 1, low)
        high = np.where(unfinished & ~go_right, mid, high)
    cum_view = np.frombuffer(cum)
    values = np.where(
        low > views.starts, cum_view[np.maximum(low - 1, 0)], 0.0
    )
    return values.tolist()


def _alpha_per_entry(
    views: Views, alpha: Callable[[float], float]
) -> np.ndarray:
    """alpha evaluated once per *distinct* distance, gathered per entry.

    The zero distance (the source itself) is never passed to alpha --
    the pure loop skips those entries before evaluating the kernel --
    and its slot carries 0.0, which the d == 0 mask re-zeroes anyway.
    """
    unique, inverse = views.unique_dist()
    evaluated = np.empty(len(unique), dtype=np.float64)
    for i, distance in enumerate(unique.tolist()):
        evaluated[i] = 0.0 if distance == 0.0 else float(alpha(distance))
    refused = ~(evaluated >= 0.0)  # negative or NaN
    if refused.any():
        value = float(evaluated[np.argmax(refused)])
        raise EstimatorError(
            f"g must be nonnegative (got {value}); HIP "
            "unbiasedness and the variance bounds assume g >= 0"
        )
    return evaluated[inverse]


def batch_closeness(
    views: Views,
    alpha: Optional[Callable[[float], float]],
    classic: bool,
    cum=None,
) -> List[float]:
    """The beta-free closeness sum of every node id, in id order.

    Per-entry products are exact (one IEEE multiply each, as in the
    pure loop); the per-slice reduction is the sequential padded scan.
    Zero-distance entries contribute an exact ``+ 0.0`` instead of
    being skipped (their kernel value is pinned to 0.0, and finite HIP
    weights times 0.0 is exactly 0.0) -- weights and kernels are
    nonnegative, so no slice ever holds a negative-zero running sum
    for ``+ 0.0`` to perturb.
    """
    if not len(views.dist):
        return [0.0] * views.n
    kernel_values = (
        views.dist if alpha is None else _alpha_per_entry(views, alpha)
    )
    products = views.hip * kernel_values
    totals = _slice_scan(products, views)
    if classic:
        if cum is not None:
            cum_view = np.frombuffer(cum)
            reachable = np.where(
                views.lengths > 0,
                cum_view[np.maximum(views.ends - 1, 0)],
                0.0,
            )
        else:
            reachable = _slice_scan(views.hip, views)
        reachable = reachable - 1.0
        positive = totals > 0.0
        totals = np.where(
            positive, reachable / np.where(positive, totals, 1.0), 0.0
        )
    return totals.tolist()


def neighborhood_series(views: Views) -> List[Tuple[float, float]]:
    """The whole-graph ANF series off the cached distance sort: exact
    per-distance masses (entry order within each distance), then one
    sequential ``np.cumsum`` over sorted distances."""
    sorted_dist, sorted_hip = views.dist_sorted()
    if not len(sorted_dist):
        return []
    boundaries = np.empty(len(sorted_dist), dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_dist[1:], sorted_dist[:-1], out=boundaries[1:])
    group_starts = np.flatnonzero(boundaries)
    group_lengths = np.diff(
        np.concatenate((group_starts, [len(sorted_dist)]))
    )
    masses = _group_sums(sorted_hip, group_starts, group_lengths)
    running = np.cumsum(masses)
    return list(zip(sorted_dist[group_starts].tolist(), running.tolist()))


# ----------------------------------------------------------------------
# Per-slice HIP-weight recompute (dynamic updates)
# ----------------------------------------------------------------------
def bottom_k_hip_weights(ranks: Sequence[float], k: int) -> List[float]:
    """Bottom-k adjusted weights: a running k-th-smallest order
    statistic is inherently sequential, so this delegates to the shared
    scalar core (bit-identical by construction)."""
    from repro.estimators.hip import bottom_k_adjusted_weights

    return bottom_k_adjusted_weights(ranks, k)


def k_mins_hip_weights(
    rank_vectors: Sequence[Sequence[float]], k: int
) -> List[float]:
    """k-mins adjusted weights (Equation 7), vectorised over entries.

    The per-permutation running minima come from one exact
    ``np.minimum.accumulate``; the no-permutation-hits product runs
    permutation by permutation in the pure estimator's order, so every
    tau -- and so every weight -- is bit-identical.
    """
    if not len(rank_vectors):
        return []
    try:
        matrix = np.array(rank_vectors, dtype=np.float64)
    except ValueError as error:
        raise EstimatorError(f"ragged rank vectors for k={k} ({error})")
    if matrix.ndim != 2 or matrix.shape[1] != k:
        raise EstimatorError(
            f"rank vector length "
            f"{matrix.shape[1] if matrix.ndim == 2 else 'mixed'} "
            f"does not match k={k}"
        )
    entries = matrix.shape[0]
    minima = np.ones((entries, k), dtype=np.float64)
    np.minimum.accumulate(matrix[:-1], axis=0, out=matrix[:-1])
    minima[1:] = matrix[:-1]
    probability_none = np.ones(entries, dtype=np.float64)
    for permutation in range(k):
        probability_none *= 1.0 - minima[:, permutation]
    tau = 1.0 - probability_none
    if (tau <= 0.0).any():
        raise EstimatorError("k-mins HIP probability vanished")
    return (1.0 / tau).tolist()


def k_partition_hip_weights(
    entries: Sequence[Tuple[int, float]], k: int
) -> List[float]:
    """k-partition adjusted weights (Equation 8): delegated to the
    shared scalar core, like the bottom-k weights.  A slice holds about
    k(1 + ln n - ln k) entries, and at that length the per-bucket array
    passes cost several times the scalar loop they replaced."""
    from repro.estimators.hip import k_partition_adjusted_weights

    return k_partition_adjusted_weights(entries, k)
