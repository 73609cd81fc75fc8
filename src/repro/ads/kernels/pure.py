"""The reference estimator kernel: stdlib-only loops over flat columns.

These are the batch-query loops ``AdsIndex`` has always run, extracted
behind the kernel API (see the package docs) so the NumPy backend can
be verified against them function for function.  Every float produced
here is authoritative: the accelerated kernel must reproduce the same
left-to-right per-slice summation order.

The *views* object for this kernel (:class:`Columns`) is the index's
storage as every reader sees it: a list of :class:`Segment` objects --
contiguous node ranges whose entry columns are each one flat buffer --
that the sweep ops walk in node order and every per-node reader
reaches through ``locate(i)``.  The storage module builds it
(:mod:`repro.ads.storage`): one segment over owned arrays for a built
or eagerly loaded index, one over the mapped views of a single-file
map, one per nonempty shard file of a sharded map, mapped when a
reader first asks for a node of its range.  Every bisect, slice and
``zip`` runs in C over a segment's own buffers whatever the backing,
and the floats and their summation order are the same.  The
similarity ops at the bottom exist only here, for both backends'
indexes (see the package docs).
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_right, insort
from typing import (
    Any, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.errors import EstimatorError
from repro.estimators.basic import bottom_k_cardinality
from repro.estimators.hip import (
    bottom_k_adjusted_weights,
    k_mins_adjusted_weights,
    k_partition_adjusted_weights,
)

NAME = "python"


class Segment(NamedTuple):
    """One contiguous node range as a self-contained mini-index: its
    own flat column buffers and offsets that start at 0."""

    base: int  # global entry slot of the segment's first entry
    offsets: Sequence[int]
    dist: Sequence[float]
    hip: Sequence[float]
    node: Optional[Sequence[int]] = None
    aux: Optional[Sequence[int]] = None
    #: ``(path, data start, typecodes)`` when the entry columns are the
    #: views of one mapped shard file, stored back to back in field
    #: order: what another process needs to map the same columns.
    source: Optional[Tuple[str, int, Tuple[str, ...]]] = None

    def window(self, column):
        """This segment's entries of a whole-index column (the cum-hip
        prefix sums), zero-copy; ``None`` stays ``None``."""
        if column is None:
            return None
        return memoryview(column)[self.base:self.base + len(self.hip)]


class Columns:
    """The segments of one index in node order.

    *parts* holds one item per segment: the :class:`Segment`, or a
    zero-argument callable returning it (a shard file mapped on first
    touch: called once, behind a lock -- concurrent readers may race
    two first touches of the same shard).  ``bounds`` are the segments'
    node-id bounds, ``len(parts) + 1`` of them, what :meth:`locate`
    bisects.
    """

    __slots__ = ("entries", "bounds", "lazy", "_parts", "_lock")

    def __init__(self, parts: Sequence[Any], bounds: Sequence[int],
                 entries: int):
        self.entries = entries
        self.bounds = list(bounds)
        self._parts = list(parts)
        self.lazy = any(type(part) is not Segment for part in self._parts)
        self._lock = threading.Lock()

    @classmethod
    def flat(cls, offsets, dist, hip, node=None, aux=None) -> "Columns":
        """Whole flat columns wrapped as the one segment, nothing
        copied."""
        return cls(
            [Segment(0, offsets, dist, hip, node, aux)],
            (0, len(offsets) - 1), len(hip),
        )

    def _part(self, position: int) -> Segment:
        part = self._parts[position]
        if type(part) is not Segment:
            with self._lock:
                part = self._parts[position]
                if type(part) is not Segment:
                    part = self._parts[position] = part()
        return part

    @property
    def mapped(self) -> Optional[int]:
        """How many of a sharded map's segments are mapped so far;
        ``None`` when no segment is mapped on first touch."""
        if not self.lazy:
            return None
        return sum(type(part) is Segment for part in self._parts)

    @property
    def segments(self) -> List[Segment]:
        """Every segment, in node order (loads the ones still missing)."""
        return [self._part(position) for position in range(len(self._parts))]

    def locate(self, i: int) -> Tuple[Segment, int, int]:
        """Node id *i*'s segment and its entries' ``[lo, hi)`` in that
        segment's buffers: no search for one segment, else one bisect."""
        bounds = self.bounds
        position = 0
        if len(bounds) > 2:
            position = bisect_right(bounds, i) - 1
            i -= bounds[position]
        part = self._parts[position]
        if type(part) is not Segment:
            part = self._part(position)
        offsets = part.offsets
        return part, offsets[i], offsets[i + 1]

    def locate_range(
        self, start: int, stop: int
    ) -> Iterator[Tuple[Segment, int, int]]:
        """The node range ``[start, stop)`` segment by segment, in node
        order: each segment holding some of it with the rows ``[a, b)``
        of its own offsets that lie in the range."""
        bounds = self.bounds
        position = bisect_right(bounds, start) - 1
        while start < stop:
            first, end = bounds[position], min(stop, bounds[position + 1])
            yield self._part(position), start - first, end - first
            start, position = end, position + 1


def prepare_views(columns: Columns) -> Columns:
    """The kernel API's ``prepare_views``: this kernel sweeps the
    storage's own segments."""
    return columns


def compute_cum_hip(views: Columns) -> array:
    """Per-node running prefix sums of the HIP column.

    Cardinality queries become one bisect plus one lookup.  Summation
    order is left-to-right within each slice, exactly like ``BaseADS``,
    so the floats agree bit-for-bit.
    """
    cumulative = array("d", bytes(8 * views.entries))
    for part in views.segments:
        base, offsets, hip_column = part.base, part.offsets, part.hip
        for i in range(len(offsets) - 1):
            lo, hi = offsets[i], offsets[i + 1]
            running = 0.0
            slot = base + lo
            for value in hip_column[lo:hi]:
                running += value
                cumulative[slot] = running
                slot += 1
    return cumulative


def slice_hip_sum(
    hip, cum: Optional[Sequence[float]], lo: int, hi: int, base: int = 0
) -> float:
    """Left-to-right sum of ``hip[lo:hi]`` -- ``cum[base + hi - 1]`` by
    construction (*base*: the buffer's first slot in *cum*, a segment's
    ``base`` against the whole-index column), summed locally when the
    prefix column has not been materialised (a lazy load serving one
    node must not pay an all-entries pass)."""
    if hi <= lo:
        return 0.0
    if cum is not None:
        return cum[base + hi - 1]
    running = 0.0
    for weight in hip[lo:hi]:
        running += weight
    return running


def batch_cardinality(views: Columns, cum, d: float) -> List[float]:
    """n_d(v) for every node id, in id order: one bisect over the
    distance column plus a prefix-sum lookup per node."""
    result: List[float] = []
    for part in views.segments:
        offsets, dist, prefix = part.offsets, part.dist, part.window(cum)
        for i in range(len(offsets) - 1):
            lo = offsets[i]
            cutoff = bisect_right(dist, d, lo, offsets[i + 1])
            result.append(prefix[cutoff - 1] if cutoff > lo else 0.0)
    return result


def closeness_for_slice(
    dist,
    hip,
    lo: int,
    hi: int,
    alpha: Optional[Callable[[float], float]],
    classic: bool,
    cum: Optional[Sequence[float]],
) -> float:
    """One node's beta-free closeness sum, mirroring
    ``q_statistic_estimate`` exactly (same slot order, same
    skip-the-source and g >= 0 rules) so the floats match the per-node
    estimators bit-for-bit."""
    total = 0.0
    for d, weight in zip(dist[lo:hi], hip[lo:hi]):
        if d == 0.0:
            continue
        value = d if alpha is None else float(alpha(d))
        if not value >= 0.0:  # negative or NaN
            raise EstimatorError(
                f"g must be nonnegative (got {value}); HIP "
                "unbiasedness and the variance bounds assume g >= 0"
            )
        total += weight * value
    if classic:
        reachable = slice_hip_sum(hip, cum, lo, hi) - 1.0
        return reachable / total if total > 0.0 else 0.0
    return total


def batch_closeness(
    views: Columns,
    alpha: Optional[Callable[[float], float]],
    classic: bool,
    cum: Optional[Sequence[float]] = None,
) -> List[float]:
    """The beta-free closeness sum of every node id, in id order.

    ``cum`` is the materialised prefix-sum column when the caller has
    one (classic mode reads each slice's reachable count from it);
    ``None`` sums reachability locally, preserving lazy loads.
    """
    result: List[float] = []
    for part in views.segments:
        offsets, dist, hip, prefix = (
            part.offsets, part.dist, part.hip, part.window(cum)
        )
        result += [
            closeness_for_slice(
                dist, hip, offsets[i], offsets[i + 1], alpha, classic, prefix
            )
            for i in range(len(offsets) - 1)
        ]
    return result


def neighborhood_series(views: Columns) -> List[Tuple[float, float]]:
    """The whole-graph ANF series: per-distance HIP mass accumulated in
    entry order, then summed cumulatively over sorted distances."""
    jumps: dict = {}
    for part in views.segments:
        for d, weight in zip(part.dist, part.hip):
            if d <= 0.0:
                continue
            jumps[d] = jumps.get(d, 0.0) + weight
    series: List[Tuple[float, float]] = []
    running = 0.0
    for d in sorted(jumps):
        running += jumps[d]
        series.append((d, running))
    return series


# ---------------------------------------------------------------------------
# Similarity / distance-oracle ops (bottom-k flavor only).
#
# They read the same :class:`Columns` as everything else plus the
# n-length table of node ranks, passed in: a rank is a function of the
# node (Section 2), not a storage column, so each op gathers its
# slice's ranks through the segment's node column.
# All callers gate on the bottom-k flavor first: the ops assume each
# slice lists distinct entry nodes whose extracted MinHash sketches are
# k-samples without replacement (the coordination property Section 5 of
# the paper builds on).  Results are exact set arithmetic (integer
# ratios, order-free minima) plus reference-order float accumulation.
# ---------------------------------------------------------------------------


def bad_node_id(nodes: Sequence[int], lo: int, n: int) -> EstimatorError:
    """The error for a node-column slice (starting at global entry slot
    *lo*) holding an id outside ``[0, n)``.  Mapped loads skip the
    load-time id scan, so the readers that look an id up check it
    here."""
    slot, node_id = next(
        (lo + i, v) for i, v in enumerate(nodes) if not 0 <= v < n
    )
    return EstimatorError(
        f"corrupt index: node column slot {slot} holds id {node_id}, "
        f"outside [0, {n})"
    )


def slice_keys(
    part: Segment, lo: int, hi: int, rank: Sequence[float]
) -> List[Tuple[float, int]]:
    """The ``(rank, node)`` keys of *part*'s entry slots ``[lo, hi)``,
    each rank looked up in the per-node table.  Ids are unsigned, so a
    hostile one can only overrun the table."""
    nodes = part.node[lo:hi]
    try:
        return [(rank[v], v) for v in nodes]
    except IndexError:
        raise bad_node_id(nodes, part.base + lo, len(rank)) from None


def minhash_for_slice(
    views: Columns, rank: Sequence[float], i: int, d: float, k: int
) -> List[Tuple[float, int]]:
    """The bottom-k MinHash sketch of N_d(node i): the k smallest
    ``(rank, node)`` pairs among entries within distance ``d`` --
    ``BottomKADS.minhash_at`` replayed over the flat columns."""
    part, lo, hi = views.locate(i)
    cutoff = bisect_right(part.dist, d, lo, hi)
    return sorted(slice_keys(part, lo, cutoff, rank))[:k]


def union_sketch(
    sketch_a: Sequence[Tuple[float, int]],
    sketch_b: Sequence[Tuple[float, int]],
    k: int,
) -> List[Tuple[float, int]]:
    """Bottom-k of the union of two coordinated MinHash sketches -- the
    merge at the heart of every similarity estimator.  A rank is a
    function of the node, so a node both sides sampled carries one
    ``(rank, node)`` key and the set union keeps it once."""
    return sorted({*sketch_a, *sketch_b})[:k]


def union_jaccard(
    sketch_a: Sequence[Tuple[float, int]],
    sketch_b: Sequence[Tuple[float, int]],
    k: int,
) -> float:
    """The MinHash Jaccard estimate from two coordinated sketches in
    any order: the fraction of the union's bottom-k sampled by both
    sides, an exact integer ratio.  The ops run :func:`_sorted_jaccard`
    on their sorted sketches; this is the form it is held equal to."""
    union = union_sketch(sketch_a, sketch_b, k)
    if not union:
        return 0.0
    members_a = {node for _, node in sketch_a}
    members_b = {node for _, node in sketch_b}
    in_both = sum(
        1 for _, node in union if node in members_a and node in members_b
    )
    return in_both / len(union)


def union_size_from_sketches(
    sketch_a: Sequence[Tuple[float, int]],
    sketch_b: Sequence[Tuple[float, int]],
    k: int,
    rank_sup: float,
) -> float:
    """|N_d(u) ∪ N_d(v)| estimated from the merged bottom-k sketch --
    ``repro.sketches.similarity.union_size_estimate`` over columns."""
    union = union_sketch(sketch_a, sketch_b, k)
    tau = union[-1][0] if len(union) == k else rank_sup
    return bottom_k_cardinality(len(union), tau, k, sup=rank_sup)


def pairs_jaccard(
    views: Columns, rank: Sequence[float],
    pairs: Sequence[Tuple[int, int]], d: float, k: int,
) -> List[float]:
    """Neighborhood Jaccard estimates for ``(u, v)`` id pairs at
    threshold ``d``, in input order (extracted sketches are sorted, so
    the merge form of :func:`union_jaccard` applies)."""
    return [
        _sorted_jaccard(
            minhash_for_slice(views, rank, u, d, k),
            minhash_for_slice(views, rank, v, d, k),
            k,
        )
        for u, v in pairs
    ]


def pairs_union_size(
    views: Columns, rank: Sequence[float],
    pairs: Sequence[Tuple[int, int]], d: float, k: int, rank_sup: float,
) -> List[float]:
    """Neighborhood union-size estimates for ``(u, v)`` id pairs at
    threshold ``d``, in input order."""
    return [
        union_size_from_sketches(
            minhash_for_slice(views, rank, u, d, k),
            minhash_for_slice(views, rank, v, d, k),
            k,
            rank_sup,
        )
        for u, v in pairs
    ]


#: One node's slice as the closeness sweep reads it: entry distances in
#: slice (ascending) order, and the matching ``(rank, node)`` keys.
SweepSlice = Tuple[List[float], List[Tuple[float, int]]]


def _absorb(
    sketch: List[Tuple[float, int]], keys: List[Tuple[float, int]], k: int
) -> List[Tuple[float, int]]:
    """Fold the *keys* of one distance step into a sorted bottom-k
    list and return the result.  A lone key (weighted graphs: nearly
    every step) is inserted in place and the maximum dropped on
    overflow; a tied-distance group (unit weights) is cheaper as one
    sort.  Either way a key that is not among the k smallest just
    falls off: the ADS inclusion invariant is not assumed."""
    if len(keys) > 1:
        return sorted(sketch + keys)[:k]
    key = keys[0]
    if len(sketch) < k:
        insort(sketch, key)
    elif key < sketch[-1]:
        sketch.pop()
        insort(sketch, key)
    return sketch


def _sorted_jaccard(
    sketch_a: List[Tuple[float, int]],
    sketch_b: List[Tuple[float, int]],
    k: int,
) -> float:
    """:func:`union_jaccard` for two *sorted* bottom-k lists: one
    two-pointer merge takes the union's k smallest keys and counts the
    ones both sides hold.  A node's rank is a function of the node, so
    a shared node carries equal keys and meets itself in the merge.
    The same integer ratio, hence the same float."""
    len_a, len_b = len(sketch_a), len(sketch_b)
    i = j = size = in_both = 0
    while size < k and i < len_a and j < len_b:
        key_a, key_b = sketch_a[i], sketch_b[j]
        if key_a < key_b:
            i += 1
        elif key_b < key_a:
            j += 1
        else:
            in_both += 1
            i += 1
            j += 1
        size += 1
    # One side ran out: whatever the other still holds is one-sided.
    size = min(k, size + (len_a - i) + (len_b - j))
    return in_both / size if size else 0.0


def closeness_sweep(slice_a: SweepSlice, slice_b: SweepSlice, k: int) -> float:
    """Closeness similarity of two slices in one pass.

    Scanning an ADS in distance order evolves the bottom-k MinHash
    sketch of ``N_d`` one entry at a time, so the sweep walks both
    slices once by ascending distance, keeps each side's bottom-k
    incrementally, and takes one Jaccard per distinct distance --
    O((|A| + |B|) * k) instead of re-sorting both prefixes per
    distance.  Terms are accumulated left to right over the same grid
    as the per-object reference, so the result is bit-identical.
    """
    dist_a, keys_a = slice_a
    dist_b, keys_b = slice_b
    len_a, len_b = len(dist_a), len(dist_b)
    sketch_a: List[Tuple[float, int]] = []
    sketch_b: List[Tuple[float, int]] = []
    i = j = steps = 0
    total = 0.0
    while i < len_a or j < len_b:
        if j == len_b or (i < len_a and dist_a[i] <= dist_b[j]):
            threshold = dist_a[i]
        else:
            threshold = dist_b[j]
        if i < len_a and dist_a[i] == threshold:
            end = bisect_right(dist_a, threshold, i)
            sketch_a = _absorb(sketch_a, keys_a[i:end], k)
            i = end
        if j < len_b and dist_b[j] == threshold:
            end = bisect_right(dist_b, threshold, j)
            sketch_b = _absorb(sketch_b, keys_b[j:end], k)
            j = end
        total += _sorted_jaccard(sketch_a, sketch_b, k)
        steps += 1
    return total / steps if steps else 0.0


def pairs_closeness_similarity(
    views: Columns, rank: Sequence[float],
    pairs: Sequence[Tuple[int, int]], k: int,
) -> List[float]:
    """Closeness similarity for ``(u, v)`` id pairs, in input order:
    the uniform-weight average of neighborhood Jaccard over the sorted
    union of the two slices' distinct entry distances -- exactly
    ``repro.centrality.similarity.closeness_similarity`` with default
    weights, computed by :func:`closeness_sweep`.  Each distinct node's
    slice is extracted once per batch."""
    slices: dict = {}
    values: List[float] = []
    for pair in pairs:
        for node_id in pair:
            if node_id not in slices:
                part, lo, hi = views.locate(node_id)
                slices[node_id] = (
                    list(part.dist[lo:hi]), slice_keys(part, lo, hi, rank)
                )
        values.append(closeness_sweep(slices[pair[0]], slices[pair[1]], k))
    return values


def pairs_distance(
    views: Columns, pairs: Sequence[Tuple[int, int]]
) -> List[float]:
    """Sketch-space distance upper bounds for ``(u, v)`` id pairs:
    min over common sketch entries ``w`` of ``d(u, w) + d(v, w)``
    (``inf`` when the slices share no entry).  Order-free minimum of
    exact one-add sums."""
    values: List[float] = []
    for u, v in pairs:
        part, lo, hi = views.locate(u)
        through: dict = {}
        for w, d_uw in zip(part.node[lo:hi], part.dist[lo:hi]):
            current = through.get(w)
            if current is None or d_uw < current:
                through[w] = d_uw
        part, lo, hi = views.locate(v)
        best = math.inf
        for w, d_vw in zip(part.node[lo:hi], part.dist[lo:hi]):
            d_uw = through.get(w)
            if d_uw is not None:
                candidate = d_uw + d_vw
                if candidate < best:
                    best = candidate
        values.append(best)
    return values


def similarity_scan(
    views: Columns, rank: Sequence[float], query: int, d: float, k: int,
    start: int, stop: int,
) -> List[Tuple[int, float]]:
    """Neighborhood Jaccard of ``query`` against every candidate id in
    ``[start, stop)`` (the query itself excluded), in id order.  The
    caller ranks; this just scans a contiguous id range so sharded
    workers can sweep their slice of the candidate space."""
    reference = minhash_for_slice(views, rank, query, d, k)
    return [
        (
            candidate,
            _sorted_jaccard(
                reference, minhash_for_slice(views, rank, candidate, d, k), k
            ),
        )
        for candidate in range(start, stop)
        if candidate != query
    ]


def bottom_k_hip_weights(ranks: Sequence[float], k: int) -> List[float]:
    """Section-5 adjusted weights of one bottom-k slice (Lemma 5.1)."""
    return bottom_k_adjusted_weights(ranks, k)


def k_mins_hip_weights(
    rank_vectors: Sequence[Sequence[float]], k: int
) -> List[float]:
    """Adjusted weights of one k-mins merged view (Equation 7)."""
    return k_mins_adjusted_weights(rank_vectors, k)


def k_partition_hip_weights(
    entries: Sequence[Tuple[int, float]], k: int
) -> List[float]:
    """Adjusted weights of one k-partition slice (Equation 8)."""
    return k_partition_adjusted_weights(entries, k)
