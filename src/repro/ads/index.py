"""``AdsIndex``: every node's sketch in parallel flat columns.

A sketch *set* built once is typically queried many times (Section 1's
"build the sketches, then answer any C_{alpha,beta} query").  The legacy
``Dict[node, BaseADS]`` pays one Python object per entry plus one
container per node; this index stores the whole set as flat columns
in one pass and serves batch queries straight off them.  Node id i's
sketch is one contiguous run of entries:

* ``node`` / ``dist``: the entry itself -- a (node, distance) pair as
  in Section 2 -- in the scan total order (distance, tiebreak) within
  every node's run;
* ``hip``: HIP adjusted weights, computed once at build time for every
  node in a single pass (Section 5) -- the estimator plumbing every
  batch query below reuses;
* ``aux`` (k-mins / k-partition only): the permutation or bucket.

The runs are held as *segments* (:class:`repro.ads.kernels.pure.Columns`):
contiguous node ranges, each with its own flat column buffers and an
``offsets`` column locating node i's run.  How many segments there are
and what backs them (owned arrays, one mapped file, a mapped file per
shard) is :mod:`repro.ads.storage`'s business, as are the file formats;
this class holds the queries and the mutation and reads through
``locate`` / ``locate_range`` / ``segments`` only.

Rank and tiebreak are functions of ``(seed, node)``, so they are held
once per *node* (:func:`~repro.ads.csr_cores.node_hash_tables`: handed
over by the build, derived from ``HashFamily(seed)`` on first need
after a load) and gathered through the node column by the readers that
want them; point, batch and sweep cardinality / closeness queries
never touch them.  The column set and typecodes are
:data:`repro.ads.storage.ENTRY_COLUMNS`: 20 bytes per bottom-k entry.

Queries: :meth:`cardinality_at` (all nodes at once),
:meth:`neighborhood_function` (whole-graph ANF series),
:meth:`closeness_centrality` / :meth:`top_central` (Equation 2 for every
node), all bit-identical to the per-node ``BaseADS`` estimators.
Those whole-graph sweeps and the cum-hip materialisation run on a
pluggable estimator kernel (:mod:`repro.ads.kernels`): the stdlib
reference loops, or a NumPy backend that vectorises the same
arithmetic over zero-copy views of the segments -- selected per index
(``backend="auto"|"numpy"|"python"``, ``REPRO_BACKEND`` env override)
and bit-identical across backends by construction.  Everything that
reads *one node's* run (point and batch reads, the pair queries,
``index[node]``, update records) reads it one way on any storage and
backend: ``locate`` on the segments.
:meth:`save` / :meth:`load` / :meth:`compact` delegate to the storage
module: raw little/big-endian column bytes behind a checksummed JSON
header (format ``ADSIDX02``; ``ADSIDX01`` files are still read and
converted), so an index built on a big graph is built once and served
many times; ``load(path, mmap=True)`` skips the deserialisation copy
entirely and serves queries off memory-mapped column views, mapping
sharded layouts one shard at a time on first touch.  ``index[node]``
lazily materialises a legacy ``BaseADS`` object for full backward
compatibility.
"""

from __future__ import annotations

import io
import math
import threading
from array import array
from bisect import bisect_right
from itertools import accumulate, repeat
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._util import require
from repro.ads import kernels, storage
from repro.ads.kernels import parallel as kernel_parallel
from repro.ads.base import FLAVOR_CLASSES as _FLAVOR_CLASSES, BaseADS
from repro.ads.csr_cores import (
    Record,
    build_flat_entries,
    node_hash_tables,
    records_to_entries,
)
from repro.ads.dynamic import UpdateResult, propagate_edge_insertions
from repro.ads.parallel import build_flat_entries_sharded
from repro.ads.pruned_dijkstra import BuildStats
from repro.errors import EstimatorError, ParameterError
from repro.estimators.statistics import closeness_centrality_estimate
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

# Node ids are stored in four bytes.
MAX_NODES = 1 << 31


def _pack_tables(tables) -> Tuple[array, List[array]]:
    """:func:`node_hash_tables` output as the flat arrays the index
    keeps: 8 bytes per node for the tiebreaks and per rank table."""
    tiebreaks, ranks = tables
    return array("Q", tiebreaks), [array("d", table) for table in ranks]


class _LabelIds(dict):
    """label -> node id; an unknown label is the query error itself."""

    def __missing__(self, label):
        raise EstimatorError(f"node {label!r} is not in the index")


class AdsIndex:
    """All-nodes ADS storage in parallel flat columns (see module docs).

    Build with :meth:`build`, reload with :meth:`load`; the raw
    constructor wires pre-validated flat columns as one segment.
    """

    def __init__(
        self,
        flavor: str,
        k: int,
        seed: int,
        labels: Sequence[Hashable],
        offsets: array,
        dist_column: array,
        hip_column: array,
        node_column: array,
        aux_column: Optional[array] = None,
        rank_sup: float = 1.0,
        validate_columns: bool = True,
        backend: str = "auto",
        kernel_workers=None,
    ):
        self._init(
            flavor, k, seed, labels,
            kernels.pure.Columns.flat(
                offsets, dist_column, hip_column, node_column, aux_column
            ),
            rank_sup, validate_columns, backend, kernel_workers,
        )

    @classmethod
    def _from_segments(cls, *args) -> "AdsIndex":
        """The index over ready segments (:meth:`_init`'s arguments),
        as the storage module's loaders and :meth:`build` make them."""
        index = cls.__new__(cls)
        index._init(*args)
        return index

    def _init(
        self, flavor, k, seed, labels, segments, rank_sup,
        validate_columns, backend, kernel_workers, cum=None,
    ) -> None:
        # *cum*: the cum-hip column when the caller packed it beside
        # the HIP weights (a build); otherwise a validated load computes
        # it below and a lazy one on first use.
        if flavor not in _FLAVOR_CLASSES:
            raise ParameterError(
                f"unknown flavor {flavor!r}; expected one of "
                f"{sorted(_FLAVOR_CLASSES)}"
            )
        require(k >= 1, f"k must be >= 1, got {k}")
        # The estimator kernel behind every batch query: the pure
        # reference loops, or the NumPy backend (bit-identical floats;
        # see repro.ads.kernels).  Resolved before validation -- the
        # eager cum-hip pass below already runs on it.  set_kernel_workers
        # below wraps it in the process fan-out on explicit request.
        self._kernel_base = kernels.resolve(backend)
        self._kernel = self._kernel_base
        self.backend = self._kernel_base.NAME
        self.flavor = flavor
        self.k = int(k)
        self.seed = int(seed)
        self.family = HashFamily(seed)
        self.rank_sup = float(rank_sup)
        self._labels = list(labels)
        self._ids = _LabelIds(zip(self._labels, range(len(self._labels))))
        # (tiebreaks, [ranks per permutation]) per node id; None until
        # a reader of ranks or tiebreaks first needs it.
        self._tables_cache: Optional[Tuple[array, List[array]]] = None
        self._cum_cache: Optional[array] = cum
        self._cum_lock = threading.Lock()
        self.mmap_backed = False
        self._mmap_paths: frozenset = frozenset()
        self._materialised: Dict[Hashable, BaseADS] = {}
        # Dynamic-update bookkeeping: one delta-log entry per applied
        # batch, plus the node ids rewritten since the last compaction
        # (what compact() uses to pick the shards to refresh).
        self.delta_log: List[Dict[str, int]] = []
        self._dirty_ids: set = set()
        self._set_segments(segments)
        self.set_kernel_workers(kernel_workers)
        # Validate the layout before walking it (a corrupted file must
        # fail with EstimatorError, not an IndexError mid-computation).
        # A lazily mapped shard is not touched: its loader held the
        # file's header, offsets and size to the same rules.
        self._check_node_count()
        n = len(self._labels)
        if segments.bounds[-1] != n:
            raise EstimatorError("offsets length must be n + 1")
        # Full-column sanity scans (offsets monotone, ids and aux values
        # in range) are skipped by mmap-backed loads -- walking every
        # entry would page the whole file in, which is exactly what
        # mmap=True exists to avoid; the header, manifest, and
        # byte-length checks still ran, and the readers that look a
        # node id up range-check it per slice.
        for part in () if segments.lazy else segments.segments:
            if (part.aux is None) != (flavor == "bottomk"):
                raise EstimatorError(
                    "an aux column belongs to k-mins / k-partition "
                    "indexes only"
                )
            columns = [column for column in part[2:6] if column is not None]
            if len({len(column) for column in columns}) != 1:
                raise EstimatorError("entry columns must have equal lengths")
            offsets = part.offsets
            if offsets[0] != 0 or offsets[-1] != len(part.hip) or (
                validate_columns and any(
                    offsets[i] > offsets[i + 1]
                    for i in range(len(offsets) - 1)
                )
            ):
                raise EstimatorError(
                    "offsets must rise from 0 to the entry count"
                )
            if not validate_columns:
                continue
            if len(part.node) and max(part.node) >= n:
                raise EstimatorError("entry node ids must lie in [0, n)")
            if part.aux is not None and len(part.aux) and (
                max(part.aux) >= self.k
            ):
                raise EstimatorError("entry aux values must lie in [0, k)")
        if validate_columns and cum is None:
            self._cum_cache = self._compute_cum_hip()

    def _check_node_count(self) -> None:
        if len(self._labels) >= MAX_NODES:
            raise EstimatorError(
                f"{len(self._labels)} nodes: entry node ids are stored in "
                f"four bytes, so an index holds fewer than {MAX_NODES} nodes"
            )

    @property
    def _node_tables(self):
        """``(tiebreaks, [ranks per permutation])``, each an n-length
        array indexed by node id: what the hash family fixes per node.

        A build hands its own over; a loaded index derives them from
        ``HashFamily(seed)`` on first need, under the lock that guards
        the cum-hip pass.  Only rank / tiebreak readers come here
        (similarity ops, update records, legacy materialisation).
        """
        tables = self._tables_cache
        if tables is None:
            with self._cum_lock:
                tables = self._tables_cache
                if tables is None:
                    tables = _pack_tables(node_hash_tables(
                        self._labels, self.k, self.family, self.flavor
                    ))
                    self._tables_cache = tables
        return tables

    def _set_segments(self, segments) -> None:
        """Adopt *segments* as the storage -- the one way queries read
        the entry columns on any backing and backend -- and drop the
        sweep views over the old ones."""
        self._views_cache: Optional[Any] = None
        self._segments = segments

    def _entry_nodes(self, part, lo: int, hi: int):
        """``part.node[lo:hi]``, range-checked: a mapped load never
        scanned the column, and an unchecked id would name the wrong
        label."""
        nodes = part.node[lo:hi]
        if len(nodes) and max(nodes) >= len(self._labels):
            raise kernels.pure.bad_node_id(
                nodes, part.base + lo, len(self._labels)
            )
        return nodes

    def _slice_ranks(self, part, lo: int, hi: int) -> Tuple[Any, List[float]]:
        """``(nodes, ranks)`` of the entries in slots ``[lo, hi)`` of
        segment *part*, the ranks gathered from the per-node tables
        (per permutation for k-mins)."""
        ranks = self._node_tables[1]
        nodes = self._entry_nodes(part, lo, hi)
        if self.flavor != "kmins":
            return nodes, list(map(ranks[0].__getitem__, nodes))
        try:
            return nodes, [
                ranks[h][v] for v, h in zip(nodes, part.aux[lo:hi])
            ]
        except IndexError:
            raise EstimatorError("corrupt index: aux value outside [0, k)")

    def _kernel_views(self):
        """The active kernel's prepared view for the whole-graph
        sweeps, cached.  The pure kernel sweeps the segments the
        per-node reads go through (its ``prepare_views`` hands them
        back); the NumPy kernel builds zero-copy ``frombuffer`` views
        of the sweep columns (assembling a sharded map's once)."""
        views = self._views_cache
        if views is None:
            views = self._kernel.prepare_views(self._segments)
            self._views_cache = views
        return views

    def set_kernel_workers(self, kernel_workers) -> None:
        """(Re-)wire the kernel worker count, on construction and on a
        live index: resolve the effective count and wrap the base
        kernel in the process fan-out dispatcher when it is > 1.

        ``kernel_workers`` is an explicit count, or ``"auto"``/``None``
        for ``REPRO_KERNEL_WORKERS`` if set, else 1: the fan-out lost
        every measurement against the serial kernels, so nothing but an
        explicit request selects it
        (:mod:`repro.ads.kernels.parallel`).  Queries in flight keep
        the views they already hold, new queries see the new fan-out;
        results are bit-identical at any worker count, only the
        wall-clock changes.
        """
        workers = kernel_parallel.resolve_workers(kernel_workers)
        self.kernel_workers = workers
        if workers > 1:
            self._kernel = kernel_parallel.ParallelKernel(
                self._kernel_base, workers
            )
        else:
            self._kernel = self._kernel_base
        self._views_cache = None

    def _compute_cum_hip(self) -> array:
        # Per-node running prefix sums of the HIP column: cardinality
        # queries become one bisect plus one lookup.  Summation order is
        # left-to-right within each slice, exactly like BaseADS, so the
        # floats agree bit-for-bit -- on either kernel backend.
        return self._kernel.compute_cum_hip(self._kernel_views())

    @property
    def _cum_hip(self) -> array:
        """Prefix-sum column, computed on first use for lazy loads.

        Locked: concurrent first batch queries from several threads
        must not each run the O(entries) pass (and each allocate the
        full 8-bytes-per-entry array) on a freshly mapped index.
        """
        cumulative = self._cum_cache
        if cumulative is None:
            with self._cum_lock:
                cumulative = self._cum_cache
                if cumulative is None:
                    cumulative = self._compute_cum_hip()
                    self._cum_cache = cumulative
        return cumulative

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph,
        k: int,
        family: Optional[HashFamily] = None,
        flavor: str = "bottomk",
        method: str = "auto",
        direction: str = "forward",
        seed: int = 0,
        stats: Optional[BuildStats] = None,
        workers: int = 1,
        shards: Optional[int] = None,
        backend: str = "auto",
        kernel_workers=None,
    ) -> "AdsIndex":
        """Build the index for every node of *graph* in one pass.

        *graph* may be a :class:`CSRGraph` or an adjacency-dict
        ``Graph`` (converted via ``to_csr()``).  Methods are the exact
        CSR builders: 'pruned_dijkstra', 'dp', or 'auto' (=
        'pruned_dijkstra', the faster core on this backend; both emit
        identical sketches).

        ``workers > 1`` runs the sharded multi-process build
        (:mod:`repro.ads.parallel`): candidates are dealt into *shards*
        shards (default: one per worker), scanned in worker processes,
        and merged by exact competition replay -- the resulting index is
        bit-identical to the serial build, columns included.
        ``workers=1`` with ``shards > 1`` runs the same shard/replay
        pipeline in-process.

        The index keeps *family*'s seed, not the object: ranks and
        tiebreaks are held per node from this build and derived again
        from ``HashFamily(seed)`` after a save / load, so a subclass
        overriding ``rank`` is not reproduced by a reload.

        ``backend`` picks the estimator kernel the built index answers
        batch queries with (:mod:`repro.ads.kernels`): ``"auto"``
        (NumPy when installed, honouring ``REPRO_BACKEND``),
        ``"numpy"``, or ``"python"``.  The sketch columns themselves
        are backend-independent.  An explicit ``kernel_workers`` count
        fans batch queries out across that many worker processes
        (``"auto"``/``None``: ``REPRO_KERNEL_WORKERS`` if set, else 1;
        results are bit-identical at any count).

        Returns:
            The fully built index (every node, HIP column included).

        Raises:
            ParameterError: unknown flavor/method/direction, ``k < 1``,
                or a parallel request the CSR cores cannot serve.

        Example:
            >>> from repro.graph import path_graph
            >>> AdsIndex.build(path_graph(4).to_csr(), k=4)
            AdsIndex(flavor='bottomk', k=4, n=4, entries=16)
        """
        require(k >= 1, f"k must be >= 1, got {k}")
        require(workers >= 1, f"workers must be >= 1, got {workers}")
        if shards is not None:
            require(shards >= 1, f"shards must be >= 1, got {shards}")
        if family is None:
            family = HashFamily(seed)
        if direction not in ("forward", "backward"):
            raise ParameterError(f"unknown direction {direction!r}")
        if flavor not in _FLAVOR_CLASSES:
            raise ParameterError(
                f"unknown flavor {flavor!r}; expected one of "
                f"{sorted(_FLAVOR_CLASSES)}"
            )
        csr = graph if isinstance(graph, CSRGraph) else graph.to_csr()
        if direction == "backward":
            csr = csr.transpose()
        if method == "auto":
            method = "pruned_dijkstra"
        if stats is None:
            stats = BuildStats()
        labels = csr.nodes()
        tables = node_hash_tables(labels, k, family, flavor)
        if workers > 1 or shards is not None:
            per_node = build_flat_entries_sharded(
                csr, k, family, flavor, method, stats,
                workers=workers, shards=shards, tables=tables,
            )
        else:
            per_node = build_flat_entries(
                csr, k, family, flavor, method, stats, tables
            )
        rank_tables = tables[1]
        offsets = array(storage.OFFSETS_TYPECODE, bytes(8 * (len(labels) + 1)))
        columns = [array(code) for code in storage.entry_typecodes(flavor)]
        cum = array("d")
        for i, records in enumerate(per_node):
            cls._pack_slice(
                kernels.pure, flavor, k, rank_tables, records, columns, cum
            )
            records.clear()  # the records die as their columns grow
            offsets[i + 1] = len(columns[0])
        index = cls._from_segments(
            flavor, k, family.seed, labels,
            kernels.pure.Columns.flat(offsets, *columns), 1.0, True,
            backend, kernel_workers, cum,
        )
        # The tables the builders competed on, handed over.
        index._tables_cache = _pack_tables(tables)
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_entries(self) -> int:
        return self._segments.entries

    @property
    def mapped_shards(self) -> Optional[int]:
        """How many shard files a lazy sharded load has mapped so far.

        ``None`` for eager and single-file-mmap backings, where the
        notion does not apply; serving dashboards surface it to show a
        cold index warming up.
        """
        return self._segments.mapped

    def format_stats(self) -> Dict[str, Any]:
        """What an entry costs: the storage format version, the bytes
        the entry columns take per entry, and this index's flat-array
        bytes per entry (offsets, the cum-hip cache and the per-node
        tables included once they exist)."""
        typecodes = storage.entry_typecodes(self.flavor)
        entry_bytes = storage.expected_bytes(typecodes, [1] * len(typecodes))
        entries = self.num_entries
        held = 8 * (self.num_nodes + 1) + entry_bytes * entries
        if self._cum_cache is not None:
            held += 8 * entries
        if self._tables_cache is not None:
            held += 8 * self.num_nodes * (1 + len(self._tables_cache[1]))
        return {
            "format_version": storage.FORMAT_VERSION,
            "entry_bytes": entry_bytes,
            "bytes_per_entry": round(held / max(1, entries), 3),
        }

    def nodes(self) -> List[Hashable]:
        return list(self._labels)

    def label_type(self) -> Optional[type]:
        """``int`` when every label is a (non-bool) int, ``str`` when
        every label is a str, ``None`` for empty or mixed label sets.

        The single source of truth for label-type inference: the CLI
        parses graph/edge-batch files with this type, and the serve
        layer coerces JSON batch labels to it, so the two surfaces can
        never disagree about what ``"7"`` names.
        """
        if not self._labels:
            return None
        if all(
            isinstance(label, int) and not isinstance(label, bool)
            for label in self._labels
        ):
            return int
        if all(isinstance(label, str) for label in self._labels):
            return str
        return None

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._ids

    def __repr__(self) -> str:
        return (
            f"AdsIndex(flavor={self.flavor!r}, k={self.k}, "
            f"n={self.num_nodes}, entries={self.num_entries})"
        )

    def _slice(self, label: Hashable) -> Tuple[int, int]:
        # The entry bounds only: the serving layer's sketch size.
        return self._segments.locate(self._ids[label])[1:]

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------
    def cardinality_at(self, d: float = math.inf) -> Dict[Hashable, float]:
        """HIP estimate of n_d(v) for *every* node v.

        One bisect per node over the distance column plus a prefix-sum
        lookup (Section 5); exact (not just unbiased) whenever a node's
        d-neighborhood fits in the sketch.

        Args:
            d: Distance threshold; the default ``inf`` counts every
                reachable node.

        Returns:
            ``{label: estimated |N_d(label)|}`` for every indexed node,
            the node itself included.

        Raises:
            EstimatorError: if *d* is NaN.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.cardinality_at(1.0)
            {0: 2.0, 1: 3.0, 2: 3.0, 3: 2.0}
        """
        self._require_threshold(d)
        values = self._kernel.batch_cardinality(
            self._kernel_views(), self._cum_hip, d
        )
        return dict(zip(self._labels, values))

    def reachable_counts(self) -> Dict[Hashable, float]:
        """HIP estimate of the reachable-set size of every node.

        Returns:
            ``{label: estimated |reachable(label)|}``, i.e.
            :meth:`cardinality_at` at ``d=inf``.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(3).to_csr(), k=4)
            >>> index.reachable_counts()
            {0: 3.0, 1: 3.0, 2: 3.0}
        """
        return self.cardinality_at(math.inf)

    def node_cardinality_at(self, label: Hashable, d: float = math.inf) -> float:
        """HIP estimate of n_d(label) (single-node form).

        Args:
            label: An indexed node label.
            d: Distance threshold (default: all reachable nodes).

        Returns:
            The estimated number of nodes within distance *d* of
            *label* -- same float as ``cardinality_at(d)[label]``.

        Raises:
            EstimatorError: if *label* is not in the index, or *d* is
                NaN.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.node_cardinality_at(0, 1.0)
            2.0
        """
        self._require_threshold(d)
        part, lo, hi = self._segments.locate(self._ids[label])
        cutoff = bisect_right(part.dist, d, lo, hi)
        return kernels.pure.slice_hip_sum(
            part.hip, self._cum_cache, lo, cutoff, part.base
        )

    def nodes_cardinality_at(
        self, labels: Sequence[Hashable], d: float = math.inf
    ) -> List[float]:
        """n_d estimates for an explicit subset of nodes, in one call.

        The serving layer's batch entry point: batch POSTs resolve
        here, so a whole batch costs one index call (and one lock
        acquisition server-side) instead of a round trip per node.
        Exactly ``[node_cardinality_at(label, d) for label in labels]``
        -- same bisect over the distance column, same left-to-right
        HIP summation, bit-identical floats.

        Args:
            labels: Indexed node labels (order preserved in the result).
            d: Distance threshold (default: all reachable nodes).

        Raises:
            EstimatorError: if any label is not in the index, or *d*
                is NaN.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.nodes_cardinality_at([0, 3], 1.0)
            [2.0, 2.0]
        """
        self._require_threshold(d)
        locate = self._segments.locate
        slice_hip_sum = kernels.pure.slice_hip_sum
        values: List[float] = []
        for label in labels:
            part, lo, hi = locate(self._ids[label])
            cutoff = bisect_right(part.dist, d, lo, hi)
            values.append(slice_hip_sum(
                part.hip, self._cum_cache, lo, cutoff, part.base
            ))
        return values

    def neighborhood_function(self) -> List[Tuple[float, float]]:
        """Whole-graph neighborhood function (the ANF statistic).

        Returns:
            ``[(d, estimate), ...]`` for every distinct positive
            distance, where *estimate* is the estimated number of
            ordered node pairs within distance *d*, cumulatively.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.neighborhood_function()
            [(1.0, 6.0), (2.0, 10.0), (3.0, 12.0)]
        """
        return self._kernel.neighborhood_series(self._kernel_views())

    def accumulate_neighborhood_jumps(
        self,
        jumps: Dict[float, float],
        start: int = 0,
        stop: Optional[int] = None,
    ) -> Dict[float, float]:
        """Fold node rows ``[start, stop)`` into per-distance HIP sums.

        This is the accumulation half of :meth:`neighborhood_function`,
        exposed so a cluster router can *chain* it across node-sharded
        workers: each worker folds its own rows, in slot order, into
        the running ``{distance: weight_sum}`` dict seeded by the
        previous worker.  Because the per-distance sums are built by
        the exact left-to-right fold the reference kernel uses
        (``jumps[d] = jumps.get(d, 0.0) + weight``, zero distances
        skipped), chaining contiguous ranges in node order replays the
        single-index float-op sequence addition-for-addition -- the
        merged series is bit-identical, not merely close.

        Args:
            jumps: Running per-distance sums; mutated in place (pass
                ``{}`` for the first range) and also returned.
            start / stop: Node-row range to fold; ``stop=None`` means
                through the last row.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> jumps = index.accumulate_neighborhood_jumps({}, 0, 2)
            >>> jumps = index.accumulate_neighborhood_jumps(jumps, 2)
            >>> series, running = [], 0.0
            >>> for d in sorted(jumps):
            ...     running += jumps[d]
            ...     series.append((d, running))
            >>> series == index.neighborhood_function()
            True
        """
        n = self.num_nodes
        stop = n if stop is None else stop
        require(
            0 <= start <= stop <= n,
            f"node range [{start}, {stop}) must lie within [0, {n})",
        )
        for part, a, b in self._segments.locate_range(start, stop):
            lo, hi = part.offsets[a], part.offsets[b]
            for d, weight in zip(part.dist[lo:hi], part.hip[lo:hi]):
                if d <= 0.0:
                    continue
                jumps[d] = jumps.get(d, 0.0) + weight
        return jumps

    def node_neighborhood_function(
        self, label: Hashable
    ) -> List[Tuple[float, float]]:
        """Estimated cumulative distance distribution of one node.

        Args:
            label: An indexed node label.

        Returns:
            ``[(d, estimated |N_d(label)|), ...]`` per distinct
            distance, the node itself included at ``d = 0``.

        Raises:
            EstimatorError: if *label* is not in the index.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.node_neighborhood_function(0)
            [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
        """
        part, lo, hi = self._segments.locate(self._ids[label])
        series: List[Tuple[float, float]] = []
        running = 0.0
        for d, weight in zip(part.dist[lo:hi], part.hip[lo:hi]):
            running += weight
            if series and series[-1][0] == d:
                series[-1] = (d, running)
            else:
                series.append((d, running))
        return series

    def closeness_centrality(
        self,
        alpha: Optional[Callable[[float], float]] = None,
        beta: Optional[Callable[[Hashable], float]] = None,
        classic: bool = False,
    ) -> Dict[Hashable, float]:
        """C_{alpha,beta} (Equation 2) for every node in one sweep.

        Mirrors :func:`repro.centrality.closeness.closeness_centrality`
        float-for-float.

        Args:
            alpha: Non-increasing nonnegative distance kernel; ``None``
                means the raw sum of distances.
            beta: Per-node filter weight applied to the *other* node
                (decided after the build -- Corollary 5.2).
            classic: Bavelas's ``reachable / sum-of-distances`` instead
                of the kernel form; excludes ``alpha``/``beta``.

        Returns:
            ``{label: estimated centrality}`` for every indexed node.

        Raises:
            EstimatorError: for ``classic=True`` combined with
                ``alpha``/``beta``, or a kernel that goes negative.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.closeness_centrality(classic=True)
            {0: 0.5, 1: 0.75, 2: 0.75, 3: 0.5}
        """
        if classic and (alpha is not None or beta is not None):
            raise EstimatorError(
                "classic=True computes (n-1)/sum(d); alpha/beta do not apply"
            )
        if beta is not None:
            # A node filter consumes entry labels through a Python
            # callable; that stays on the per-slice reference loop
            # whatever the kernel backend.
            locate = self._segments.locate
            return {
                label: self._closeness_for_slice(
                    *locate(i), alpha, beta, classic
                )
                for i, label in enumerate(self._labels)
            }
        values = self._kernel.batch_closeness(
            self._kernel_views(), alpha, classic, cum=self._cum_cache
        )
        return dict(zip(self._labels, values))

    def _closeness_for_slice(
        self,
        part,
        lo: int,
        hi: int,
        alpha: Optional[Callable[[float], float]],
        beta: Optional[Callable[[Hashable], float]],
        classic: bool,
    ) -> float:
        if beta is not None and not classic:
            # Only a node filter ever consumes the entry labels; skip
            # the per-entry interner lookups otherwise.
            label_of = self._labels.__getitem__
            entry_labels = [label_of(node_id) for node_id in
                            self._entry_nodes(part, lo, hi)]
            return closeness_centrality_estimate(
                entry_labels, part.dist[lo:hi], part.hip[lo:hi],
                alpha=alpha, beta=beta,
            )
        # beta-free sum: the reference slice loop (single-node queries
        # are O(sketch size); the batch sweep above vectorises the same
        # arithmetic and returns the same floats).
        return kernels.pure.closeness_for_slice(
            part.dist, part.hip, lo, hi, alpha, classic,
            part.window(self._cum_cache),
        )

    def node_closeness_centrality(
        self,
        label: Hashable,
        alpha: Optional[Callable[[float], float]] = None,
        beta: Optional[Callable[[Hashable], float]] = None,
        classic: bool = False,
    ) -> float:
        """One node's C_{alpha,beta}: O(sketch size), same floats as the
        batch :meth:`closeness_centrality` entry.

        Args:
            label: An indexed node label; the remaining arguments are
                those of :meth:`closeness_centrality`.

        Returns:
            The node's estimated centrality.

        Raises:
            EstimatorError: unknown *label*, or invalid
                ``classic``/``alpha``/``beta`` combinations.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.node_closeness_centrality(1, classic=True)
            0.75
        """
        if classic and (alpha is not None or beta is not None):
            raise EstimatorError(
                "classic=True computes (n-1)/sum(d); alpha/beta do not apply"
            )
        return self._closeness_for_slice(
            *self._segments.locate(self._ids[label]), alpha, beta, classic
        )

    def top_central(
        self,
        count: int,
        alpha: Optional[Callable[[float], float]] = None,
        beta: Optional[Callable[[Hashable], float]] = None,
        classic: bool = False,
        largest: bool = True,
    ) -> List[Tuple[Hashable, float]]:
        """The *count* most (or least) central nodes.

        Args:
            count: How many nodes to return (fewer when the graph is
                smaller).
            alpha / beta / classic: Centrality form, exactly as in
                :meth:`closeness_centrality`.
            largest: ``False`` ranks ascending instead.

        Returns:
            ``[(label, value), ...]`` sorted by value, ties broken by
            node repr -- same contract as ``top_k_central_nodes``
            (which heap-selects the *count* winners in O(n log count)
            instead of fully sorting all n values).

        Raises:
            EstimatorError: invalid ``classic``/``alpha``/``beta``
                combinations.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.top_central(2, classic=True)
            [(1, 0.75), (2, 0.75)]
        """
        # Lazy import: repro.centrality imports repro.ads at module load.
        from repro.centrality.closeness import top_k_central_nodes

        values = self.closeness_centrality(alpha=alpha, beta=beta, classic=classic)
        return top_k_central_nodes(values, count, largest=largest)

    # ------------------------------------------------------------------
    # Similarity and distance-oracle queries (bottom-k flavor)
    # ------------------------------------------------------------------
    def _require_bottomk(self) -> None:
        if self.flavor != "bottomk":
            raise EstimatorError(
                "similarity queries need a bottom-k index (the flavor "
                "whose extracted MinHash sketches are k-samples without "
                f"replacement); this index's flavor is {self.flavor!r}"
            )

    def _pair_ids(
        self, pairs: Sequence[Sequence[Hashable]]
    ) -> List[Tuple[int, int]]:
        resolved: List[Tuple[int, int]] = []
        for position, pair in enumerate(pairs):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise EstimatorError(
                    f"pairs[{position}] must be a (u, v) pair of node "
                    f"labels, got {pair!r}"
                ) from None
            resolved.append((self._ids[u], self._ids[v]))
        return resolved

    @staticmethod
    def _require_threshold(d: float) -> None:
        """NaN compares false with every distance, so a bisect would
        silently read it as ``inf``; refuse it like the HTTP layer."""
        if math.isnan(d):
            raise EstimatorError("d must not be NaN")

    def pairs_distance_estimate(
        self, pairs: Sequence[Sequence[Hashable]]
    ) -> List[float]:
        """Sketch-space distance upper bounds for ``(u, v)`` pairs.

        The ADS columns double as a 2-hop-cover distance oracle: the
        estimate is the minimum of ``d(u, w) + d(v, w)`` over entries
        *w* common to both sketches -- an upper bound on the true
        distance for symmetric metrics, and ``inf`` when the sketches
        share no entry (e.g. disconnected components).

        Args:
            pairs: ``(u, v)`` label pairs (order preserved).

        Raises:
            EstimatorError: non-bottom-k flavor, a malformed pair, or
                an unknown label.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.pairs_distance_estimate([(0, 3), (1, 1)])
            [3.0, 0.0]
        """
        self._require_bottomk()
        return kernels.pure.pairs_distance(
            self._segments, self._pair_ids(pairs)
        )

    def pairs_neighborhood_jaccard(
        self, pairs: Sequence[Sequence[Hashable]], d: float = math.inf
    ) -> List[float]:
        """MinHash Jaccard estimates of ``N_d(u)`` vs ``N_d(v)``.

        Same floats as
        :func:`repro.centrality.similarity.neighborhood_jaccard` over
        the materialised per-node sketches, computed straight off the
        flat columns.

        Args:
            pairs: ``(u, v)`` label pairs (order preserved).
            d: Neighborhood threshold (default: full reachable sets).

        Raises:
            EstimatorError: non-bottom-k flavor, a malformed pair, an
                unknown label, or ``d`` NaN.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.pairs_neighborhood_jaccard([(0, 1)], d=1.0)
            [0.6666666666666666]
        """
        self._require_bottomk()
        self._require_threshold(d)
        return kernels.pure.pairs_jaccard(
            self._segments, self._node_tables[1][0],
            self._pair_ids(pairs), d, self.k,
        )

    def pairs_union_size_estimate(
        self, pairs: Sequence[Sequence[Hashable]], d: float = math.inf
    ) -> List[float]:
        """Estimated ``|N_d(u) ∪ N_d(v)|`` from merged bottom-k sketches.

        Same estimator as
        :func:`repro.sketches.similarity.union_size_estimate`: exact
        when the union sketch holds fewer than k samples, conditional
        inverse-probability otherwise.

        Args:
            pairs: ``(u, v)`` label pairs (order preserved).
            d: Neighborhood threshold (default: full reachable sets).

        Raises:
            EstimatorError: non-bottom-k flavor, a malformed pair, an
                unknown label, or ``d`` NaN.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.pairs_union_size_estimate([(0, 1)], d=1.0)
            [3.0]
        """
        self._require_bottomk()
        self._require_threshold(d)
        return kernels.pure.pairs_union_size(
            self._segments, self._node_tables[1][0],
            self._pair_ids(pairs), d, self.k, self.rank_sup,
        )

    def pairs_closeness_similarity(
        self, pairs: Sequence[Sequence[Hashable]]
    ) -> List[float]:
        """Closeness similarity (Section 5.3) for ``(u, v)`` pairs.

        The uniform-weight average of neighborhood Jaccard over the
        union of the two sketches' distinct entry distances -- same
        floats as
        :func:`repro.centrality.similarity.closeness_similarity` with
        default distances and weights.

        Args:
            pairs: ``(u, v)`` label pairs (order preserved).

        Raises:
            EstimatorError: non-bottom-k flavor, a malformed pair, or
                an unknown label.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.pairs_closeness_similarity([(1, 2), (0, 0)])
            [0.5, 1.0]
        """
        self._require_bottomk()
        return kernels.pure.pairs_closeness_similarity(
            self._segments, self._node_tables[1][0],
            self._pair_ids(pairs), self.k,
        )

    def most_similar(
        self,
        label: Hashable,
        count: int = 10,
        d: float = math.inf,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> List[Tuple[Hashable, float]]:
        """The *count* nodes most similar to *label* by neighborhood
        Jaccard at threshold *d*.

        One kernel sweep over the candidate id range plus a heap
        selection -- the batch-layer replacement for
        ``repro.centrality.similarity.most_similar_nodes`` (same
        comparator: value descending, ties by node repr).  ``start`` /
        ``stop`` restrict the *candidate* ids so sharded workers can
        sweep disjoint ranges whose per-range winners merge exactly.

        Args:
            label: The query node (never returned as its own match).
            count: How many matches (fewer when the range is smaller).
            d: Neighborhood threshold (default: full reachable sets).
            start / stop: Candidate node-id range; ``stop=None`` means
                through the last id.

        Raises:
            EstimatorError: non-bottom-k flavor, unknown *label*,
                ``d`` NaN, ``count < 1``, or a range outside ``[0, n)``.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.most_similar(0, count=2, d=1.0)
            [(1, 0.6666666666666666), (2, 0.25)]
        """
        require(count >= 1, f"count must be >= 1, got {count}")
        self._require_bottomk()
        self._require_threshold(d)
        query = self._ids[label]
        n = self.num_nodes
        stop = n if stop is None else stop
        require(
            0 <= start <= stop <= n,
            f"node range [{start}, {stop}) must lie within [0, {n})",
        )
        scores = kernels.pure.similarity_scan(
            self._segments, self._node_tables[1][0], query, d, self.k,
            start, stop,
        )
        # Lazy import: repro.centrality imports repro.ads at module load.
        from repro.centrality.closeness import top_k_central_nodes

        label_of = self._labels.__getitem__
        values = {label_of(i): score for i, score in scores}
        return top_k_central_nodes(values, count, largest=True)

    def distance_distribution(self) -> List[Tuple[float, float, float]]:
        """The ANF curve: the neighborhood function with each point's
        fraction of the final (all-distances) pair count.

        Returns:
            ``[(d, estimated pairs within d, fraction of total), ...]``
            per distinct positive distance; empty for an edgeless graph.

        Example:
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> index.distance_distribution()
            [(1.0, 6.0, 0.5), (2.0, 10.0, 0.8333333333333334), (3.0, 12.0, 1.0)]
        """
        series = self.neighborhood_function()
        if not series:
            return []
        total = series[-1][1]
        return [(d, running, running / total) for d, running in series]

    # ------------------------------------------------------------------
    # Backward compatibility: lazy BaseADS materialisation
    # ------------------------------------------------------------------
    def __getitem__(self, label: Hashable) -> BaseADS:
        """Materialise (and cache) the legacy ADS object of one node."""
        cached = self._materialised.get(label)
        if cached is not None:
            return cached
        entries = records_to_entries(
            self._slice_records(self._ids[label]), self._labels
        )
        ads = _FLAVOR_CLASSES[self.flavor](
            label, self.k, entries, self.family, rank_sup=self.rank_sup
        )
        self._materialised[label] = ads
        return ads

    def get(self, label: Hashable) -> Optional[BaseADS]:
        return self[label] if label in self._ids else None

    def to_ads_set(self) -> Dict[Hashable, BaseADS]:
        """Materialise every node's ADS (the legacy ``build_ads_set``
        return shape)."""
        return {label: self[label] for label in self._labels}

    # ------------------------------------------------------------------
    # Dynamic maintenance: incremental edge application
    # ------------------------------------------------------------------
    def _slice_records(self, i: int) -> List[Record]:
        """Node id *i*'s entries as builder records (scan order), rank
        and tiebreak gathered from the per-node tables."""
        part, lo, hi = self._segments.locate(i)
        nodes, ranks = self._slice_ranks(part, lo, hi)
        aux = repeat(None) if part.aux is None else part.aux[lo:hi]
        return list(zip(
            part.dist[lo:hi],
            map(self._node_tables[0].__getitem__, nodes),
            nodes,
            ranks,
            aux if self.flavor == "kpartition" else repeat(None),
            aux if self.flavor == "kmins" else repeat(None),
        ))

    @staticmethod
    def _pack_slice(
        kernel, flavor: str, k: int,
        rank_tables: Sequence[Sequence[float]], records: Sequence[Record],
        columns: Sequence[array], cum: Optional[array],
    ) -> None:
        """Append one node's slice -- builder *records* in scan order --
        to the entry *columns* (file order) with its Section-5 adjusted
        weights, and their per-slice prefix sums to *cum* unless it is
        ``None``: the inverse of :meth:`_slice_records`, minus what the
        per-node tables hold.

        The one HIP pass (:func:`~repro.ads.kernels.slice_hip_weights`):
        the build runs it over every slice and ``apply_edges`` over the
        ones it rewrites, serially on the base kernel at any worker
        count (a few milliseconds of a splice, and 3-4x that when
        fanned out).  The prefix sums run left to right, the kernels'
        ``compute_cum_hip`` order, so the cum-hip column a build or a
        splice writes is the one a load computes, bit for bit.
        """
        columns[0].extend([record[0] for record in records])
        columns[2].extend([record[2] for record in records])
        rank_vectors = None
        if flavor != "bottomk":
            field = 4 if flavor == "kpartition" else 5
            columns[3].extend([record[field] for record in records])
            if flavor == "kmins":
                # What the k-mins weights condition on: each record's
                # node's rank under all k permutations.
                rank_vectors = [
                    [table[record[2]] for table in rank_tables]
                    for record in records
                ]
        weights = kernels.slice_hip_weights(
            kernel, flavor, k, records, rank_vectors
        )
        columns[1].extend(weights)
        if cum is not None:
            cum.extend(accumulate(weights))

    def apply_edges(self, graph, edges: Iterable[Tuple]) -> UpdateResult:
        """Absorb an edge-insertion batch without a full rebuild.

        Adds *edges* (``(u, v)`` / ``(u, v, weight)`` label tuples) to
        *graph* -- the :class:`~repro.graph.csr.CSRGraph` this index was
        built from, in the build orientation -- and patches the index
        columns in place by pruned re-propagation seeded from the
        inserted arcs' endpoint sketches
        (:func:`repro.ads.dynamic.propagate_edge_insertions`).  The
        result is bit-identical to rebuilding the index from the
        updated graph; only the touched node slices are rewritten.
        New endpoint labels are appended to both graph and index.

        The batch is recorded in :attr:`delta_log` and the rewritten
        node ids accumulate until :meth:`compact` flushes them to disk.

        Args:
            graph: The index's graph (same labels in the same id
                order); mutated in place via
                :meth:`~repro.graph.csr.CSRGraph.add_edges`.
            edges: Edge tuples to insert; duplicates of existing edges
                (at no smaller weight) are no-ops.

        Returns:
            An :class:`~repro.ads.dynamic.UpdateResult` with dirty/new
            node counts and propagation work counters.

        Raises:
            EstimatorError: read-only (mmap-backed) index, a graph
                whose labels disagree with the index, or an index
                flavor/rank assignment the dynamic path does not cover.
            GraphError: malformed edge tuples (self-loops, non-positive
                weights).

        Example:
            >>> from repro.graph import path_graph
            >>> graph = path_graph(4).to_csr()
            >>> index = AdsIndex.build(graph, k=4)
            >>> index.apply_edges(graph, [(0, 3)]).applied_arcs
            2
            >>> index.cardinality_at(1.0)
            {0: 3.0, 1: 3.0, 2: 3.0, 3: 3.0}
        """
        if self.mmap_backed:
            raise EstimatorError(
                "this index is memory-mapped read-only; reload it with "
                "mmap=False to apply updates"
            )
        if self.rank_sup != 1.0:
            raise EstimatorError(
                "dynamic updates support indexes built by AdsIndex.build "
                f"(uniform ranks); this index has rank_sup={self.rank_sup}"
            )
        if not isinstance(graph, CSRGraph):
            raise ParameterError(
                "apply_edges requires the CSRGraph the index was built "
                f"from, got {type(graph).__name__}"
            )
        if graph.nodes() != self._labels:
            raise EstimatorError(
                "graph/index mismatch: the graph must carry exactly the "
                "index's node labels in id order (build the index from "
                "this graph, or reload the matching graph)"
            )
        old_n = self.num_nodes
        arcs = graph.add_edges(edges)
        labels_after = graph.nodes()
        new_labels = labels_after[old_n:]
        stats = BuildStats()
        if not arcs:
            result = UpdateResult()
        else:
            dirty_records = propagate_edge_insertions(
                graph, self.flavor, self.k, self.family, old_n,
                self._slice_records, arcs, stats,
            )
            if new_labels:
                # New arrays, not in-place growth: kernel views may
                # still export the old tables' buffers.
                tiebreaks, ranks = self._node_tables
                new_tiebreaks, new_ranks = _pack_tables(node_hash_tables(
                    new_labels, self.k, self.family, self.flavor
                ))
                self._tables_cache = (
                    tiebreaks + new_tiebreaks,
                    [old + new for old, new in zip(ranks, new_ranks)],
                )
            self._splice_slices(dirty_records, len(labels_after), old_n)
            for label in new_labels:
                self._ids[label] = len(self._labels)
                self._labels.append(label)
            for vid in dirty_records:
                if vid < old_n:
                    self._materialised.pop(labels_after[vid], None)
            self._dirty_ids.update(dirty_records)
            result = UpdateResult(
                applied_arcs=len(arcs),
                dirty_nodes=len(dirty_records),
                new_nodes=len(new_labels),
                insertions=stats.insertions,
                evictions=stats.evictions,
                relaxations=stats.relaxations,
            )
        self.delta_log.append({
            "batch": len(self.delta_log) + 1,
            **result.to_dict(),
        })
        return result

    def _splice_slices(
        self, dirty_records: Dict[int, List[Record]], new_n: int, old_n: int
    ) -> None:
        """Rewrite the flat columns with *dirty_records* patched in.

        Unchanged slices are block-copied (C-speed ``array`` slicing);
        dirty slices are refilled from their replacement records with
        freshly derived HIP weights.

        The cached ``_cum_hip`` prefix column is spliced alongside
        instead of being dropped: an unchanged slice's prefix sums
        restart at 0.0 per slice, so they are position-shifted copies,
        and only the dirty slices' prefixes are recomputed (from the
        very weights being written).  Without this, every batch would
        re-run the O(entries) cum-hip pass on the next query.  An
        unmaterialised cache stays unmaterialised.
        """
        # Updates need owned columns: one segment.
        (old,) = self._segments.segments
        old_offsets = old.offsets
        old_columns = [column for column in old[2:6] if column is not None]
        if self._cum_cache is not None:
            old_columns.append(self._cum_cache)
        rank_tables = self._node_tables[1]
        new_offsets = array(storage.OFFSETS_TYPECODE, bytes(8 * (new_n + 1)))
        new_columns = [array(column.typecode) for column in old_columns]
        new_cum = new_columns[-1] if self._cum_cache is not None else None
        for i in range(new_n):
            records = dirty_records.get(i)
            if records is None:
                # An untouched new node (cannot arise from add_edges,
                # which only interns edge endpoints) keeps an empty
                # slice.
                if i < old_n:
                    lo, hi = old_offsets[i], old_offsets[i + 1]
                    for column, source in zip(new_columns, old_columns):
                        column.extend(source[lo:hi])
            else:
                self._pack_slice(
                    self._kernel_base, self.flavor, self.k, rank_tables,
                    records, new_columns, new_cum,
                )
            new_offsets[i + 1] = len(new_columns[0])
        if self._cum_cache is not None:
            self._cum_cache = new_columns.pop()
        # The spliced columns are new objects; any kernel views over
        # the old ones are stale.
        self._set_segments(
            kernels.pure.Columns.flat(new_offsets, *new_columns)
        )

    def compact(
        self, path: Union[str, Path], shards: Optional[int] = None
    ) -> Dict[str, Any]:
        """Flush applied updates to the persisted layout at *path*.

        When *path* is an existing sharded layout (directory or its
        ``manifest.json``) still describing this index's node set, only
        the shards holding dirty node ids are rewritten, via
        :meth:`write_shard`.  Anything else -- a single-file index, a
        fresh path, or a layout whose node count changed because the
        batch added nodes -- is rewritten in full (``shards`` picks the
        layout for fresh paths; an incompatible existing layout keeps
        its shard count).  Clears the dirty set and the delta log.

        Returns:
            A summary dict: ``layout`` ('single' or 'sharded'),
            ``full_rewrite``, ``rewritten_shards`` (sharded only), and
            ``flushed_batches``.

        Raises:
            EstimatorError: read-only (mmap-backed) index, or an
                unwritable/corrupt destination layout.
        """
        if self.mmap_backed:
            raise EstimatorError(
                "this index is memory-mapped read-only; reload it with "
                "mmap=False before compacting"
            )
        info = storage.compact(self, Path(path), shards, self._dirty_ids)
        info["flushed_batches"] = len(self.delta_log)
        self._dirty_ids.clear()
        self.delta_log.clear()
        return info

    # ------------------------------------------------------------------
    # Persistence (the formats live in repro.ads.storage)
    # ------------------------------------------------------------------
    def save(
        self, path: Union[str, Path], shards: Optional[int] = None
    ) -> None:
        """Persist the index.

        With ``shards=None`` (default) *path* becomes a single binary
        file: a JSON header followed by the raw bytes of each column.
        With ``shards=N`` *path* becomes a **directory** holding a
        ``manifest.json`` plus N shard files, each carrying a contiguous
        node-id range's slice of every column -- the layout
        :meth:`write_shard` can refresh one shard of at a time; shard
        files a wider layout left in that directory are removed once
        the new manifest has landed.  Node labels must be ints or
        strings (anything JSON round-trips exactly) in both layouts.

        Args:
            path: Output file (or directory, with ``shards``).
            shards: Shard count for the directory layout; ``None``
                writes one flat file.

        Raises:
            EstimatorError: non-int/str node labels.
            OSError: unwritable destination.
        """
        storage.save(self, path, shards)

    def to_bytes(self) -> bytes:
        """The single-file layout as in-memory bytes (what :meth:`save`
        would write), ready to ship to a resyncing replica."""
        if self.mmap_backed:
            raise EstimatorError(
                "to_bytes needs an eagerly loaded index: memory-mapped "
                "columns are views, reload with mmap=False first"
            )
        storage.check_saveable_labels(self)
        buffer = io.BytesIO()
        storage.write_single(self, buffer)
        return buffer.getvalue()

    @classmethod
    def from_bytes(
        cls, data: bytes, backend: str = "auto", kernel_workers=None
    ) -> "AdsIndex":
        """Rebuild an index from :meth:`to_bytes` output (always eager,
        checksums verified)."""
        kernels.resolve(backend)
        kernel_parallel.parse_workers(kernel_workers)
        return storage.read_single(
            cls, io.BytesIO(data), "<index bytes>", False, backend,
            kernel_workers,
        )

    def labels_digest(self) -> str:
        """Fingerprint of the node label list (id order included) --
        what topology validation compares across router and workers."""
        return storage.labels_digest(self._labels)

    def content_digest(self) -> str:
        """Fingerprint of the full sketch state: parameters, labels,
        and every column's raw bytes (rank and tiebreak follow from the
        seed and labels, so a converted version-1 file digests like a
        fresh build).

        Two indexes agree here iff they answer every query identically,
        so the resync protocol uses it to prove a re-seeded replica
        matches its donor bit for bit.  Eager indexes only (a mapped
        column is a view, and mmap workers never take writes anyway).
        """
        if self.mmap_backed:
            raise EstimatorError(
                "content_digest needs an eagerly loaded index; reload "
                "with mmap=False"
            )
        return storage.content_digest(self)

    def write_shard(
        self, directory: Union[str, Path], shard_index: int
    ) -> None:
        """Refresh one shard file of an existing sharded layout from
        this index (incremental per-shard rebuild).

        The manifest must describe the same sketch set parameters and
        the same node labels in the same id order (entry node ids are
        global); only that shard's file and the manifest entry counts
        are rewritten.
        """
        storage.write_shard(self, Path(directory), shard_index)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        mmap: bool = False,
        backend: str = "auto",
        kernel_workers=None,
    ) -> "AdsIndex":
        """Read an index written by :meth:`save`.

        Args:
            path: A single-file index, a sharded layout directory, or
                that directory's ``manifest.json``.
            backend: Estimator kernel for batch queries
                (:mod:`repro.ads.kernels`): ``"auto"`` (NumPy when
                installed, honouring ``REPRO_BACKEND``), ``"numpy"``,
                or ``"python"``.  Queries return bit-identical floats
                either way.  On a lazily mapped sharded layout the
                NumPy kernel assembles all shards on the first sweep;
                per-node and pair queries map only the shards they name.
            kernel_workers: Fan batch queries out across this many
                worker processes (``"auto"``/``None``:
                ``REPRO_KERNEL_WORKERS`` if set, else 1).  Results
                are bit-identical at any count.
            mmap: With the default ``False``, every column is copied
                into process-owned ``array`` objects (byte order
                corrected when the file came from a different-endian
                machine).  With ``True``, load time is O(header +
                manifest): columns become zero-copy views over
                memory-mapped file bytes (:mod:`repro.ads.storage`),
                sharded layouts map each shard lazily on first touch,
                and the HIP prefix-sum column is computed on first
                batch-query use.  Every query returns bit-identical
                floats in both modes.  A foreign-endian file cannot be
                viewed zero-copy and silently falls back to the eager
                path.

        Returns:
            The reloaded :class:`AdsIndex`.

        Raises:
            EstimatorError: missing/truncated/corrupt files, or a
                shard/manifest mismatch.

        Example:
            >>> import tempfile, os
            >>> from repro.graph import path_graph
            >>> index = AdsIndex.build(path_graph(4).to_csr(), k=4)
            >>> path = os.path.join(tempfile.mkdtemp(), "tiny.adsidx")
            >>> index.save(path)
            >>> AdsIndex.load(path, mmap=True).node_cardinality_at(0, 1.0)
            2.0
        """
        # Validate the backend request up front: the loaders construct
        # the index inside a corrupt-header guard, and a bad backend
        # argument is a caller error, not file corruption.
        kernels.resolve(backend)
        kernel_parallel.parse_workers(kernel_workers)
        return storage.load(cls, Path(path), mmap, backend, kernel_workers)
