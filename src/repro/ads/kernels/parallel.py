"""Partition-parallel kernel execution over zero-copy column views.

The HIP batch queries are embarrassingly parallel across nodes: every
per-node cardinality, closeness sum, and cum-hip prefix reads only that
node's contiguous column slice.  :class:`ParallelKernel` exploits this
by wrapping a base kernel module (:mod:`repro.ads.kernels.pure` or
:mod:`repro.ads.kernels.np_kernel`) and fanning each batch query out
over deterministic contiguous node-range partitions:

* **sharded mmap layouts** partition one range per nonempty shard --
  each partition's column slices stay inside one shard, so
  :class:`~repro.ads.mmap_io.ShardedColumn` serves them as zero-copy
  ``memoryview`` slices of the mapped file;
* **eager and single-file-mmap layouts** partition into ``workers``
  contiguous node ranges balanced by entry count (a pure function of
  the offsets column, so partitioning is deterministic).

Each partition is rebased into "a smaller index" (offsets shifted to 0)
and fed to the base kernel's own ``prepare_views`` -- the per-partition
arithmetic is *exactly* the serial kernel's arithmetic on the same
slices.  Results merge by concatenation in fixed partition order, so
every batch query returns bit-identical floats at any worker count:

* ``compute_cum_hip`` / ``batch_cardinality`` / ``batch_closeness`` are
  per-node independent; concatenating per-partition outputs in node
  order *is* the serial output.
* ``neighborhood_series`` folds HIP mass across nodes, so row
  partitioning would reorder IEEE additions.  The NumPy thread path
  instead parallelises over *distance groups* (each group's mass in
  ``_group_sums`` is an independent sequential chain; concatenated
  per-chunk masses equal the serial masses exactly, then one serial
  ``np.cumsum`` finishes the series).  The pure kernel's dict fold
  stays serial.
* The per-slice HIP-weight recompute behind ``apply_edges``
  (:func:`slice_hip_weights`) is per-slice independent and fans dirty
  slices across workers (:meth:`ParallelKernel.slice_weights_map`).

**Pool choice.**  The NumPy kernel releases the GIL inside its hot ops,
so it defaults to a shared :class:`~concurrent.futures.ThreadPoolExecutor`
(zero-copy views shared in-process).  The pure kernel is GIL-bound and
defaults to a :class:`~concurrent.futures.ProcessPoolExecutor`; worker
processes receive either the partition's column bytes (eager layouts)
or a ``(path, data_start, count)`` shard descriptor they re-``mmap``
themselves -- the page cache makes that a zero-copy handoff.
``REPRO_KERNEL_POOL`` (``auto``/``thread``/``process``) overrides.

**Worker selection.**  ``resolve_workers`` maps a request (``"auto"``
or a positive int; ``None`` means auto) to an effective count.  Auto
consults ``REPRO_KERNEL_WORKERS``, then picks
``min(cpu_count, shard count)`` (or ``cpu_count`` for unsharded
layouts) -- but stays serial below :data:`AUTO_MIN_ENTRIES` entries,
where per-partition dispatch overhead (~0.1-1 ms between pool handoff
and view rebasing) beats the win, and always for the NumPy kernel:
its serial sweeps already run at array speed, and fanned over threads
they measured slower than serial at every size tried (0.45-0.88x on
one CPU in ``BENCH_kernels.json``, 0.5-0.92x on two at harness
scale), where the pure kernel over processes gains 1.3-1.6x.  An explicit
count is always honoured, any backend and small indexes included, so
equivalence tests exercise the parallel paths.

**Fallback.**  Pools are cached per ``(mode, workers)`` and shared
process-wide.  A mode whose executor cannot be created (sandboxes
without fork, interpreter teardown) is remembered as broken:
``process`` degrades to ``thread``, ``thread`` degrades to the serial
base kernel -- results are identical the whole way down, only the
wall-clock changes.  Mid-call pool failures likewise fall back to the
serial path; estimator errors raised *inside* workers (e.g. a negative
alpha kernel) propagate unchanged.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from array import array
from bisect import bisect_left
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.ads import kernels as _kernels
from repro.ads.kernels import pure
from repro.ads.mmap_io import ShardedColumn, map_file_columns
from repro.errors import ParameterError, EstimatorError

WORKERS_ENV_VAR = "REPRO_KERNEL_WORKERS"
POOL_ENV_VAR = "REPRO_KERNEL_POOL"
POOL_CHOICES = ("auto", "thread", "process")

# Below this many entries auto worker selection stays serial: one
# partition dispatch costs ~0.1-1 ms (submit + rebased offsets + view
# prep) while the kernels sweep tens of millions of entries per second
# per core, so the fan-out only pays for itself from roughly this size
# (measured with benchmarks/bench_kernels.py; see BENCH_kernels.json's
# worker series).  Explicit worker counts bypass the gate.
AUTO_MIN_ENTRIES = 65536


# ----------------------------------------------------------------------
# Worker / pool resolution
# ----------------------------------------------------------------------
def parse_workers(value: Union[None, int, str]) -> Union[str, int]:
    """Normalise a kernel-workers request to ``"auto"`` or an int >= 1.

    Accepts ``None`` (= auto), the string ``"auto"``, an integer, or an
    integer-valued string (the CLI flag and the environment variable
    arrive as text).

    Raises:
        ParameterError: anything else, zero/negative counts included.
    """
    if value is None:
        return "auto"
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return "auto"
        try:
            value = int(text)
        except ValueError:
            raise ParameterError(
                f"kernel workers must be 'auto' or a positive integer, "
                f"got {text!r}"
            )
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(
            f"kernel workers must be 'auto' or a positive integer, "
            f"got {value!r}"
        )
    if value < 1:
        raise ParameterError(f"kernel workers must be >= 1, got {value}")
    return value


def resolve_workers(
    requested: Union[None, int, str] = None,
    *,
    entries: int = 0,
    shards: Optional[int] = None,
    backend: str = "python",
) -> int:
    """The effective worker count for an index (see module docs).

    Args:
        requested: ``None``/``"auto"`` or an explicit count.  Auto
            consults ``REPRO_KERNEL_WORKERS`` first.
        entries: The index's entry-column length (the auto crossover
            gate input).
        shards: Shard count of a sharded-mmap layout, ``None``
            otherwise (auto caps workers at the partition count).
        backend: The base kernel's ``NAME``; auto never fans out the
            NumPy kernel.

    Raises:
        ParameterError: a malformed request or environment value.
    """
    workers = parse_workers(requested)
    if workers == "auto":
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if env:
            try:
                workers = parse_workers(env)
            except ParameterError:
                raise ParameterError(
                    f"invalid {WORKERS_ENV_VAR}={env!r}; expected 'auto' "
                    "or a positive integer"
                )
    if workers != "auto":
        return workers
    cpus = os.cpu_count() or 1
    if cpus <= 1 or entries < AUTO_MIN_ENTRIES or backend == "numpy":
        return 1
    if shards is not None:
        return max(1, min(cpus, shards))
    return cpus


def resolve_pool(backend_name: str) -> str:
    """``"thread"`` or ``"process"`` for a base kernel (module docs);
    ``REPRO_KERNEL_POOL`` overrides the per-backend default.

    Raises:
        ParameterError: an unknown environment value.
    """
    env = os.environ.get(POOL_ENV_VAR, "").strip().lower()
    if env:
        if env not in POOL_CHOICES:
            raise ParameterError(
                f"unknown {POOL_ENV_VAR}={env!r}; expected one of "
                f"{list(POOL_CHOICES)}"
            )
        if env != "auto":
            return env
    return "thread" if backend_name == "numpy" else "process"


# ----------------------------------------------------------------------
# Executor cache, broken-mode bookkeeping, serial fallback
# ----------------------------------------------------------------------
_EXECUTORS: Dict[Tuple[str, int], Any] = {}
_EXECUTOR_LOCK = threading.Lock()
_BROKEN_MODES: set = set()


def _create_executor(mode: str, workers: int):
    """Build one executor (split out as the test seam for simulating
    environments where pools cannot be created)."""
    if mode == "process":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=workers)
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-kernel"
    )


def _executor(mode: str, workers: int):
    """The cached ``(mode, executor)`` pair, walking the fallback chain
    process -> thread -> serial; ``(None, None)`` means run serially."""
    chain = ("process", "thread") if mode == "process" else ("thread",)
    for candidate in chain:
        if candidate in _BROKEN_MODES:
            continue
        key = (candidate, workers)
        with _EXECUTOR_LOCK:
            executor = _EXECUTORS.get(key)
            if executor is None:
                try:
                    executor = _create_executor(candidate, workers)
                except Exception:
                    _BROKEN_MODES.add(candidate)
                    continue
                _EXECUTORS[key] = executor
        return candidate, executor
    return None, None


def _mark_broken(mode: str) -> None:
    with _EXECUTOR_LOCK:
        _BROKEN_MODES.add(mode)
        for key in [k for k in _EXECUTORS if k[0] == mode]:
            try:
                _EXECUTORS.pop(key).shutdown(wait=False)
            except Exception:
                pass


def _reset_executors() -> None:
    """Shut down and forget every cached pool (test hook; also runs at
    interpreter exit so worker processes never outlive module
    teardown)."""
    with _EXECUTOR_LOCK:
        for executor in _EXECUTORS.values():
            executor.shutdown(wait=False)
        _EXECUTORS.clear()
        _BROKEN_MODES.clear()


atexit.register(_reset_executors)


def _picklable(value: Any) -> bool:
    """Whether *value* survives the trip to a worker process.  Exotic
    alpha callables (lambdas, closures) silently keep the serial path
    instead of poisoning the pool."""
    if value is None:
        return True
    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True


# ----------------------------------------------------------------------
# Partition planning and zero-copy column slicing
# ----------------------------------------------------------------------
def _column_slice(column, lo: int, hi: int):
    """Zero-copy ``column[lo:hi]``: ShardedColumn within-shard slices
    and memoryviews slice natively; arrays go through one memoryview."""
    if isinstance(column, (ShardedColumn, memoryview)):
        return column[lo:hi]
    return memoryview(column)[lo:hi]


def _cum_slice(cum, lo: int, hi: int):
    if cum is None:
        return None
    return _column_slice(cum, lo, hi)


def _cum_bytes(cum, lo: int, hi: int) -> Optional[bytes]:
    if cum is None:
        return None
    return bytes(_column_slice(cum, lo, hi))


def _plan_partitions(offsets, workers: int, dist_column):
    """Deterministic contiguous node-range partitions.

    Returns ``[(a, b, spec), ...]`` of half-open node-id ranges.  For a
    sharded column, one range per nonempty shard (``spec`` is its
    :class:`~repro.ads.mmap_io.ShardSpec`; slices never cross a shard,
    so every partition view is zero-copy); otherwise ``workers`` ranges
    balanced by entry count with ``spec=None``.
    """
    n = len(offsets) - 1
    if n <= 0:
        return []
    specs = getattr(dist_column, "shard_specs", None)
    if specs:
        partitions = []
        a = 0
        for spec in specs:
            if spec.count == 0:
                continue
            stop = spec.entry_base + spec.count
            b = bisect_left(offsets, stop, a, n)
            partitions.append([a, b, spec])
            a = b
        if not partitions:
            return [(0, n, None)]
        # Trailing empty node slices belong to the last shard's range.
        partitions[-1][1] = n
        return [tuple(partition) for partition in partitions]
    total = offsets[n]
    bounds = [0]
    for i in range(1, workers):
        target = (total * i) // workers
        bounds.append(bisect_left(offsets, target, bounds[-1], n))
    bounds.append(n)
    return [
        (a, b, None) for a, b in zip(bounds, bounds[1:]) if b > a
    ]


class _Partition:
    """One rebased node range: a self-contained mini-index whose views
    the base kernel prepares lazily (thread workers prepare their own,
    process workers never touch these)."""

    __slots__ = (
        "a", "b", "lo", "hi", "spec", "offsets", "dist", "hip",
        "_kernel", "_views",
    )

    def __init__(self, kernel, a, b, lo, hi, spec, offsets, dist, hip):
        self._kernel = kernel
        self.a = a
        self.b = b
        self.lo = lo
        self.hi = hi
        self.spec = spec
        self.offsets = offsets
        self.dist = dist
        self.hip = hip
        self._views = None

    def prepared(self):
        views = self._views
        if views is None:
            views = self._kernel.prepare_views(
                self.offsets, self.dist, self.hip
            )
            self._views = views
        return views


class ParallelViews:
    """The parallel kernel's prepared-views object: the partition plan
    plus lazily built per-partition views, process payloads, and the
    base kernel's whole-column views (serial paths and fallbacks).

    ``AdsIndex`` caches and invalidates it exactly like any other
    kernel views object, so everything derived here shares the columns'
    lifetime.
    """

    def __init__(self, kernel, workers, offsets, dist, hip):
        self._kernel = kernel
        self._offsets = offsets
        self._dist = dist
        self._hip = hip
        self.plan = _plan_partitions(offsets, workers, dist)
        self._base = None
        self._parts = None
        self._payloads = None
        self._lock = threading.Lock()

    def base(self):
        """The base kernel's views over the whole columns (built once,
        on the first serial-path or fallback use)."""
        views = self._base
        if views is None:
            with self._lock:
                views = self._base
                if views is None:
                    views = self._kernel.prepare_views(
                        self._offsets, self._dist, self._hip
                    )
                    self._base = views
        return views

    def parts(self) -> List[_Partition]:
        parts = self._parts
        if parts is None:
            with self._lock:
                parts = self._parts
                if parts is None:
                    parts = [
                        self._build_part(a, b, spec)
                        for a, b, spec in self.plan
                    ]
                    self._parts = parts
        return parts

    def _build_part(self, a: int, b: int, spec) -> _Partition:
        offsets = self._offsets
        lo, hi = offsets[a], offsets[b]
        rebased = array("q", (offsets[i] - lo for i in range(a, b + 1)))
        return _Partition(
            self._kernel, a, b, lo, hi, spec, rebased,
            _column_slice(self._dist, lo, hi),
            _column_slice(self._hip, lo, hi),
        )

    def payloads(self) -> List[tuple]:
        """Per-partition process-pool payloads, cached: shard partitions
        ship a re-mmap descriptor (zero-copy via the page cache), eager
        partitions ship the column bytes once per views lifetime."""
        payloads = self._payloads
        if payloads is None:
            parts = self.parts()
            with self._lock:
                payloads = self._payloads
                if payloads is None:
                    payloads = [self._build_payload(p) for p in parts]
                    self._payloads = payloads
        return payloads

    def _build_payload(self, part: _Partition) -> tuple:
        offsets_bytes = part.offsets.tobytes()
        if part.spec is not None:
            # The file's column layout travels with the descriptor, so
            # the worker re-maps without knowing the index format.
            typecodes, dist_position = self._dist.remap
            return (
                "shard", offsets_bytes, str(part.spec.path),
                part.spec.data_start, part.spec.count,
                (typecodes, dist_position, self._hip.remap[1]),
            )
        return (
            "buffer", offsets_bytes, bytes(part.dist), bytes(part.hip),
        )


# ----------------------------------------------------------------------
# Worker-process entry points (module-level: must be picklable)
# ----------------------------------------------------------------------
def _worker_kernel(name: str):
    """The kernel module matching the parent's backend (bit-identity
    across backends makes the pure fallback safe even if a worker
    environment lost NumPy)."""
    if name == "numpy":
        kernel = _kernels.load_numpy_kernel()
        if kernel is not None:
            return kernel
    return pure


def _payload_columns(payload: tuple):
    """Rehydrate one partition's (offsets, dist, hip) in a worker."""
    if payload[0] == "shard":
        _, offsets_bytes, path, data_start, count, remap = payload
        typecodes, dist_position, hip_position = remap
        offsets = array("q")
        offsets.frombytes(offsets_bytes)
        with open(path, "rb") as handle:
            columns = map_file_columns(
                Path(path), handle.fileno(), data_start,
                [count] * len(typecodes), typecodes,
            )
        return offsets, columns[dist_position], columns[hip_position]
    _, offsets_bytes, dist_bytes, hip_bytes = payload
    offsets = array("q")
    offsets.frombytes(offsets_bytes)
    dist = array("d")
    dist.frombytes(dist_bytes)
    hip = array("d")
    hip.frombytes(hip_bytes)
    return offsets, dist, hip


def _partition_task(payload: tuple, backend_name: str, op: str,
                    params: dict):
    """Run one batch op over one rehydrated partition in a worker."""
    offsets, dist, hip = _payload_columns(payload)
    kernel = _worker_kernel(backend_name)
    views = kernel.prepare_views(offsets, dist, hip)
    if op == "cum_hip":
        return kernel.compute_cum_hip(views).tobytes()
    cum = params.get("cum")
    if cum is not None:
        rehydrated = array("d")
        rehydrated.frombytes(cum)
        cum = rehydrated
    if op == "cardinality":
        return kernel.batch_cardinality(views, cum, params["d"])
    if op == "closeness":
        return kernel.batch_closeness(
            views, params["alpha"], params["classic"], cum=cum
        )
    raise ParameterError(f"unknown partition op {op!r}")


def _weights_chunk(kernel, flavor: str, k: int,
                   chunk: Sequence[tuple]) -> Dict[int, List[float]]:
    """HIP weights for one chunk of ``(vid, records, rank_vectors)``."""
    return {
        vid: slice_hip_weights(kernel, flavor, k, records, rank_vectors)
        for vid, records, rank_vectors in chunk
    }


def _weights_chunk_task(backend_name: str, flavor: str, k: int,
                        chunk: Sequence[tuple]):
    """Process-pool form of :func:`_weights_chunk`."""
    return _weights_chunk(_worker_kernel(backend_name), flavor, k, chunk)


# ----------------------------------------------------------------------
# The per-slice HIP-weight recompute (shared by serial and parallel)
# ----------------------------------------------------------------------
def slice_hip_weights(
    kernel,
    flavor: str,
    k: int,
    records: Sequence[tuple],
    rank_vectors: Optional[Sequence[Sequence[float]]] = None,
) -> List[float]:
    """Section-5 adjusted weights of one node's slice, given as builder
    records in scan order.

    The one HIP pass: the index build runs it over every slice and
    ``apply_edges`` over the rewritten ones, so a patched slice carries
    the weights a from-scratch build would (the kernels' weight
    functions are bit-identical).  *rank_vectors* holds each record's
    node's rank under all k permutations and is consulted only for
    k-mins, whose weights live on the merged first-occurrence view.
    """
    if not records:
        return []
    if flavor == "bottomk":
        return kernel.bottom_k_hip_weights(
            [record[3] for record in records], k
        )
    if flavor == "kpartition":
        return kernel.k_partition_hip_weights(
            [(record[4], record[3]) for record in records], k
        )
    # kmins: weights live on the merged first-occurrence view;
    # duplicate per-permutation slots get weight 0.
    seen = set()
    merged_positions: List[int] = []
    for position, record in enumerate(records):
        entry_node = record[2]
        if entry_node in seen:
            continue
        seen.add(entry_node)
        merged_positions.append(position)
    merged_weights = kernel.k_mins_hip_weights(
        [rank_vectors[position] for position in merged_positions], k
    )
    weights = [0.0] * len(records)
    for position, weight in zip(merged_positions, merged_weights):
        weights[position] = weight
    return weights


def _chunk_items(items: Sequence, chunks: int) -> List[Sequence]:
    """Split *items* into at most *chunks* contiguous runs."""
    count = len(items)
    chunks = max(1, min(chunks, count))
    bounds = [(count * i) // chunks for i in range(chunks + 1)]
    return [
        items[a:b] for a, b in zip(bounds, bounds[1:]) if b > a
    ]


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class ParallelKernel:
    """Partition-parallel facade over one base kernel module.

    Duck-types the kernel API (``NAME``, ``prepare_views``, the batch
    ops), so :class:`~repro.ads.index.AdsIndex`
    holds it exactly like a kernel module.  Every op merges partition
    results in fixed partition order and falls back to the serial base
    kernel whenever pools are unavailable -- the floats never change,
    only the wall-clock.
    """

    def __init__(self, base, workers: int, pool: str):
        self._base = base
        self.NAME = base.NAME
        self.workers = int(workers)
        self.pool = pool

    def __repr__(self) -> str:
        return (
            f"ParallelKernel(base={self.NAME!r}, workers={self.workers}, "
            f"pool={self.pool!r})"
        )

    # -- views ----------------------------------------------------------
    def prepare_views(self, offsets, dist, hip) -> ParallelViews:
        return ParallelViews(self._base, self.workers, offsets, dist, hip)

    # -- plumbing -------------------------------------------------------
    def _acquire(self, views: ParallelViews):
        """``(mode, executor, parts)`` when fan-out is worthwhile and a
        pool exists; ``None`` routes the caller to the serial base."""
        if self.workers <= 1 or len(views.plan) <= 1:
            return None
        mode, executor = _executor(self.pool, self.workers)
        if executor is None:
            return None
        return mode, executor, views.parts()

    @staticmethod
    def _gather(futures, mode: str):
        """Results in submission order; ``None`` requests the serial
        fallback after a pool (not estimator) failure."""
        try:
            return [future.result() for future in futures]
        except (EstimatorError, ParameterError):
            raise
        except pickle.PicklingError:
            return None
        except (BrokenExecutor, OSError):
            _mark_broken(mode)
            return None

    # -- batch ops ------------------------------------------------------
    def compute_cum_hip(self, views: ParallelViews) -> array:
        plan = self._acquire(views)
        if plan is None:
            return self._base.compute_cum_hip(views.base())
        mode, executor, parts = plan
        if mode == "process":
            futures = [
                executor.submit(
                    _partition_task, payload, self.NAME, "cum_hip", {}
                )
                for payload in views.payloads()
            ]
        else:
            base = self._base

            def run(part):
                return base.compute_cum_hip(part.prepared())

            futures = [executor.submit(run, part) for part in parts]
        pieces = self._gather(futures, mode)
        if pieces is None:
            return self._base.compute_cum_hip(views.base())
        cumulative = array("d")
        for piece in pieces:
            if isinstance(piece, bytes):
                cumulative.frombytes(piece)
            else:
                cumulative.extend(piece)
        return cumulative

    def batch_cardinality(self, views: ParallelViews, cum,
                          d: float) -> List[float]:
        plan = self._acquire(views)
        if plan is None:
            return self._base.batch_cardinality(views.base(), cum, d)
        mode, executor, parts = plan
        if mode == "process":
            futures = [
                executor.submit(
                    _partition_task, payload, self.NAME, "cardinality",
                    {"cum": _cum_bytes(cum, part.lo, part.hi), "d": d},
                )
                for payload, part in zip(views.payloads(), parts)
            ]
        else:
            base = self._base

            def run(part):
                return base.batch_cardinality(
                    part.prepared(), _cum_slice(cum, part.lo, part.hi), d
                )

            futures = [executor.submit(run, part) for part in parts]
        pieces = self._gather(futures, mode)
        if pieces is None:
            return self._base.batch_cardinality(views.base(), cum, d)
        merged: List[float] = []
        for piece in pieces:
            merged.extend(piece)
        return merged

    def batch_closeness(
        self,
        views: ParallelViews,
        alpha: Optional[Callable[[float], float]],
        classic: bool,
        cum=None,
    ) -> List[float]:
        plan = self._acquire(views)
        if plan is None:
            return self._base.batch_closeness(
                views.base(), alpha, classic, cum=cum
            )
        mode, executor, parts = plan
        if mode == "process":
            if not _picklable(alpha):
                return self._base.batch_closeness(
                    views.base(), alpha, classic, cum=cum
                )
            futures = [
                executor.submit(
                    _partition_task, payload, self.NAME, "closeness",
                    {
                        "alpha": alpha,
                        "classic": classic,
                        "cum": _cum_bytes(cum, part.lo, part.hi),
                    },
                )
                for payload, part in zip(views.payloads(), parts)
            ]
        else:
            base = self._base

            def run(part):
                return base.batch_closeness(
                    part.prepared(), alpha, classic,
                    _cum_slice(cum, part.lo, part.hi),
                )

            futures = [executor.submit(run, part) for part in parts]
        pieces = self._gather(futures, mode)
        if pieces is None:
            return self._base.batch_closeness(
                views.base(), alpha, classic, cum=cum
            )
        merged: List[float] = []
        for piece in pieces:
            merged.extend(piece)
        return merged

    def neighborhood_series(
        self, views: ParallelViews
    ) -> List[Tuple[float, float]]:
        """Cross-node fold: parallel only on the NumPy thread path,
        chunked by *distance group* so the floats stay bit-identical
        (see module docs); everything else runs the serial base."""
        if (
            self.workers > 1
            and self.NAME == "numpy"
            and self.pool != "process"
        ):
            series = self._neighborhood_grouped(views)
            if series is not None:
                return series
        return self._base.neighborhood_series(views.base())

    def _neighborhood_grouped(self, views: ParallelViews):
        np_mod = self._base
        np = np_mod.np
        base_views = views.base()
        sorted_dist, sorted_hip = base_views.dist_sorted()
        if not len(sorted_dist):
            return []
        boundaries = np.empty(len(sorted_dist), dtype=bool)
        boundaries[0] = True
        np.not_equal(
            sorted_dist[1:], sorted_dist[:-1], out=boundaries[1:]
        )
        group_starts = np.flatnonzero(boundaries)
        group_lengths = np.diff(
            np.concatenate((group_starts, [len(sorted_dist)]))
        )
        groups = len(group_starts)
        if groups < 2:
            return None
        mode, executor = _executor("thread", self.workers)
        if executor is None:
            return None
        chunks = min(self.workers, groups)
        bounds = [(groups * i) // chunks for i in range(chunks + 1)]
        futures = [
            executor.submit(
                np_mod._group_sums, sorted_hip,
                group_starts[a:b], group_lengths[a:b],
            )
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ]
        pieces = self._gather(futures, mode)
        if pieces is None:
            return None
        running = np.cumsum(np.concatenate(pieces))
        return list(
            zip(sorted_dist[group_starts].tolist(), running.tolist())
        )

    # -- per-slice HIP weights (dynamic updates) ------------------------
    def slice_weights_map(
        self,
        flavor: str,
        k: int,
        items: Sequence[tuple],
    ) -> Optional[Dict[int, List[float]]]:
        """HIP weights for many dirty slices at once.

        *items* is an ordered ``(vid, records, rank_vectors)`` sequence
        (see :func:`slice_hip_weights`); chunks fan out across the
        pool and merge into ``{vid: weights}``.  Returns ``None`` when
        fan-out is not worthwhile or no pool is available -- the caller
        runs the serial per-slice path, same floats.
        """
        if self.workers <= 1 or len(items) < 2:
            return None
        mode, executor = _executor(self.pool, self.workers)
        if executor is None:
            return None
        if mode == "process" and not _picklable(items):
            return None
        chunks = _chunk_items(items, self.workers)
        if mode == "process":
            futures = [
                executor.submit(
                    _weights_chunk_task, self.NAME, flavor, k, chunk
                )
                for chunk in chunks
            ]
        else:
            futures = [
                executor.submit(_weights_chunk, self._base, flavor, k, chunk)
                for chunk in chunks
            ]
        pieces = self._gather(futures, mode)
        if pieces is None:
            return None
        merged: Dict[int, List[float]] = {}
        for piece in pieces:
            merged.update(piece)
        return merged
