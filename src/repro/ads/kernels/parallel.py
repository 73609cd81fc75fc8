"""Explicit-only process fan-out of the per-node batch sweeps.

The HIP batch queries are independent across nodes: every per-node
cardinality, closeness sum and cum-hip prefix reads only that node's
contiguous column slice.  :class:`ParallelKernel` wraps a base kernel
module (:mod:`repro.ads.kernels.pure` or
:mod:`repro.ads.kernels.np_kernel`) and runs ``compute_cum_hip`` /
``batch_cardinality`` / ``batch_closeness`` over contiguous node-range
partitions in a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **several segments** (a sharded map: one per nonempty shard file, the
  very segments the serial kernels walk) are one partition each; a
  worker receives the segment's ``source`` -- path, data start,
  typecodes -- and maps the shard file itself.
* **a lone segment** (eager and single-file-mmap layouts) is cut into
  ``workers`` node ranges balanced by entry count, and the column
  bytes are shipped, once per views lifetime.

Each partition is a :class:`~repro.ads.kernels.pure.Segment` of its own
fed to the base kernel's ``prepare_views``, so its arithmetic is the
serial kernel's on the same slices, and results concatenate in node
order: bit-identical floats at any worker count.
``neighborhood_series`` folds HIP mass *across* nodes (partitioning
would reorder IEEE additions) and always runs the serial base kernel.

**Nothing selects this tier.**  A sweep is n jobs of a few
microseconds each, so every fanned op moves more bytes than it
computes on (``batch_cardinality`` pickles the whole cum-hip column
across the process boundary for a scan the serial kernel finishes in
milliseconds).  On 2 vCPUs at harness scale (640k entries) two worker
processes take 1.6-1.9x the serial pure kernel's time on a sharded
layout, 1.8x on flat layouts and 4x under NumPy; the one win once
recorded for it was the serial kernel paying a Python-level shard
lookup per probe, which the segment views removed (see ARCHITECTURE.md
for the table).  ``resolve_workers`` therefore maps
``"auto"`` / ``None`` to ``REPRO_KERNEL_WORKERS`` if set, else 1, on
every backend, size and layout; only an explicit count engages the
pool.  Hosts with >= 4 cores are unmeasured, which is why the tier
still exists.

**Fallback.**  Pools are cached per worker count and shared
process-wide.  If a pool cannot be created (sandboxes without fork,
interpreter teardown) or breaks mid-call, that is remembered and every
op runs the serial base kernel -- same floats, only the wall-clock
changes.  A callable that cannot be pickled (a lambda ``alpha``) takes
the serial path too; estimator errors raised *inside* workers (e.g. a
negative alpha kernel) propagate unchanged.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from array import array
from bisect import bisect_left
from concurrent.futures import BrokenExecutor
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.ads import kernels as _kernels
from repro.ads.kernels import pure
from repro.ads.storage import map_file_columns
from repro.errors import ParameterError, EstimatorError

WORKERS_ENV_VAR = "REPRO_KERNEL_WORKERS"


# ----------------------------------------------------------------------
# Worker resolution
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


def resolve_workers(requested: Union[None, int, str] = None) -> int:
    """The effective worker count: an explicit *requested* count, else
    (``None`` / ``"auto"``) ``REPRO_KERNEL_WORKERS`` if set, else 1
    (see module docs).

    Raises:
        ParameterError: a malformed request or environment value.
    """
    workers = parse_workers(requested)
    if workers == "auto":
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        try:
            workers = parse_workers(env or None)
        except ParameterError:
            raise ParameterError(
                f"invalid {WORKERS_ENV_VAR}={env!r}; expected 'auto' "
                "or a positive integer"
            )
    return 1 if workers == "auto" else workers


# ----------------------------------------------------------------------
# Executor cache and serial fallback
# ----------------------------------------------------------------------
_EXECUTORS: Dict[int, Any] = {}
_EXECUTOR_LOCK = threading.Lock()
_pool_broken = False


def _create_executor(workers: int):
    """Build one pool (split out as the test seam for simulating
    environments where pools cannot be created)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _executor(workers: int):
    """The cached pool of *workers* processes; ``None`` means run
    serially (no pool can be created here, or one broke)."""
    global _pool_broken
    with _EXECUTOR_LOCK:
        if _pool_broken:
            return None
        executor = _EXECUTORS.get(workers)
        if executor is None:
            try:
                executor = _create_executor(workers)
            except Exception:
                _pool_broken = True
                return None
            _EXECUTORS[workers] = executor
        return executor


def _reset_executors(broken: bool = False) -> None:
    """Shut down and forget every cached pool, remembering whether
    pools are *broken* (test hook; also runs at interpreter exit so
    worker processes never outlive module teardown)."""
    global _pool_broken
    with _EXECUTOR_LOCK:
        for executor in _EXECUTORS.values():
            executor.shutdown(wait=False)
        _EXECUTORS.clear()
        _pool_broken = broken


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
# Partition planning and process payloads
# ----------------------------------------------------------------------
def _balanced_ranges(offsets, workers: int) -> List[Tuple[int, int]]:
    """*workers* contiguous node ranges balanced by entry count (a pure
    function of the offsets column, so partitioning is deterministic)."""
    n = len(offsets) - 1
    if n <= 0:
        return []
    total = offsets[n]
    bounds = [0]
    for i in range(1, workers):
        target = (total * i) // workers
        bounds.append(bisect_left(offsets, target, bounds[-1], n))
    bounds.append(n)
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _cut(part: pure.Segment, a: int, b: int) -> pure.Segment:
    """Node rows ``[a, b)`` of *part* as a segment of their own: the
    sweep columns sliced zero-copy, the offsets rebased to 0."""
    lo, hi = part.offsets[a], part.offsets[b]
    rebased = array("q", (part.offsets[i] - lo for i in range(a, b + 1)))
    return pure.Segment(
        part.base + lo, rebased,
        memoryview(part.dist)[lo:hi], memoryview(part.hip)[lo:hi],
    )


def _payload(part: pure.Segment) -> tuple:
    """What a worker rebuilds *part* from: the shard file's coordinates
    when its columns are mapped from one (the worker re-maps it,
    zero-copy via the page cache), else the sweep columns' bytes."""
    if part.source is None:
        return (bytes(part.offsets), bytes(part.dist), bytes(part.hip))
    return (bytes(part.offsets), len(part.hip)) + part.source


def _window_bytes(part: pure.Segment, cum) -> Optional[bytes]:
    """The partition's share of the cum-hip column, for pickling."""
    window = part.window(cum)
    return None if window is None else bytes(window)


class ParallelViews:
    """The parallel kernel's prepared-views object: the index's
    segments, the lazily built per-partition process payloads, and the
    base kernel's own views (serial ops and fallbacks).

    ``AdsIndex`` caches and invalidates it exactly like any other
    kernel views object, so everything derived here shares the columns'
    lifetime.
    """

    def __init__(self, kernel, workers: int, columns: pure.Columns):
        self._kernel = kernel
        self._workers = workers
        self.columns = columns
        self._base = None
        self._payloads: Optional[List[Tuple[pure.Segment, tuple]]] = None
        self._lock = threading.Lock()

    def base(self):
        """The base kernel's views over the whole index (built once,
        on the first serial-path or fallback use)."""
        views = self._base
        if views is None:
            with self._lock:
                views = self._base
                if views is None:
                    views = self._kernel.prepare_views(self.columns)
                    self._base = views
        return views

    def payloads(self) -> List[Tuple[pure.Segment, tuple]]:
        """``(segment, payload)`` per partition, in node order, cached."""
        payloads = self._payloads
        if payloads is None:
            with self._lock:
                payloads = self._payloads
                if payloads is None:
                    parts = self.columns.segments
                    if len(parts) == 1:
                        parts = [
                            _cut(parts[0], a, b) for a, b in
                            _balanced_ranges(parts[0].offsets, self._workers)
                        ]
                    payloads = [(part, _payload(part)) for part in parts]
                    self._payloads = payloads
        return payloads


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


def _payload_segment(payload: tuple) -> pure.Segment:
    """Rehydrate one partition in a worker (see :func:`_payload`)."""
    offsets = array("q")
    offsets.frombytes(payload[0])
    if len(payload) == 3:
        dist, hip = array("d"), array("d")
        dist.frombytes(payload[1])
        hip.frombytes(payload[2])
        return pure.Segment(0, offsets, dist, hip)
    _, count, path, data_start, typecodes = payload
    with open(path, "rb") as handle:
        columns = map_file_columns(
            path, handle.fileno(), data_start,
            [count] * len(typecodes), typecodes,
        )
    return pure.Segment(0, offsets, *columns)


def _partition_task(payload: tuple, backend_name: str, op: str,
                    params: dict):
    """Run one batch op over one rehydrated partition in a worker."""
    part = _payload_segment(payload)
    kernel = _worker_kernel(backend_name)
    views = kernel.prepare_views(
        pure.Columns([part], (0, len(part.offsets) - 1), len(part.hip))
    )
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


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class ParallelKernel:
    """Process fan-out facade over one base kernel module.

    Duck-types the kernel API (``NAME``, ``prepare_views``, the batch
    ops), so :class:`~repro.ads.index.AdsIndex`
    holds it exactly like a kernel module.  Every op merges partition
    results in node order and falls back to the serial base kernel
    whenever pools are unavailable -- the floats never change, only
    the wall-clock.
    """

    def __init__(self, base, workers: int):
        self._base = base
        self.NAME = base.NAME
        self.workers = int(workers)

    def __repr__(self) -> str:
        return f"ParallelKernel(base={self.NAME!r}, workers={self.workers})"

    def prepare_views(self, columns: pure.Columns) -> ParallelViews:
        return ParallelViews(self._base, self.workers, columns)

    def _fan(self, views: ParallelViews, op: str, cum=None,
             **params) -> Optional[list]:
        """Run *op* over every partition in the pool, each with its
        window of the *cum* column; the results in node order, or
        ``None`` when the caller must run the serial base kernel (one
        partition, no pool, or a pool -- not estimator -- failure)."""
        if self.workers <= 1:
            return None
        executor = _executor(self.workers)
        if executor is None:
            return None
        try:
            if len(views.payloads()) <= 1:
                return None
            futures = [
                executor.submit(
                    _partition_task, payload, self.NAME, op,
                    dict(params, cum=_window_bytes(part, cum)),
                )
                for part, payload in views.payloads()
            ]
            return [future.result() for future in futures]
        except (EstimatorError, ParameterError):
            raise
        except pickle.PicklingError:
            return None
        except (BrokenExecutor, OSError):
            _reset_executors(broken=True)
            return None

    def compute_cum_hip(self, views: ParallelViews) -> array:
        pieces = self._fan(views, "cum_hip")
        if pieces is None:
            return self._base.compute_cum_hip(views.base())
        cumulative = array("d")
        for piece in pieces:
            cumulative.frombytes(piece)
        return cumulative

    def batch_cardinality(self, views: ParallelViews, cum,
                          d: float) -> List[float]:
        pieces = self._fan(views, "cardinality", cum, d=d)
        if pieces is None:
            return self._base.batch_cardinality(views.base(), cum, d)
        return list(chain.from_iterable(pieces))

    def batch_closeness(
        self,
        views: ParallelViews,
        alpha: Optional[Callable[[float], float]],
        classic: bool,
        cum=None,
    ) -> List[float]:
        pieces = None
        if _picklable(alpha):
            pieces = self._fan(
                views, "closeness", cum, alpha=alpha, classic=classic
            )
        if pieces is None:
            return self._base.batch_closeness(
                views.base(), alpha, classic, cum=cum
            )
        return list(chain.from_iterable(pieces))

    def neighborhood_series(
        self, views: ParallelViews
    ) -> List[Tuple[float, float]]:
        """A cross-node fold: always the serial base (module docs)."""
        return self._base.neighborhood_series(views.base())
