"""Estimator kernel backends for :class:`~repro.ads.index.AdsIndex`.

Every whole-graph sweep the index serves -- the all-nodes cardinality
sweep, the closeness sweep, the neighborhood function, the HIP
prefix-sum (cum-hip) materialisation -- and the per-slice HIP-weight
recompute behind dynamic updates reduce to bulk arithmetic over the
flat entry columns.  This package holds that arithmetic twice:

* :mod:`repro.ads.kernels.pure` -- the reference loops, stdlib only.
  Always importable; the authority on every float.
* :mod:`repro.ads.kernels.np_kernel` -- the same operations vectorised
  over zero-copy ``np.frombuffer`` views of the columns.  Importable
  only when NumPy is installed (``pip install adsketch[fast]``).

Both kernels expose one module-level API (``NAME``, ``prepare_views``,
``compute_cum_hip``, ``batch_cardinality``, ``batch_closeness``,
``neighborhood_series``, and the three per-flavor HIP-weight
functions), so the index dispatches by holding a module reference.

Everything *per node* exists once, in :mod:`~repro.ads.kernels.pure`,
whatever the backend: the segments every reader goes through
(:class:`~repro.ads.kernels.pure.Columns`, the index's storage as
:mod:`repro.ads.storage` builds it and both kernels' ``prepare_views``
take it) and the similarity ops; a NumPy mirror of those was level with
the loops on slices of about k(1 + ln n - ln k) entries, so it is gone.

**Float contract.**  The NumPy kernel is not merely "close": it
performs every floating-point addition in the same left-to-right
per-slice order as the pure loops (``np.cumsum`` and the padded
segmented scans are sequential scans, unlike ``np.sum``'s pairwise
tree), so cum-hip columns, cardinalities, closeness sums, neighborhood
series, and recomputed HIP weights are bit-identical across backends.
The guarantee the rest of the system may *rely* on is: exact equality
for cum-hip and cardinality, and <= 1e-9 relative error for aggregated
closeness/neighborhood sums.

**Selection.**  ``resolve(backend)`` maps a backend name to a kernel
module:

* ``"python"`` -- the pure kernel, always.
* ``"numpy"``  -- the NumPy kernel, or :class:`ParameterError` when
  NumPy is not importable (an explicit request must not silently
  degrade).
* ``"auto"`` (the default) -- consults the ``REPRO_BACKEND``
  environment variable (same three values) and otherwise picks NumPy
  when available, falling back to pure Python.

``AdsIndex(backend=...)``, the CLI ``--backend`` flag, and the serve
daemon's ``/stats`` report make the choice observable end to end.

**Parallel execution.**  :mod:`repro.ads.kernels.parallel` can wrap
either kernel in a dispatcher (``ParallelKernel``) that fans the
per-node batch sweeps out over a process pool and merges in node
order, bit-identical at any worker count.  Nothing selects it: on
every backend, layout and operation measured it ships more bytes
than it computes on and loses to the serial kernel, so it runs only
under an explicit ``AdsIndex(kernel_workers=...)``, ``--kernel-workers``
or ``REPRO_KERNEL_WORKERS``.  The dynamic-update HIP recompute
(:func:`slice_hip_weights`) is always serial.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.errors import ParameterError
from repro.ads.kernels import pure

BACKEND_CHOICES = ("auto", "numpy", "python")
ENV_VAR = "REPRO_BACKEND"

_UNSET = object()
_NUMPY_KERNEL = _UNSET  # import-once cache: module, or None when missing


def load_numpy_kernel():
    """The NumPy kernel module, or ``None`` when NumPy is missing.

    The import is attempted once and cached (``None`` included), so a
    NumPy-less deployment pays one failed import, not one per index.
    """
    global _NUMPY_KERNEL
    if _NUMPY_KERNEL is _UNSET:
        try:
            from repro.ads.kernels import np_kernel
        except ImportError:
            _NUMPY_KERNEL = None
        else:
            _NUMPY_KERNEL = np_kernel
    return _NUMPY_KERNEL


def _reset_numpy_cache() -> None:
    """Forget the cached import attempt (tests simulating a missing
    NumPy re-resolve after blocking the import)."""
    global _NUMPY_KERNEL
    _NUMPY_KERNEL = _UNSET


def numpy_available() -> bool:
    """Whether the accelerated kernel can actually be loaded here."""
    return load_numpy_kernel() is not None


def available_backends() -> List[str]:
    """The backend names :func:`resolve` would accept *and* satisfy."""
    names = ["auto", "python"]
    if numpy_available():
        names.insert(1, "numpy")
    return names


def resolve(backend: Optional[str] = None):
    """Map a backend name to its kernel module (see module docs).

    Args:
        backend: ``"auto"`` / ``"numpy"`` / ``"python"``; ``None``
            means ``"auto"``.

    Raises:
        ParameterError: an unknown name (argument or ``REPRO_BACKEND``
            value), or ``"numpy"`` requested where NumPy is not
            importable.
    """
    name = "auto" if backend is None else backend
    if name not in BACKEND_CHOICES:
        raise ParameterError(
            f"unknown backend {backend!r}; expected one of "
            f"{list(BACKEND_CHOICES)}"
        )
    if name == "auto":
        env = os.environ.get(ENV_VAR, "").strip().lower()
        if env:
            if env not in BACKEND_CHOICES:
                raise ParameterError(
                    f"unknown {ENV_VAR}={env!r}; expected one of "
                    f"{list(BACKEND_CHOICES)}"
                )
            name = env
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    if name == "python":
        return pure
    kernel = load_numpy_kernel()
    if kernel is None:
        raise ParameterError(
            "backend='numpy' requested but NumPy is not importable; "
            "install the extra (pip install adsketch[fast]) or use "
            "backend='auto' to fall back to the pure-Python kernel"
        )
    return kernel


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
