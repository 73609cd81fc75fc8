"""Zero-copy column backing for :class:`~repro.ads.index.AdsIndex`.

``AdsIndex.load(path, mmap=True)`` replaces the eager
read-into-``array`` deserialisation with views over memory-mapped file
bytes, so a multi-gigabyte index starts serving in milliseconds:

* **single-file layout** -- the whole file is mapped once and each
  column becomes a ``memoryview.cast`` over its byte range
  (:func:`map_file_columns`).  Nothing is copied; the OS pages bytes in
  on first touch.
* **sharded layout** -- only the manifest and the per-shard JSON headers
  (plus the small per-node offsets) are read at load time.  The entry
  columns become :class:`ShardedColumn` objects that map each shard
  file lazily, on the first query that touches a node of that shard
  (:class:`ShardMaps`).

This module also owns the one description of what an entry *is* on
disk and in memory (:data:`ENTRY_COLUMNS`, :func:`expected_bytes`): the
index, the mappers here and the kernel process pool's shard re-map all
read the layout from it.

Lifetime rules: the mapped :class:`memoryview` objects hold their
``mmap.mmap`` alive, and the index holds the column views, so the
mappings live exactly as long as the index -- request handlers may slice
columns freely without copying, but must not outlive the index.  The
maps are read-only (``ACCESS_READ``); mutating a served index file while
it is mapped is undefined behaviour, same as any mmap consumer.
"""

from __future__ import annotations

import mmap
import os
import threading
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import EstimatorError

# One ADS entry is a (node, distance) pair plus its HIP weight; rank and
# tiebreak are functions of (seed, node) and live in per-node tables,
# never per entry.  8-byte columns come first so that every column
# starts aligned behind the 8-aligned header.  Node ids are unsigned:
# no bit pattern is a negative id, so a hostile one is simply out of
# range.  ``aux`` is the k-mins permutation / k-partition bucket.
_BOTTOM_K_COLUMNS = (("dist", "d"), ("hip", "d"), ("node", "I"))
ENTRY_COLUMNS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "bottomk": _BOTTOM_K_COLUMNS,
    "kmins": _BOTTOM_K_COLUMNS + (("aux", "I"),),
    "kpartition": _BOTTOM_K_COLUMNS + (("aux", "I"),),
}
OFFSETS_TYPECODE = "q"


def expected_bytes(typecodes: Sequence[str], counts: Sequence[int]) -> int:
    """Bytes taken by ``counts[i]`` values of each ``typecodes[i]``
    stored back to back."""
    return sum(
        array(typecode).itemsize * count
        for typecode, count in zip(typecodes, counts)
    )


def map_file_columns(
    path: Path,
    fileno: int,
    data_start: int,
    counts: Sequence[int],
    typecodes: Sequence[str],
) -> List[memoryview]:
    """Map *path* once and cast one zero-copy view per column.

    ``counts[i]`` values of ``typecodes[i]`` are expected back-to-back
    starting at byte ``data_start``.  Raises :class:`EstimatorError`
    when the file is too short for the claimed counts (the mmap
    equivalent of the eager loader's "truncated file").
    """
    if os.fstat(fileno).st_size < data_start + expected_bytes(
        typecodes, counts
    ):
        raise EstimatorError(f"{path}: truncated file")
    mapped = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)
    view = memoryview(mapped)
    columns = []
    position = data_start
    for count, typecode in zip(counts, typecodes):
        stop = position + expected_bytes([typecode], [count])
        columns.append(view[position:stop].cast(typecode))
        position = stop
    return columns


class ShardSpec:
    """Where one shard's entry columns live on disk.

    ``entry_base`` is the shard's first global entry slot; the shard
    carries ``count`` entries of each column starting at byte
    ``data_start`` of ``path`` (column order fixed by the caller).
    """

    __slots__ = ("path", "data_start", "count", "entry_base")

    def __init__(
        self, path: Union[str, Path], data_start: int, count: int,
        entry_base: int,
    ):
        self.path = Path(path)
        self.data_start = int(data_start)
        self.count = int(count)
        self.entry_base = int(entry_base)


class ShardMaps:
    """Lazily memory-maps shard files and hands out their column views.

    One instance is shared by the :class:`ShardedColumn` objects of a
    lazily loaded index, so touching any column of a shard maps the
    whole shard exactly once.  Mapping is guarded by a lock --
    concurrent callers may race two first-touches of the same shard.
    """

    def __init__(self, specs: Sequence[ShardSpec], typecodes: Sequence[str]):
        self.specs = list(specs)
        self.typecodes = tuple(typecodes)
        self.entry_bases = [spec.entry_base for spec in self.specs]
        self.total_entries = (
            self.specs[-1].entry_base + self.specs[-1].count
            if self.specs else 0
        )
        self._views: List[Optional[List[memoryview]]] = [None] * len(
            self.specs
        )
        self._lock = threading.Lock()

    @property
    def mapped_shards(self) -> int:
        """How many shard files are currently mapped (for /stats)."""
        return sum(1 for views in self._views if views is not None)

    def shard_of(self, slot: int) -> int:
        """The shard index holding global entry *slot*."""
        return bisect_right(self.entry_bases, slot) - 1

    def views(self, shard: int) -> List[memoryview]:
        """The shard's column views, mapping the file on first touch."""
        views = self._views[shard]
        if views is not None:
            return views
        with self._lock:
            views = self._views[shard]
            if views is None:
                spec = self.specs[shard]
                try:
                    with open(spec.path, "rb") as handle:
                        views = map_file_columns(
                            spec.path, handle.fileno(), spec.data_start,
                            [spec.count] * len(self.typecodes),
                            self.typecodes,
                        )
                except OSError as error:
                    raise EstimatorError(
                        f"{spec.path}: shard file vanished or became "
                        f"unreadable after load ({error})"
                    )
                self._views[shard] = views
        return views


class ShardedColumn:
    """One global entry column assembled from lazily mapped shards.

    Supports exactly the sequence surface the index queries use:
    ``len``, integer indexing (also what :func:`bisect.bisect_right`
    needs), slicing, and ``tobytes``.  A slice that stays inside one
    shard -- every per-node slice does, because nodes never straddle
    shard boundaries -- returns a zero-copy ``memoryview``; a slice that
    crosses shards (only re-sharding saves do this) is assembled into a
    fresh ``array``.
    """

    __slots__ = ("_maps", "_column", "_typecode")

    def __init__(self, maps: ShardMaps, column: int, typecode: str):
        self._maps = maps
        self._column = column
        self._typecode = typecode

    def __len__(self) -> int:
        return self._maps.total_entries

    @property
    def mapped_shards(self) -> int:
        """How many backing shard files are mapped so far (public
        surface for ``AdsIndex.mapped_shards`` / serving stats)."""
        return self._maps.mapped_shards

    @property
    def remap(self) -> Tuple[Tuple[str, ...], int]:
        """``(file typecodes, this column's position)``: with a
        :class:`ShardSpec`'s coordinates, all a worker process needs to
        map the same shard column itself."""
        return self._maps.typecodes, self._column

    @property
    def shard_specs(self) -> tuple:
        """The backing :class:`ShardSpec` objects in global entry order.

        The pure kernel cuts its per-shard segments at these shards'
        entry bases (within-shard slices stay zero-copy), and the
        process fan-out hands workers the ``(path, data_start, count)``
        coordinates to re-map shards themselves.
        """
        return tuple(self._maps.specs)

    def _shard_view(self, shard: int) -> memoryview:
        return self._maps.views(shard)[self._column]

    def __getitem__(self, item):
        maps = self._maps
        if isinstance(item, slice):
            start, stop, step = item.indices(maps.total_entries)
            if step != 1:
                raise EstimatorError(
                    "ShardedColumn slices must have step 1"
                )
            if start >= stop:
                return array(self._typecode)
            shard = maps.shard_of(start)
            base = maps.entry_bases[shard]
            if stop <= base + maps.specs[shard].count:
                return self._shard_view(shard)[start - base:stop - base]
            return self._gather(start, stop)
        slot = item
        if slot < 0:
            slot += maps.total_entries
        if not 0 <= slot < maps.total_entries:
            raise IndexError("ShardedColumn index out of range")
        shard = maps.shard_of(slot)
        return self._shard_view(shard)[slot - maps.entry_bases[shard]]

    def _gather(self, start: int, stop: int) -> array:
        """Copy a cross-shard range into one owned array."""
        maps = self._maps
        gathered = array(self._typecode)
        shard = maps.shard_of(start)
        position = start
        while position < stop:
            base = maps.entry_bases[shard]
            shard_stop = min(stop, base + maps.specs[shard].count)
            gathered.extend(
                self._shard_view(shard)[position - base:shard_stop - base]
            )
            position = shard_stop
            shard += 1
        return gathered

    def __iter__(self):
        for shard, spec in enumerate(self._maps.specs):
            if spec.count:
                yield from self._shard_view(shard)

    def shard_views(self):
        """Yield each nonempty shard's zero-copy column view, in global
        entry order, mapping shard files on first touch.

        The public assembly surface for consumers that want the whole
        column as one contiguous buffer (the NumPy kernel concatenates
        these once per loaded index); views follow the lifetime rules
        in the module docs.
        """
        for shard, spec in enumerate(self._maps.specs):
            if spec.count:
                yield self._shard_view(shard)

    def tobytes(self) -> bytes:
        return b"".join(
            self._shard_view(shard).tobytes()
            for shard, spec in enumerate(self._maps.specs)
            if spec.count
        )

    def __repr__(self) -> str:
        return (
            f"ShardedColumn(typecode={self._typecode!r}, "
            f"entries={len(self)}, shards={len(self._maps.specs)}, "
            f"mapped={self._maps.mapped_shards})"
        )
